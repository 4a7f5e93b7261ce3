"""Exact submodule counting for the invariant-subspace lattice.

A primary block is a finite module over a local ring with residue field of
size Q = 2^d, described by a partition (its module type).  The number of
submodules of type mu inside a module of type lam is given, in conjugate
coordinates, by

    N(lam, mu; Q) = prod_i Q^(mu'_{i+1} (lam'_i - mu'_i))
                        * qbinom(lam'_i - mu'_{i+1}, mu'_i - mu'_{i+1}; Q).

The factor of column i depends only on its length l = lam'_i and on the
neighbouring parts t = mu'_i, m = mu'_{i+1}:

    c_l(t, m) = [l - m, t - m]_Q * Q^(m (l - t)),   m <= t <= l.

So the counts of all submodules of a block, graded by size, come from a DP
over the columns of lam', last to first, instead of listing every type
mu' <= lam'.  Nothing here evaluates N(lam, mu; Q) itself: its one copy
is oracle.count_submodules_by_type, which the validation gate checks
against brute-force enumeration, and oracle.graded_submodule_counts sums
it type by type into the slow reference the tests check the DP against.

After a column the DP holds its heads: H[t] sums, over the tails
mu'_i = t, mu'_{i+1}, ... that fit under the columns so far, their type
counts times x^(tail size - t).  Past the last column H = [1] (the empty
tail); a column of length l maps the heads H of the next one to

    H'[t] = sum_{m <= t} c_l(t, m) * R[m],   R[m] = x^m H[m],

and the lattice is sum_t x^t H[t] at the first column.  Each polynomial
in x is packed into one integer, a fixed number of bits per entry, so x^m
and every power of Q = 2^d are shifts.  The q-Pascal rule
[N, j] = [N - 1, j - 1] + Q^j [N - 1, j], with N = l - m, j = t - m, gives

    c_l(t, m) = c_{l-1}(t - 1, m) + Q^t * c_{l-1}(t, m)   (m < l),

and Q^t does not depend on m, so the rule passes through the sum over m.
It misses only m = l, where c_l(l, l) = 1 and c_{l-1}(t, l) = 0.  So the
partial sums G_k[t] = sum_m c_k(t, m) R[m], k = 0..l, obey

    G_k[t] = G_{k-1}[t - 1] + Q^t * G_{k-1}[t] + [t = k] R[k]

from G_{-1} = [] to H' = G_l: a column is l + 1 shift-and-add steps
(fixed_point_step), with R[k] added at t = k after step k while R lasts.
Adding a 1-part to lam lengthens only the first column, past the end of
R, so

    H_{lam+(1)}[t] = H_lam[t - 1] + Q^t * H_lam[t]

is one more step.  As modules: a submodule of M + k (k the residue field)
either contains k, and is then a submodule of M plus k, or is the graph of
one of the Q^(mu'_1) maps from a type-mu submodule of M to k.
fixed_point_walk runs the DP once on the core of a type (its parts other
than 1) and reaches core + (1,) * f by f more steps, so the census's t+1
blocks, which differ mostly in their number of fixed points, share one
core; component_lattice is the walk to one f.

The walk fixes the slot width of its packed heads before the DP, from a
bound on the lattice total.  At x = 1 a column of length l takes the
total sum_m H[m] of the heads to sum_m H[m] * sum_t c_l(t, m), and
sum_t c_l(t, m) = S_{l-m}(Q^m), where S_N(x) = sum_k [N, k]_Q x^k is the
Rogers-Szego polynomial.  The q-Pascal rule [N+1, k] = [N, k-1] +
Q^k [N, k] gives S_{N+1}(x) = x S_N(x) + S_N(Q x) > S_N(Q x), so
S_{l-m}(Q^m) falls as m grows, and a column multiplies the total by at
most S_l(1) = G(l, Q), the number of subspaces of GF(Q)^l.  So the
lattice total of lam is at most prod_i G(lam'_i, Q) (_total_bound).

One packed format serves the walk and the census's u = 1 values
(burnside): a list of nonnegative entries as one integer, a fixed number
of little-endian bytes per entry, the first lowest (_pack).  _unpack
decodes it and raises when the value needs more entries than asked for,
so one check guards every packed value.

The paper-facing quantities are the lattice size of a cycle type (product
over its primary blocks) and the same count graded by GF(2)-dimension.
Both are taken per odd order e, one primary_components record each,
rather than per block: the phi(e)/ord_e(2) irreducibles of order e share
one module type and the degree d = ord_e(2).  Below the dimension grading
every block is graded by submodule size, with d its only field parameter
(component_lattice, order_lattice), and a submodule of size j has
GF(2)-dimension d * j, so d is applied once: order_lattice raises the
block lattice to the number of blocks, and that product enters a
polynomial graded by dimension with stride d, through the stride-aware
kernel add_product (convolve, for full stride-1 products, allocates and
calls it) or a lattice query's packed shift-adds.  A finite module's
submodule lattice is self-dual, so every block lattice must read the
same from either end, by size as by dimension: each one the walk makes
is checked for its end counts and then for that symmetry
(_checked_ends).  So every product of them is a palindrome too, and
both callers keep only lower halves.  half_product mirrors a half to
full length and adds the product into its own D // 2 + 1 zeros with
add_product, D its degree, so no other coefficient is made; the census
DP (burnside) takes one such step per completed order, and adds each
t+1 product straight into the lower half of its row with add_product.

lattice_dim_poly needs entries 0..n // 2 of its product, which depend
only on the factors' entries below n // 2 + 1.  While the product's
total fits PACKED_SLOT_CUTOFF bytes, the running product, truncated
there with no mirror between orders, is one integer in the _pack
format, a slot the byte width of the total: the first factor packed, each later one added in by one shift-add of the
running integer per nonzero entry (_packed_half, whose docstring shows
that no slot overflows).  Wide totals come from many equal cycles, where
the packed product loses to the loop (measured at PACKED_SLOT_CUTOFF),
so above the cutoff the query takes one half_product per order instead.
Either way the half is mirrored to length n + 1.  A mirror would hide an
asymmetric factor, so lattice_dim_poly checks each factor to be a
palindrome before either path, and its counts to sum to the product of
its factors' totals.  The full-length reference is per_block_dim_poly in
the tests, one plain convolution per block.
"""

from __future__ import annotations

from functools import lru_cache

from .cyclestruct import CycleType, primary_components
from .qarith import _gauss_total


def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugate partition (column lengths of the Young diagram), in one
    scan from the last part: the columns past part j + 1, up to part j,
    have length j."""
    cols: list[int] = []
    for j in range(len(parts), 0, -1):
        cols += [j] * (parts[j - 1] - len(cols))
    return tuple(cols)


def _checked_ends(coeffs: list[int], lam: tuple[int, ...], Q: int) -> list[int]:
    """Every block has exactly one submodule of dimension 0 and one of full
    dimension, and its lattice is self-dual, so its counts read the same
    from either end; other end counts, then any other asymmetry, raise."""
    if coeffs[0] != 1 or coeffs[-1] != 1:
        raise ArithmeticError(
            f"block lattice of type {lam} over Q={Q} has end counts "
            f"{coeffs[0]}, {coeffs[-1]} (expected 1, 1)")
    if coeffs != coeffs[::-1]:
        raise ArithmeticError(
            f"block lattice of type {lam} over Q={Q} is not a palindrome")
    return coeffs


def fixed_point_step(rows: list[int], d: int) -> list[int]:
    """G'[t] = G[t-1] + Q^t G[t] for t = 0..len(rows), Q = 2^d: one step of
    the column DP, and the heads of lam + (1,) from the heads of lam.  A
    row is a polynomial packed into one integer: the step is linear, and
    the scaling by Q^t is a shift."""
    new = [0, *rows]
    for t, here in enumerate(rows):
        new[t] += here << d * t
    return new


def _packed_heads(cols: tuple[int, ...], d: int, slot: int) -> list[int]:
    """The first-column heads of the block with conjugate type cols over
    Q = 2^d, by the column DP of the module docstring: entry t packs the
    summed counts of the types mu with mu'_1 = t by tail size, slot bits
    per entry."""
    rows = heads = [1]
    for l in reversed(cols):
        heads = []
        for k in range(l + 1):
            heads = fixed_point_step(heads, d)
            if k < len(rows):
                heads[k] += rows[k]  # c_k(k, k) = 1
        rows = [h << slot * t for t, h in enumerate(heads)]
    return heads


def _total_bound(cols: tuple[int, ...], d: int) -> int:
    """An upper bound on the lattice total of the block with conjugate
    type cols over Q = 2^d: the product over its columns of G(l, Q), the
    most a column of length l multiplies the total by (module docstring)."""
    bound = 1
    for l in cols:
        bound *= _gauss_total(l, 1 << d)
    return bound


def _pack(entries, nbytes: int) -> int:
    """The entries as one integer, nbytes bytes each, the first lowest."""
    return int.from_bytes(b"".join(x.to_bytes(nbytes, "little") for x in entries), "little")


def _unpack(packed: int, nbytes: int, count: int) -> list[int]:
    """The count entries of nbytes bytes each that _pack packed; a packed
    value that needs more than count entries raises."""
    if packed.bit_length() > 8 * nbytes * count:
        raise ArithmeticError(f"packed value does not fit {count} entries of {nbytes} bytes")
    raw = packed.to_bytes(nbytes * count, "little")
    return [int.from_bytes(raw[i:i + nbytes], "little") for i in range(0, len(raw), nbytes)]


def fixed_point_walk(core: tuple[int, ...], fs, d: int):
    """Yield (f, lattice) for each f of the ascending sequence fs, where
    lattice is the list component_lattice(core + (1,) * f, d) would
    return: the column DP on core over Q = 2^d, then one fixed_point_step
    per added 1-part.

    Each head is packed into one integer, nbytes bytes per entry, in the
    format of _pack.  Entries are nonnegative and at most the lattice
    total of the largest type walked to, core + (1,) * max(fs), whose
    conjugate is that of core with the first column max(fs) longer;
    _total_bound of those columns is at least that total, so no entry
    overflows its slot.  Folding shifts head t by t slots, and _unpack
    decodes the sum once into size + 1 entries, raising if it needs more;
    every lattice passes the end-count and palindrome check."""
    Q = 1 << d
    bound = _total_bound(conjugate(core + (1,) * max(fs, default=0)), d)
    nbytes = (bound.bit_length() + 7) // 8
    rows = _packed_heads(conjugate(core), d, 8 * nbytes)
    ones = 0
    for f in fs:
        if f < ones or not core and f == 0:
            raise ValueError(f"fixed-point counts must be ascending and give a "
                             f"nonempty type, got {f} after {ones} for core {core}")
        for ones in range(ones + 1, f + 1):
            rows = fixed_point_step(rows, d)
        lam = core + (1,) * f
        folded = sum(row << 8 * nbytes * t for t, row in enumerate(rows))
        yield f, _checked_ends(_unpack(folded, nbytes, sum(lam) + 1), lam, Q)


@lru_cache(maxsize=None)
def component_lattice(lam: tuple[int, ...], d: int) -> tuple[int, ...]:
    """Submodule counts of a type-lam block over the residue field of
    2^d elements, graded by submodule size.

    Entry j counts submodules whose type mu has |mu| = j, so GF(2)-dimension
    d * j; the last entry is j = |lam|.  The fixed-point walk of the core of
    lam (its parts other than 1) to lam.
    """
    f = lam.count(1)
    [(_, lattice)] = fixed_point_walk(lam[:len(lam) - f], (f,), d)
    return tuple(lattice)


def component_total(lam: tuple[int, ...], d: int) -> int:
    return sum(component_lattice(lam, d))


def add_product(out: list[int], a, b, stride: int = 1) -> list[int]:
    """Add the coefficients of a(t) * b(t^stride) into out, up to
    len(out), and return out: entry j of b is the coefficient of
    t^(stride * j), so the zeros between the strided entries are never
    visited.  The shorter factor is walked outside, skipping its zero
    entries: the census multiplies short state polynomials with many
    zeros by longer blocks, a lattice query a long running polynomial by
    short per-order products.  The one convolution kernel: the census
    adds each t+1 product straight into the lower half of its row."""
    if len(a) <= len(b):
        for i, x in enumerate(a):
            if x:
                for k, y in zip(range(i, len(out), stride), b):
                    out[k] += x * y
    else:
        for j, y in enumerate(b):
            if y:
                for k, x in zip(range(stride * j, len(out)), a):
                    out[k] += x * y
    return out


def convolve(a, b) -> list[int]:
    """Coefficients of a(t) * b(t), by add_product into zeros."""
    return add_product([0] * (len(a) + len(b) - 1), a, b)


def _mirror(half: list[int], degree: int) -> list[int]:
    """The palindrome of the given degree whose lower half (entries
    0..degree // 2) is half."""
    return half + half[:degree + 1 - len(half)][::-1]


def half_product(half: list[int], degree: int, factor, stride: int):
    """(lower half, degree) of p(t) * factor(t^stride), where p is the
    palindrome of the given degree whose lower half is half: p is mirrored
    to full length and only entries 0..D // 2 of the product are made, D
    its degree.  Exact only for a palindromic factor, which every block
    lattice and every product of them is (module docstring)."""
    full = _mirror(half, degree)
    degree += stride * (len(factor) - 1)
    return add_product([0] * (degree // 2 + 1), full, factor, stride), degree


def order_lattice(lam: tuple[int, ...], count: int, d: int):
    """Submodule counts of count >= 1 blocks of type lam over irreducibles
    of degree d, multiplied together, graded by size: entry j counts
    submodules of GF(2)-dimension d * j.  For the irreducibles of one odd
    order e, count = phi(e)/ord_e(2), d = ord_e(2), and all share lam.  For
    count = 1 this is the cached tuple of component_lattice itself."""
    block = poly = component_lattice(lam, d)
    for _ in range(count - 1):
        poly = convolve(poly, block)
    return poly


def lattice_size(ct: CycleType) -> int:
    """Number of invariant subspaces of (any permutation with) this cycle
    type: product of the per-block submodule counts, one power per odd
    order."""
    result = 1
    for c in primary_components(ct):
        result *= component_total(c.module_type, c.deg) ** c.count
    return result


# The widest slot, in bytes, at which lattice_dim_poly makes its lower half
# as one packed product; a wider total takes the half_product loop.  Wide
# totals come from many equal cycles, where the packed product loses.  The
# packed time over the loop's, in-process with cold block caches, best of 3
# on a 2-vCPU VM, by the byte width of the total (the benchmark's query pool
# has widths 2 to 25):
#   c^k plus one 1023-cycle (n 1035 to 1359), c in 3..21: 0.52-0.81 at
#     16-30 bytes, 0.77-1.28 at 34-73, 1.15-2.39 at 84-185;
#   c^k alone (n <= 336): 0.89-1.06 at 8-25 bytes, 0.91-1.39 at 31-73,
#     1.08-3.37 at 91-169;
#   5^60 (563 bytes) 5-10 ms -> 16-17 ms, 21^20 7^10 (373) 10-18 ms ->
#     43-47 ms, 9^100 (2814) 0.65-0.94 s -> 1.9-2.3 s.
PACKED_SLOT_CUTOFF = 32


def _packed_half(factors, keep: int, nbytes: int) -> list[int]:
    """Entries 0..keep - 1 of the product of factor(t^stride) over the
    (factor, stride) pairs, as one running integer in the _pack format,
    nbytes bytes per entry.  The first factor is packed at stride * nbytes
    bytes per entry, which puts its entry j in slot stride * j; each later
    nonzero entry y = factor[j] adds the running integer times y, shifted
    by stride * j slots, and each sum is masked to keep slots.  Entries
    below keep of a product depend only on the factors' entries below
    keep, so the truncation is exact.

    No slot overflows when the product's total fits nbytes bytes: every
    factor has nonnegative entries and constant term 1, so each entry of a
    partial product, and of a partial sum of its shift-adds, is at most
    that entry of the whole product, and so at most its total."""
    (first, stride), *rest = factors
    acc = _pack(first[:(keep - 1) // stride + 1], nbytes * stride)
    slot, mask = 8 * nbytes, (1 << 8 * nbytes * keep) - 1
    for factor, stride in rest:
        acc = sum(acc * y << slot * stride * j
                  for j, y in enumerate(factor[:(keep - 1) // stride + 1]) if y) & mask
    return _unpack(acc, nbytes, keep)


def lattice_dim_poly(ct: CycleType) -> tuple[int, ...]:
    """Invariant-subspace counts graded by dimension (index = dimension).

    Product over the odd orders of the cycle type of each order's block
    product (order_lattice, graded by submodule size), spread by stride d;
    each must be a palindrome, and their degrees must sum to n.  Entries
    0..n // 2 of the product are made and mirrored to length n + 1, and
    the entries must sum to the product of the factors' totals,
    lattice_size(ct).  While that total fits PACKED_SLOT_CUTOFF bytes the
    lower half is one packed product (_packed_half); above it the
    running lower half takes one half_product per order.
    """
    comps = primary_components(ct)
    factors = [(order_lattice(c.module_type, c.count, c.deg), c.deg) for c in comps]
    degree, total = 0, 1
    for c, (factor, stride) in zip(comps, factors):
        if factor != factor[::-1]:
            raise ArithmeticError(
                f"block product of order {c.order} of cycle type {ct} is not a palindrome")
        degree += stride * (len(factor) - 1)
        total *= sum(factor)
    if degree != ct.n:
        raise ArithmeticError(
            f"dimension polynomial of cycle type {ct} has length {degree + 1}, "
            f"expected n + 1 = {ct.n + 1}")
    nbytes = (total.bit_length() + 7) // 8
    if nbytes <= PACKED_SLOT_CUTOFF:
        half = _packed_half(factors, degree // 2 + 1, nbytes)
    else:
        half, made = [1], 0
        for factor, stride in factors:
            half, made = half_product(half, made, factor, stride)
    poly = _mirror(half, degree)
    if sum(poly) != total:
        raise ArithmeticError(
            f"dimension polynomial of cycle type {ct} sums to {sum(poly)}, "
            f"not to the product {total} of its factors' totals")
    return tuple(poly)
