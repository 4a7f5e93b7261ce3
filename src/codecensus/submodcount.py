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
polynomial graded by dimension through the stride-aware kernel
add_product, with stride d (convolve, for full stride-1 products,
allocates and calls it).  A finite module's submodule lattice is
self-dual, so every block lattice must read the same from either end, by
size as by dimension: each one the walk makes is checked for its end
counts and then for that symmetry (_checked_ends).  So every product of
them is a palindrome too, and both callers keep only lower halves:
half_product mirrors a half to full length and adds the product into
its own D // 2 + 1 zeros with add_product, D its degree, so no other
coefficient is made.  lattice_dim_poly takes one such step per odd
order and mirrors the last half to length n + 1; the census DP
(burnside) takes one per completed order, and adds each t+1 product
straight into the lower half of its row with add_product.  A mirror
would hide an asymmetric factor, so lattice_dim_poly checks that its
counts sum to the product of its factors' totals.  The full-length
reference is per_block_dim_poly in the tests, one plain convolution per
block.
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
    return components_size(primary_components(ct))


def components_size(components) -> int:
    """lattice_size from the primary_components records of a cycle type,
    for a caller that has them already."""
    result = 1
    for c in components:
        result *= component_total(c.module_type, c.deg) ** c.count
    return result


def lattice_dim_poly(ct: CycleType) -> tuple[int, ...]:
    """Invariant-subspace counts graded by dimension (index = dimension).

    Product over the odd orders of the cycle type of each order's block
    product (order_lattice, graded by submodule size), each multiplied
    into the running lower half once with stride d (half_product); the
    last half is mirrored to length n + 1, and the entries must sum to the
    product of the factors' totals, lattice_size(ct).
    """
    half, degree, total = [1], 0, 1
    for c in primary_components(ct):
        factor = order_lattice(c.module_type, c.count, c.deg)
        half, degree = half_product(half, degree, factor, c.deg)
        total *= sum(factor)
    if degree != ct.n:
        raise ArithmeticError(
            f"dimension polynomial of cycle type {ct} has length {degree + 1}, "
            f"expected n + 1 = {ct.n + 1}")
    poly = _mirror(half, degree)
    if sum(poly) != total:
        raise ArithmeticError(
            f"dimension polynomial of cycle type {ct} sums to {sum(poly)}, "
            f"not to the product {total} of its factors' totals")
    return tuple(poly)
