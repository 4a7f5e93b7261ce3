"""Exact submodule counting for the invariant-subspace lattice.

A primary block is a finite module over a local ring with residue field of
size Q, described by a partition (its module type).  The number of
submodules of type mu inside a module of type lam is given, in conjugate
coordinates, by

    N(lam, mu; Q) = prod_i Q^(mu'_{i+1} (lam'_i - mu'_i))
                        * qbinom(lam'_i - mu'_{i+1}, mu'_i - mu'_{i+1}; Q).

Each factor depends only on the neighbouring columns (mu'_i, mu'_{i+1}), so
the counts of all submodules of a block, graded by size, are a
transfer-matrix sum: component_lattice runs a chain DP over the columns of
lam' instead of listing every type mu' <= lam'.  The type-by-type
enumerator survives as the slow reference oracle.graded_submodule_counts,
which the tests check the DP against.

The DP has two parts.  chain_heads runs it down to the first column and
returns H[t], the summed counts of the types with mu'_1 = t by the size of
their tail mu'_2, mu'_3, ...; fold_heads sums x^t * H[t] into the lattice.
The first column, of length r = len(lam), enters only through its factor
c_r(t, m) = [r - m, t - m]_Q * Q^(m (r - t)), where m = mu'_2.  The
q-Pascal rule [N, j] = [N - 1, j - 1] + Q^j [N - 1, j] with N = r - m,
j = t - m gives

    c_r(t, m) = c_{r-1}(t - 1, m) + Q^t * c_{r-1}(t, m),

and the coefficient Q^t does not depend on m, so the rule passes through
the sum over m.  Adding a 1-part to lam lengthens only the first column,
so, aligned by tail size,

    H_{lam+(1)}[t] = H_lam[t - 1] + Q^t * H_lam[t].

As modules: a submodule of M + k (k the residue field) either contains k,
and is then a submodule of M plus k, or is the graph of one of the
Q^(mu'_1) maps from a type-mu submodule of M to k.  fixed_point_walk uses
this: it runs the chain DP once on the core of a type (its parts other
than 1) and reaches core + (1,) * f by f shift-and-add steps, so the
census's t+1 blocks, which differ mostly in their number of fixed points,
share one chain DP per core.

The paper-facing quantities are the lattice size of a cycle type (product
over its primary blocks) and the same count graded by GF(2)-dimension.
Both are taken per odd order e, one primary_components record each,
rather than per block: the phi(e)/ord_e(2) irreducibles of order e share
one module type and the degree d = ord_e(2), and a degree-d block has
submodules only in dimensions that are multiples of d.  So order_lattice
raises the block's nonzero coefficients, a short dense polynomial in
s = t^d, to the number of blocks, and lattice_dim_poly convolves that
product into the running polynomial once with the stride-aware kernel
convolve, with stride d.  The census DP (burnside)
multiplies its blocks with the same two functions.
"""

from __future__ import annotations

from functools import lru_cache

from .cyclestruct import CycleType, primary_components
from .qarith import gauss_binomial


def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugate partition (column lengths of the Young diagram)."""
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= i) for i in range(1, parts[0] + 1))


def count_submodules_by_type(lam: tuple[int, ...], mu: tuple[int, ...], Q: int) -> int:
    """Number of type-mu submodules of a type-lam module, residue field size Q.

    Returns 0 when mu does not embed (some mu'_i > lam'_i).
    """
    return _count_conj(conjugate(lam), conjugate(mu), Q)


def _count_conj(lc: tuple[int, ...], mc: tuple[int, ...], Q: int) -> int:
    if len(mc) > len(lc):
        return 0
    result = 1
    for i in range(len(lc)):
        m_i = mc[i] if i < len(mc) else 0
        m_next = mc[i + 1] if i + 1 < len(mc) else 0
        l_i = lc[i]
        if m_i > l_i:
            return 0
        result *= Q ** (m_next * (l_i - m_i))
        result *= gauss_binomial(l_i - m_next, m_i - m_next, Q)
    return result


def chain_heads(lam: tuple[int, ...], Q: int, d: int) -> list[list[int]]:
    """The head stage of the chain DP for a type-lam block: entry t lists,
    for the submodule types mu with mu'_1 = t, the summed type counts by
    the size of the tail mu'_2, mu'_3, ... (index = tail size).

    The DP runs over the conjugate columns, last to first.  After column i
    the state is m = mu'_i and polys[m] lists the summed type counts of all
    tails mu'_i..mu'_k by their size, starting at size m (the smallest a
    tail headed by m can have).  Stepping to column i-1 with part t >= m
    multiplies by that column's factor of the type-counting formula and
    adds t to the size, which in offset coordinates shifts by m.  The
    heads with m <= t grow with t until they reach the next column's
    length, so the accumulator length is a running maximum over them.
    """
    polys = [[1]]  # past the last column: mu'_{k+1} = 0, empty tail
    for l_i in reversed(conjugate(lam)):
        new = []
        width = 0
        for t in range(l_i + 1):
            if t < len(polys):  # head m = t joins the m <= t heads
                width = max(width, len(polys[t]) + t)
            acc = [0] * width
            for m in range(min(t, len(polys) - 1) + 1):
                # Q^(m (l_i - t)) * qbinom(l_i - m, t - m; Q), with Q = 2^d
                c = gauss_binomial(l_i - m, t - m, Q) << (d * m * (l_i - t))
                for j, a in enumerate(polys[m], m):
                    acc[j] += c * a
            new.append(acc)
        polys = new
    return polys


def _checked_ends(coeffs: list[int], lam: tuple[int, ...], Q: int) -> list[int]:
    """Every block has exactly one submodule of dimension 0 and one of full
    dimension; other end counts raise."""
    if coeffs[0] != 1 or coeffs[-1] != 1:
        raise ArithmeticError(
            f"block lattice of type {lam} over Q={Q} has end counts "
            f"{coeffs[0]}, {coeffs[-1]} (expected 1, 1)")
    return coeffs


def fold_heads(heads, lam: tuple[int, ...], Q: int, d: int) -> list[int]:
    """The graded lattice sum_t x^(d t) * heads[t](x^d) of a type-lam block,
    indexed by GF(2)-dimension, with its end counts checked."""
    coeffs = [0] * (d * sum(lam) + 1)
    for t, poly in enumerate(heads):
        for j, a in enumerate(poly, t):
            coeffs[d * j] += a
    return _checked_ends(coeffs, lam, Q)


@lru_cache(maxsize=None)
def component_lattice(lam: tuple[int, ...], Q: int, d: int) -> tuple[int, ...]:
    """Submodule counts of a type-lam block graded by GF(2)-dimension.

    Entry k counts submodules whose type mu has d * |mu| = k; the block
    itself has GF(2)-dimension d * |lam|.  Q must equal 2^d.  The chain DP
    (chain_heads) folded by head (fold_heads).
    """
    if not lam:
        raise ValueError("lam must be nonempty")
    if Q != 1 << d:
        raise ValueError(f"Q={Q} does not match residue degree d={d}")
    return tuple(fold_heads(chain_heads(lam, Q, d), lam, Q, d))


def fixed_point_step(rows: list[int], d: int) -> list[int]:
    """The heads of lam + (1,) from the heads of lam, Q = 2^d:
    H'[t] = H[t-1] + Q^t H[t] for t = 0..len(rows).  A row is a head packed
    into one integer (or its entry sum): both sides are linear, and the
    scaling by Q^t is a shift."""
    return [below + (here << d * t)
            for t, (below, here) in enumerate(zip((0, *rows), (*rows, 0)))]


@lru_cache(maxsize=None)
def _core_heads(core: tuple[int, ...], Q: int, d: int) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, chain_heads(core, Q, d)))


def fixed_point_walk(core: tuple[int, ...], fs, Q: int, d: int):
    """Yield (f, lattice) for each f of the ascending sequence fs, where
    lattice is the list component_lattice(core + (1,) * f, Q, d) would
    return: one chain DP on core (cached across calls), then one
    fixed_point_step per added 1-part.

    Each head row is packed into one integer, nbytes bytes per entry, so a
    step costs a few big-integer shifts and adds per head instead of one
    per entry.  Entries are nonnegative and at most the lattice total of
    the largest type walked to, which the row sums give exactly by the same
    step, so no entry overflows its slot.  Folding shifts row t by t slots
    and unpacks the sum once; every lattice passes the end-count check."""
    if Q != 1 << d:
        raise ValueError(f"Q={Q} does not match residue degree d={d}")
    heads = _core_heads(core, Q, d)
    sums = [sum(h) for h in heads]
    for _ in range(max(fs, default=0)):
        sums = fixed_point_step(sums, d)
    nbytes = (sum(sums).bit_length() + 7) // 8
    rows = [int.from_bytes(b"".join(a.to_bytes(nbytes, "little") for a in h), "little")
            for h in heads]
    ones = 0
    for f in fs:
        if f < ones or not core and f == 0:
            raise ValueError(f"fixed-point counts must be ascending and give a "
                             f"nonempty type, got {f} after {ones} for core {core}")
        for ones in range(ones + 1, f + 1):
            rows = fixed_point_step(rows, d)
        lam = core + (1,) * f
        size = sum(lam)
        raw = sum(row << 8 * nbytes * t for t, row in enumerate(rows)).to_bytes(
            nbytes * (size + 1), "little")
        coeffs = [0] * (d * size + 1)
        coeffs[::d] = [int.from_bytes(raw[i:i + nbytes], "little")
                       for i in range(0, len(raw), nbytes)]
        yield f, _checked_ends(coeffs, lam, Q)


def component_total(lam: tuple[int, ...], Q: int, d: int) -> int:
    return sum(component_lattice(lam, Q, d))


def convolve(a, b, stride: int = 1) -> list[int]:
    """Coefficients of a(t) * b(t^stride): entry j of b is the coefficient
    of t^(stride * j), so the zeros between the strided entries are never
    visited.  The shorter factor is walked outside, skipping its zero
    entries: the census multiplies short state polynomials with many zeros
    by longer blocks, a lattice query a long running polynomial by short
    per-order products."""
    out = [0] * (len(a) + stride * (len(b) - 1))
    if len(a) <= len(b):
        for i, x in enumerate(a):
            if x:
                for k, y in zip(range(i, len(out), stride), b):
                    out[k] += x * y
    else:
        for j, y in enumerate(b):
            if y:
                for k, x in enumerate(a, stride * j):
                    out[k] += x * y
    return out


def order_lattice(lam: tuple[int, ...], count: int, d: int) -> list[int]:
    """Graded submodule counts of count >= 1 blocks of type lam over
    irreducibles of degree d, multiplied together, in s = t^d coordinates:
    entry j counts submodules of GF(2)-dimension d * j.  For the
    irreducibles of one odd order e, count = phi(e)/ord_e(2), d = ord_e(2),
    and all share lam."""
    block = list(component_lattice(lam, 1 << d, d)[::d])
    poly = block
    for _ in range(count - 1):
        poly = convolve(poly, block)
    return poly


def lattice_size(ct: CycleType) -> int:
    """Number of invariant subspaces of (any permutation with) this cycle
    type: product of the per-block submodule counts, one power per odd
    order."""
    result = 1
    for c in primary_components(ct):
        result *= component_total(c.module_type, c.residue_size, c.deg) ** c.count
    return result


def lattice_dim_poly(ct: CycleType) -> tuple[int, ...]:
    """Invariant-subspace counts graded by dimension (index = dimension).

    Product over the odd orders of the cycle type of each order's block
    product (order_lattice, in s = t^d coordinates), each convolved into
    the running polynomial once with stride d; entries sum to
    lattice_size(ct) and the length is n + 1.
    """
    poly = [1]
    for c in primary_components(ct):
        poly = convolve(poly, order_lattice(c.module_type, c.count, c.deg),
                        stride=c.deg)
    if len(poly) != ct.n + 1:
        raise ArithmeticError(
            f"dimension polynomial of cycle type {ct} has length {len(poly)}, "
            f"expected n + 1 = {ct.n + 1}")
    return tuple(poly)
