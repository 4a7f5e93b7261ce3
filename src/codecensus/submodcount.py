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

The paper-facing quantities are the lattice size of a cycle type (product
over its primary blocks) and the same count graded by GF(2)-dimension.
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


@lru_cache(maxsize=None)
def component_lattice(lam: tuple[int, ...], Q: int, d: int) -> tuple[int, ...]:
    """Submodule counts of a type-lam block graded by GF(2)-dimension.

    Entry k counts submodules whose type mu has d * |mu| = k; the block
    itself has GF(2)-dimension d * |lam|.  Q must equal 2^d.

    Chain DP over the conjugate columns, last to first.  After column i the
    state is m = mu'_i and polys[m] lists the summed type counts of all
    tails mu'_i..mu'_k by their size, starting at size m (the smallest a
    tail headed by m can have).  Stepping to column i-1 with part t >= m
    multiplies by that column's factor of the type-counting formula and
    adds t to the size, which in offset coordinates shifts by m.
    """
    if not lam:
        raise ValueError("lam must be nonempty")
    if Q != 1 << d:
        raise ValueError(f"Q={Q} does not match residue degree d={d}")
    polys = [[1]]  # past the last column: mu'_{k+1} = 0, empty tail
    for l_i in reversed(conjugate(lam)):
        new = []
        for t in range(l_i + 1):
            heads = range(min(t, len(polys) - 1) + 1)  # m <= t, m <= next column
            acc = [0] * max(len(polys[m]) + m for m in heads)
            for m in heads:
                # Q^(m (l_i - t)) * qbinom(l_i - m, t - m; Q), with Q = 2^d
                c = gauss_binomial(l_i - m, t - m, Q) << (d * m * (l_i - t))
                for j, a in enumerate(polys[m], m):
                    acc[j] += c * a
            new.append(acc)
        polys = new
    coeffs = [0] * (d * sum(lam) + 1)
    for t, poly in enumerate(polys):
        for j, a in enumerate(poly, t):
            coeffs[d * j] += a
    if coeffs[0] != 1 or coeffs[-1] != 1:
        raise ArithmeticError(
            f"block lattice of type {lam} over Q={Q} has end counts "
            f"{coeffs[0]}, {coeffs[-1]} (expected 1, 1)")
    return tuple(coeffs)


def component_total(lam: tuple[int, ...], Q: int, d: int) -> int:
    return sum(component_lattice(lam, Q, d))


def lattice_size(ct: CycleType) -> int:
    """Number of invariant subspaces of (any permutation with) this cycle
    type: product of the per-block submodule counts."""
    result = 1
    for comp in primary_components(ct):
        result *= component_total(comp.module_type, comp.residue_size, comp.deg)
    return result


def lattice_dim_poly(ct: CycleType) -> tuple[int, ...]:
    """Invariant-subspace counts graded by dimension (index = dimension).

    Convolution of the per-block graded counts; entries sum to
    lattice_size(ct) and the length is n + 1.
    """
    poly = (1,)
    for comp in primary_components(ct):
        block = component_lattice(comp.module_type, comp.residue_size, comp.deg)
        new = [0] * (len(poly) + len(block) - 1)
        for i, a in enumerate(poly):
            if a:
                for j, b in enumerate(block):
                    if b:
                        new[i + j] += a * b
        poly = tuple(new)
    if len(poly) != ct.n + 1:
        raise ArithmeticError(
            f"dimension polynomial of cycle type {ct} has length {len(poly)}, "
            f"expected n + 1 = {ct.n + 1}")
    return poly
