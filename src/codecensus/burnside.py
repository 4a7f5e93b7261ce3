"""The census: exact counts of inequivalent binary codes via orbit counting.

b(n) is the number of S_n-orbits on subspaces of GF(2)^n.  By the
Cauchy-Frobenius lemma it equals the average, over all permutations, of the
number of invariant subspaces, which we aggregate by cycle type.  The
census row also carries the dimension-refined counts b(n, d) and the
relative correction n! * b(n) / G(n,2) - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

import mpmath

from .cyclestruct import class_size, cycle_types_of
from .qarith import DEFAULT_PRECISION, gauss_total
from .submodcount import lattice_dim_poly


@dataclass(frozen=True)
class CensusRow:
    n: int
    b: int
    G: int                     # total number of subspaces of GF(2)^n
    by_dim: tuple[int, ...]    # b(n, d) for d = 0..n

    def correction(self, precision: int = DEFAULT_PRECISION) -> mpmath.mpf:
        """n! * b / G - 1, the relative excess over the orbit-count floor."""
        with mpmath.workdps(precision):
            num = factorial(self.n) * self.b - self.G
            return mpmath.mpf(num) / mpmath.mpf(self.G)


@lru_cache(maxsize=None)
def count_codes(n: int) -> CensusRow:
    """Exact census at n: orbit count, total subspace count, per-dimension
    orbit counts.  Each per-dimension orbit-counting sum must divide
    exactly by n!; b is their total, so it divides too."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    dim_sum = [0] * (n + 1)
    for ct in cycle_types_of(n):
        weight = class_size(ct)
        for d, c in enumerate(lattice_dim_poly(ct)):
            dim_sum[d] += weight * c
    nfact = factorial(n)
    by_dim = []
    for d, s in enumerate(dim_sum):
        bd, rem = divmod(s, nfact)
        if rem:
            raise ArithmeticError(
                f"dimension-{d} orbit sum not divisible by {n}! at n={n}")
        by_dim.append(bd)
    return CensusRow(n=n, b=sum(by_dim), G=gauss_total(n, 2), by_dim=tuple(by_dim))


def count_codes_by_dim(n: int, d: int) -> int:
    """b(n, d): orbits of d-dimensional subspaces."""
    if not 0 <= d <= n:
        raise ValueError(f"d must be in [0, {n}], got {d}")
    return count_codes(n).by_dim[d]


def non_identity_sum(n: int) -> int:
    """Sum of invariant-subspace counts over all non-identity permutations."""
    return factorial(n) * count_codes(n).b - gauss_total(n, 2)


def transposition_class_sum(n: int) -> int:
    """Contribution of the transposition class: C(n,2) * (2G(n-1) - G(n-2))."""
    return comb(n, 2) * (2 * gauss_total(n - 1, 2) - gauss_total(n - 2, 2))


def correction_report(n: int, precision: int = DEFAULT_PRECISION) -> dict:
    """Diagnostics for the rate of convergence of b(n) to G(n,2)/n!.

    R:   n! * b(n) / G(n,2) - 1
    rho: R divided by the transposition-class share of the orbit sum
         (tends to 1 as every other class decays faster)
    e:   log2(R) + n/2 - 2 log2(n), the empirical exponent left over after
         removing the dominant 2^(-n/2 + 2 log2 n) decay
    """
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")
    row = count_codes(n)
    excess = non_identity_sum(n)          # = n! * b - G, exact
    dominant = transposition_class_sum(n)
    with mpmath.workdps(precision):
        R = mpmath.mpf(excess) / mpmath.mpf(row.G)
        rho = mpmath.mpf(excess) / mpmath.mpf(dominant)
        e = mpmath.log(R, 2) + mpmath.mpf(n) / 2 - 2 * mpmath.log(n, 2)
        return {"n": n, "R": +R, "rho": +rho, "e": +e}
