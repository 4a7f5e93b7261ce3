"""Exact q-analog arithmetic: subspace counts, Gaussian binomials, scaled limits.

All counts are plain Python ints (arbitrary precision).  The scaled
quantities u_n = G(n,q) * q^(-n^2/4) and the tail product bounding them are
carried as mpmath floats at a configurable decimal precision.  mpmath is
imported by the two functions that make them, on first use, so the exact
counts never load it.
"""

from __future__ import annotations

from math import isqrt

DEFAULT_PRECISION = 60

# guard digits added on top of the requested precision for intermediate work
_GUARD_DIGITS = 10


def _validate_prime_power(q: int) -> None:
    """Raise ValueError unless 2 <= q < 2^32 is a prime power.  The bound
    keeps the trial division below 2^16 steps."""
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    if q >= 1 << 32:
        raise ValueError(f"q must be below 2^32 = {1 << 32}, got {q}")
    p = next((p for p in range(2, isqrt(q) + 1) if q % p == 0), q)  # least prime factor
    m = q
    while m % p == 0:
        m //= p
    if m != 1:
        raise ValueError(f"q must be a prime power, got {q}")


def gauss_total(n: int, q: int) -> int:
    """Number of subspaces of an n-dimensional space over the q-element field."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    _validate_prime_power(q)
    return _gauss_total(n, q)


def _gauss_total(n: int, q: int) -> int:
    """gauss_total without the input check, so q may pass its 2^32 bound
    (submodcount._total_bound's Q = 2^ord_e(2) reaches 2^28 at census
    n = 36, 2^66 within CENSUS_CEILING, at e = 67, and 2^1530 for a
    1531-cycle within LATTICE_CEILING), by the Goldman-Rota
    recurrence G(k+1) = 2 G(k) + (q^k - 1) G(k-1) with G(0) = 1, G(1) = 2,
    iterated upward.  When q is a power of two the product q^k * G(k-1) is
    a shift."""
    shift = q.bit_length() - 1 if q & (q - 1) == 0 else 0
    prev, cur = 1, 2  # G(k-1), G(k) at k = 1
    for k in range(1, n):
        scaled = prev << (shift * k) if shift else q ** k * prev
        prev, cur = cur, 2 * cur + scaled - prev
    return cur if n else prev


def gauss_binomial(n: int, d: int, q: int) -> int:
    """Number of d-dimensional subspaces of an n-dimensional space over GF(q).

    Exact iterative product; every intermediate quotient is itself a
    Gaussian binomial, so the integer divisions are exact.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    _validate_prime_power(q)
    if d < 0 or d > n:
        return 0
    d = min(d, n - d)
    result = 1
    for i in range(d):
        result = result * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    return result


def scaled_u(n: int, q: int, precision: int = DEFAULT_PRECISION) -> mpmath.mpf:
    """The scaled subspace count G(n,q) * q^(-n^2/4)."""
    if precision < 30:
        raise ValueError(f"precision must be >= 30, got {precision}")
    import mpmath

    g = gauss_total(n, q)
    with mpmath.workdps(precision + _GUARD_DIGITS):
        u = mpmath.mpf(g) * mpmath.mpf(q) ** (-mpmath.mpf(n * n) / 4)
        return +u


def lemma1_tail_product(terms: int) -> mpmath.mpf:
    """1.7 times the partial product of (2^(5/4-k/2) + 1 - 2^(1-k)), k >= 2.

    Monotone increasing in `terms`; the infinite product is finite and the
    value stays below 23 for every truncation.  2^(5/4-k/2) is 2^(5/4)
    (k even) or 2^(3/4) (k odd) scaled by 2^-(k//2), so the two roots are
    the only fractional powers taken, and each term's scalings by powers
    of two (ldexp) are exact.  The factors fall monotonically toward 1, so
    once one rounds to exactly 1 at the working precision (from k = 475 on
    at the default), every later one does too, and the product stops there.
    """
    if terms < 10:
        raise ValueError(f"terms must be >= 10, got {terms}")
    import mpmath

    with mpmath.workdps(DEFAULT_PRECISION + _GUARD_DIGITS):
        roots = mpmath.mpf(2) ** (mpmath.mpf(5) / 4), mpmath.mpf(2) ** (mpmath.mpf(3) / 4)
        acc = mpmath.mpf("1.7")
        for k in range(2, terms + 2):
            factor = mpmath.ldexp(roots[k % 2], -(k // 2)) + 1 - mpmath.ldexp(1, 1 - k)
            if factor == 1:
                break
            acc *= factor
        return +acc
