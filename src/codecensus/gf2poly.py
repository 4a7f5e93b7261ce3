"""Polynomial arithmetic over the 2-element field, bit-vector coefficients.

A polynomial is an int whose bit i is the coefficient of t^i (so t+1 is 0b11
= 3 and the zero polynomial is 0).

The primary blocks of a permutation operator depend on the irreducible
factors of t^u - 1 (u odd) only through their orders: the factors of order
exactly e (e | u) split the e-th cyclotomic polynomial into phi(e) / ord_e(2)
irreducibles, each of degree ord_e(2) (Lidl & Niederreiter, Finite Fields,
Thm 2.47).  cyclotomic_split gives that count and degree from integer
arithmetic alone, and it is all the census and the lattice counts use.

factor_cyclic factors t^u - 1 into its distinct irreducibles by
distinct-degree splitting, with the expected degree multiset read off the
2-cyclotomic cosets mod u.  It serves only PrimaryComponent.irreducible
(read on demand), the tests and the comparison with the brute-force
minimal polynomials.
"""

from __future__ import annotations

import random

ONE = 1
T_PLUS_1 = 0b11


def degree(p: int) -> int:
    """Degree of p; -1 for the zero polynomial."""
    return p.bit_length() - 1


def poly_mul(a: int, b: int) -> int:
    """Carry-less product."""
    result = 0
    while b:
        low = b & -b
        result ^= a << (low.bit_length() - 1)
        b ^= low
    return result


def poly_divmod(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = degree(b)
    quo = 0
    while degree(a) >= db:
        shift = degree(a) - db
        quo ^= 1 << shift
        a ^= b << shift
    return quo, a


def poly_mod(a: int, b: int) -> int:
    return poly_divmod(a, b)[1]


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_mod(a, b)
    return a


def poly_mulmod(a: int, b: int, m: int) -> int:
    return poly_mod(poly_mul(a, b), m)


def poly_powmod(a: int, e: int, m: int) -> int:
    result = poly_mod(1, m)
    a = poly_mod(a, m)
    while e:
        if e & 1:
            result = poly_mulmod(result, a, m)
        a = poly_mulmod(a, a, m)
        e >>= 1
    return result


def poly_str(p: int) -> str:
    """Human-readable form, e.g. 't^3 + t + 1'."""
    if p == 0:
        return "0"
    terms = []
    for i in range(degree(p), -1, -1):
        if (p >> i) & 1:
            terms.append("1" if i == 0 else ("t" if i == 1 else f"t^{i}"))
    return " + ".join(terms)


def mult_order_of_2(m: int) -> int:
    """Least e >= 1 with 2^e = 1 mod m (m odd); 1 for m = 1."""
    if m < 1 or m % 2 == 0:
        raise ValueError(f"m must be odd and >= 1, got {m}")
    if m == 1:
        return 1
    e = 1
    acc = 2 % m
    while acc != 1:
        acc = (acc * 2) % m
        e += 1
    return e


def _euler_phi(m: int) -> int:
    result, rest, p = m, m, 2
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            result -= result // p
        p += 1
    if rest > 1:
        result -= result // rest
    return result


def cyclotomic_split(e: int) -> tuple[int, int]:
    """(count, degree) of the irreducibles of order exactly e (e odd): the
    e-th cyclotomic polynomial over GF(2) is a product of phi(e) / ord_e(2)
    distinct irreducibles of degree ord_e(2).  Nothing is factored."""
    deg = mult_order_of_2(e)
    count, rem = divmod(_euler_phi(e), deg)
    if rem:
        raise ArithmeticError(
            f"phi({e}) is not divisible by the order {deg} of 2 mod {e}")
    return count, deg


def cyclotomic_cosets(u: int) -> list[frozenset[int]]:
    """The 2-cyclotomic cosets mod u (u odd), sorted by smallest member."""
    if u < 1 or u % 2 == 0:
        raise ValueError(f"u must be odd and >= 1, got {u}")
    seen = [False] * u
    cosets = []
    for a in range(u):
        if seen[a]:
            continue
        coset = set()
        x = a
        while x not in coset:
            coset.add(x)
            seen[x] = True
            x = (2 * x) % u
        cosets.append(frozenset(coset))
    return cosets


def _trace_poly(h: int, d: int, m: int) -> int:
    # h + h^2 + h^4 + ... + h^(2^(d-1)) mod m
    acc = 0
    term = poly_mod(h, m)
    for _ in range(d):
        acc ^= term
        term = poly_mulmod(term, term, m)
    return acc


def _equal_degree_split(f: int, d: int, rng: random.Random) -> list[int]:
    # f is squarefree, all irreducible factors of degree exactly d
    if degree(f) == d:
        return [f]
    while True:
        h = rng.getrandbits(degree(f))
        g = poly_gcd(f, _trace_poly(h, d, f))
        if 0 < degree(g) < degree(f):
            left = _equal_degree_split(g, d, rng)
            right = _equal_degree_split(poly_divmod(f, g)[0], d, rng)
            return left + right


_factor_cache: dict[int, tuple[int, ...]] = {}


def factor_cyclic(u: int) -> tuple[int, ...]:
    """Distinct irreducible factors of t^u - 1 over GF(2), u odd.

    Returned sorted by (degree, bit pattern); t+1 is always present.  The
    result is verified by re-multiplication and memoized.
    """
    if u < 1 or u % 2 == 0:
        raise ValueError(f"u must be odd and >= 1, got {u}")
    cached = _factor_cache.get(u)
    if cached is not None:
        return cached

    target = (1 << u) | 1  # t^u + 1 = t^u - 1 in characteristic 2
    degrees = sorted(len(c) for c in cyclotomic_cosets(u))
    rng = random.Random(u)  # deterministic per u
    factors: list[int] = []
    remaining = target
    d = 0
    x = 0b10
    power = x  # t^(2^d) mod remaining, rebuilt as remaining shrinks
    while degree(remaining) > 0:
        d += 1
        if degree(remaining) < 2 * d:
            factors.append(remaining)  # remaining is itself irreducible
            remaining = 1
            break
        power = poly_powmod(power, 2, remaining)
        g = poly_gcd(remaining, power ^ x)
        if degree(g) > 0:
            factors.extend(_equal_degree_split(g, d, rng))
            remaining = poly_divmod(remaining, g)[0]
            power = poly_mod(power, remaining)

    factors.sort(key=lambda p: (degree(p), p))
    prod = 1
    for p in factors:
        prod = poly_mul(prod, p)
    if prod != target:
        raise AssertionError(f"factorization of t^{u} - 1 failed verification")
    if sorted(degree(p) for p in factors) != degrees:
        raise AssertionError(f"factor degrees disagree with cosets for u={u}")

    result = tuple(factors)
    _factor_cache[u] = result
    return result


def irreducibles_of_order(e: int) -> tuple[int, ...]:
    """Irreducible factors of t^e - 1 of order exactly e (e odd): those that
    divide no t^f - 1 with f | e, f < e.  They are the factors of the e-th
    cyclotomic polynomial, phi(e) / ord_e(2) of them, each of degree
    ord_e(2); sorted as factor_cyclic sorts them."""
    lower = set()
    for f in range(1, e, 2):
        if e % f == 0:
            lower.update(factor_cyclic(f))
    result = tuple(p for p in factor_cyclic(e) if p not in lower)
    count, deg = cyclotomic_split(e)
    if len(result) != count or any(degree(p) != deg for p in result):
        raise ArithmeticError(
            f"irreducibles of order {e} disagree with the cyclotomic split: "
            f"expected {count} of degree {deg}")
    return result
