"""Cycle types of the symmetric group and their primary-component data.

A cycle type is a partition of n (the multiset of cycle lengths of a
permutation).  Each cycle length splits as 2^a * u with u odd, and the
cycle adds a part 2^a to the module type of every irreducible factor of
t^u - 1.  Those factors are the irreducibles of order e for the odd e
dividing u, and all irreducibles of one order share one module type, so
the primary blocks of the permutation operator on GF(2)^n follow from the
orders alone: the irreducibles of order exactly e split the e-th cyclotomic
polynomial into phi(e) / ord_e(2) factors, each of degree ord_e(2) (Lidl &
Niederreiter, Finite Fields, Thm 2.47).  cyclotomic_split gives that count
and degree from integer arithmetic, and primary_components keeps one record
per order; no polynomial is factored.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterator
from math import factorial, isqrt


class CycleType(namedtuple("CycleType", "parts")):
    """Multiset of cycle lengths, stored nonincreasing."""

    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...]):
        if not parts or any(p < 1 for p in parts):
            raise ValueError(f"invalid cycle type {parts}")
        if list(parts) != sorted(parts, reverse=True):
            raise ValueError(f"parts must be nonincreasing, got {parts}")
        return super().__new__(cls, parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def r(self) -> int:
        """Number of cycles."""
        return len(self.parts)

    @classmethod
    def parse(cls, text: str) -> "CycleType":
        """Parse the CLI text form, e.g. '3,2,1,1'."""
        parts = tuple(sorted((int(s) for s in text.split(",")), reverse=True))
        return cls(parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


class PrimaryComponent(namedtuple("PrimaryComponent", "order count deg module_type")):
    """The primary blocks of the permutation operator over the irreducibles
    of order exactly `order`: count blocks, one per irreducible, all of one
    degree and one module type.

    order: odd e; the irreducibles divide no t^f - 1, f < e
    count: phi(e) / ord_e(2), the number of those irreducibles
    deg: ord_e(2), the degree of each irreducible
    module_type: partition, parts are powers of two
    """

    __slots__ = ()

    @property
    def dim(self) -> int:
        """GF(2)-dimension of the order's blocks together:
        count * deg * |module_type|."""
        return self.count * self.deg * sum(self.module_type)

    @property
    def max_exponent(self) -> int:
        """Largest part of the module type (exponent of the irreducible in
        the minimal polynomial)."""
        return self.module_type[0]


def partitions_of(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n, each once, in reverse lexicographic order."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(n, n, ())


def cycle_types_of(n: int) -> Iterator[CycleType]:
    for parts in partitions_of(n):
        yield CycleType(parts)


def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence (independent count),
    filled upward from p(0) = 1."""
    if n < 0:
        return 0
    p = [1]
    for m in range(1, n + 1):
        total = 0
        k = 1
        while k * (3 * k - 1) // 2 <= m:
            sign = 1 if k % 2 == 1 else -1
            total += sign * p[m - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= m:
                total += sign * p[m - k * (3 * k + 1) // 2]
            k += 1
        p.append(total)
    return p[n]


def z_product(lengths) -> int:
    """prod(l^m * m!) over the distinct cycle lengths l, with multiplicity m,
    of a multiset of cycle lengths: the order of the centralizer of any
    permutation with those cycles."""
    z = 1
    for length, m in Counter(lengths).items():
        z *= length ** m * factorial(m)
    return z


def class_size(ct: CycleType) -> int:
    """Number of permutations with this cycle type: n! / prod(l^m * m!)."""
    return factorial(ct.n) // z_product(ct.parts)


def odd_divisors(u: int) -> list[int]:
    """The divisors of odd u, ascending."""
    small = [e for e in range(1, isqrt(u) + 1, 2) if u % e == 0]
    return small + [u // e for e in reversed(small) if e * e != u]


def mult_order_of_2(m: int) -> int:
    """Least e >= 1 with 2^e = 1 mod m (m odd); 1 for m = 1."""
    if m < 1 or m % 2 == 0:
        raise ValueError(f"m must be odd and >= 1, got {m}")
    e, acc = 1, 2 % m
    while acc > 1:  # acc = 2^e mod m, never 0 for odd m > 1
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


def primary_components(ct: CycleType) -> tuple[PrimaryComponent, ...]:
    """Primary blocks of the operator of any permutation with this type,
    one record per odd order of irreducible.

    Each cycle of length 2^a * u contributes one part 2^a to the module
    type of every irreducible whose order e divides u.  Sorted by (degree,
    order), so the t+1 block (order 1, the only order of degree 1, one
    irreducible) comes first; the GF(2)-dimensions of the records sum to n.
    """
    by_order: dict[int, list[int]] = {}
    for length in ct.parts:
        two_part = length & -length  # 2^a, where length = 2^a * u with u odd
        for e in odd_divisors(length // two_part):
            by_order.setdefault(e, []).append(two_part)
    comps = [PrimaryComponent(e, *cyclotomic_split(e),
                              tuple(sorted(type_parts, reverse=True)))
             for e, type_parts in by_order.items()]
    comps.sort(key=lambda c: (c.deg, c.order))
    dims = sum(c.dim for c in comps)
    if dims != ct.n:
        raise ArithmeticError(
            f"primary blocks of cycle type {ct} have dimensions summing to "
            f"{dims}, expected n = {ct.n}")
    return tuple(comps)
