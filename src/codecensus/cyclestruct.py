"""Cycle types of the symmetric group and their primary-component data.

A cycle type is a partition of n (the multiset of cycle lengths of a
permutation).  Each cycle length splits as 2^a * u with u odd; the
irreducible factors of t^u - 1 then determine the primary blocks of the
permutation operator on GF(2)^n, each block carrying a module type whose
parts are powers of two.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Iterator

from .gf2poly import T_PLUS_1, degree, factor_cyclic


@dataclass(frozen=True)
class CycleType:
    """Multiset of cycle lengths, stored nonincreasing."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts or any(p < 1 for p in self.parts):
            raise ValueError(f"invalid cycle type {self.parts}")
        if list(self.parts) != sorted(self.parts, reverse=True):
            raise ValueError(f"parts must be nonincreasing, got {self.parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def r(self) -> int:
        """Number of cycles."""
        return len(self.parts)

    def multiplicities(self) -> dict[int, int]:
        mult: dict[int, int] = {}
        for p in self.parts:
            mult[p] = mult.get(p, 0) + 1
        return mult

    @classmethod
    def parse(cls, text: str) -> "CycleType":
        """Parse the CLI text form, e.g. '3,2,1,1'."""
        parts = tuple(sorted((int(s) for s in text.split(",")), reverse=True))
        return cls(parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


@dataclass(frozen=True)
class PrimaryComponent:
    """One irreducible-primary block of the permutation operator."""

    irreducible: int          # GF(2)[t] bit vector
    module_type: tuple[int, ...]  # partition, parts are powers of two

    @property
    def deg(self) -> int:
        return degree(self.irreducible)

    @property
    def residue_size(self) -> int:
        return 1 << self.deg

    @property
    def dim(self) -> int:
        """GF(2)-dimension of the block: deg * |module_type|."""
        return self.deg * sum(self.module_type)

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


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence (independent count)."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = 1 if k % 2 == 1 else -1
        if g1 <= n:
            total += sign * partition_count(n - g1)
        if g2 <= n:
            total += sign * partition_count(n - g2)
        k += 1
    return total


def class_size(ct: CycleType) -> int:
    """Number of permutations with this cycle type: n! / prod(l^m * m!)."""
    z = 1
    for length, mult in ct.multiplicities().items():
        z *= length ** mult * factorial(mult)
    return factorial(ct.n) // z


def _split_two_power(length: int) -> tuple[int, int]:
    # length = 2^a * u with u odd; returns (2^a, u)
    two_part = length & -length
    return two_part, length // two_part


@lru_cache(maxsize=None)
def _components_cached(parts: tuple[int, ...]) -> tuple[PrimaryComponent, ...]:
    by_poly: dict[int, list[int]] = {}
    for length in parts:
        two_part, u = _split_two_power(length)
        for p in factor_cyclic(u):
            by_poly.setdefault(p, []).append(two_part)
    components = []
    for p, type_parts in by_poly.items():
        components.append(
            PrimaryComponent(p, tuple(sorted(type_parts, reverse=True)))
        )
    # t+1 first, then by (degree, bit pattern)
    components.sort(key=lambda c: (c.irreducible != T_PLUS_1, c.deg, c.irreducible))
    return tuple(components)


def primary_components(ct: CycleType) -> tuple[PrimaryComponent, ...]:
    """Primary blocks of the operator of any permutation with this type.

    Each cycle of length 2^a * u contributes one part 2^a to the module
    type of every irreducible factor of t^u - 1.  The t+1 block comes
    first; the GF(2)-dimensions of the blocks sum to n.
    """
    comps = _components_cached(ct.parts)
    dims = sum(c.dim for c in comps)
    if dims != ct.n:
        raise ArithmeticError(
            f"primary blocks of cycle type {ct} have dimensions summing to "
            f"{dims}, expected n = {ct.n}")
    return comps
