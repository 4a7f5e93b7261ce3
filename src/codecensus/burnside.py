"""The census: exact counts of inequivalent binary codes via orbit counting.

b(n) is the number of S_n-orbits on subspaces of GF(2)^n.  By the
Cauchy-Frobenius lemma it equals the average, over all permutations, of the
number of invariant subspaces.  The census row also carries the
dimension-refined counts b(n, d) and the relative correction
n! * b(n) / G(n,2) - 1.

The invariant subspaces of a permutation split over the primary blocks of
its operator.  A cycle of length 2^a * u (u odd) adds a part 2^a to the
module type of every irreducible factor of t^u - 1, that is, of every
irreducible whose order e divides u.  All irreducibles of one order e share
one module type lambda_e, so the graded count of a cycle type is the
product over odd e of the block lattice of lambda_e, taken once for each
irreducible of order e.  There are phi(e) / ord_e(2) of them, of degree
ord_e(2) (cyclestruct.cyclotomic_split), so no polynomial is factored.

Rather than visit the p(n) cycle types one by one, sums_by_t1_type runs a
dynamic program over the odd parts u of the cycle lengths, from the largest
odd u <= n down to 1:

- Transition.  At stage u, choose mu, the multiset of 2-power parts 2^a of
  the cycles of length 2^a * u, and add mu to the pending module type of
  every odd e dividing u.  Later stages only reach orders dividing smaller
  u, so the block of the irreducibles of order exactly u is then complete.
- State.  (size used, pending module types of the orders still open).  Its
  value, a polynomial in the dimension, is the sum over the choices that
  reach it of n!/z_partial times the product of the completed block
  lattices, where z_partial = prod l^m * m! over the cycles chosen so far.
  A finite module's submodule lattice is self-dual (L. M. Butler, Subgroup
  lattices and symmetric functions, Mem. AMS 539, 1994), so every block
  lattice is a palindrome, and so is every product and same-degree sum of
  them: a state keeps only its value's lower half, entries 0..D // 2.  The
  degree D is read off the key, as the size used less phi(e) * |lambda_e|
  for each open order e (phi(e) = count * degree, cyclotomic_split), so
  every value reaching a key has the same length and the state holds no
  other field.  Transitions that reach the same completed type and state
  are summed before that block's polynomial is multiplied in, so each
  block polynomial is convolved once per merged state, not once per cycle
  type.  The product of one order's blocks and the strided convolution
  that multiplies it in are submodcount.order_lattice and
  submodcount.convolve, the same kernel that lattice_dim_poly uses: the
  value is mirrored to full length and only the lower half of the
  product is made (convolve's size), at the odd orders and again at the
  t+1 block, whose lower half is mirrored to the yielded length n + 1.
- Exactness.  Each stage divides the values by the z-product of the cycles
  it adds.  Cycles added at different stages have different lengths, so
  the z-products multiply to the z-product of the partial cycle type, and
  that divides m! for a partial type of size m, which divides n!.  So every
  term of the sum stays an integer and the division leaves no remainder.
  The choices of size s at stage u, each binary partition mu of s with its
  z-product, come from one table per (s, u) (choice_table), built once
  per process with the z-products multiplied up inside the partition
  recursion.  Each state's value is checked once, against the lcm of the
  z-products of all its choices, since it divides by every one of them
  exactly when it divides by their lcm; a value that fails raises, naming
  the first choice in stage order whose z-product it does not divide by.
  Every cycle type has one invariant subspace of dimension 0 and one of
  dimension n, and the class sizes sum to n!, so the dimension-0 and
  dimension-n totals must both equal n!.  A permutation with c cycles
  fixes 2^c - 1 nonzero vectors, the invariant lines, and
  sum_sigma 2^c(sigma) = (n + 1)!, so the dimension-1 total must equal
  n * n!.  These read the yielded polynomials, except that the
  dimension-n total is summed from the exact top coefficient of each t+1
  product, the product of its factors' top entries, and each product's
  length is checked from its factors' lengths, so neither reads the
  mirrored half: a t+1 block with a wrong or missing top entry still
  fails.  Whether each block lattice is a palindrome is checked where it
  is made (submodcount).  count_codes also requires every per-dimension
  total to divide by n!.
- Grouping.  The last stage (u = 1) completes the t+1 block, so its results
  are keyed by the t+1 module type lambda_1: for each lambda_1, the sum of
  class_size * lattice_dim_poly over the cycle types with that t+1 type.
  The t+1 types are grouped by their core, lambda_1 without its 1-parts
  (one 1-part per odd cycle).  Each core's block lattices come from one
  fixed-point walk (submodcount.fixed_point_walk, through t1_lattices):
  the column DP on the core, then one more shift-and-add step per 1-part.
  Each lattice is multiplied into its value as soon as it is made, so no
  lattice is kept.
  Each finished value is yielded and dropped: count_codes, the one census
  cache, keeps only the per-dimension totals and each type's weight (its
  value's sum), from which boundscheck.classify_D reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from math import comb, factorial, lcm
from operator import add, floordiv

import mpmath

from .cyclestruct import cyclotomic_split, odd_divisors
from .qarith import DEFAULT_PRECISION, gauss_total
from .submodcount import convolve, fixed_point_walk, order_lattice


@dataclass(frozen=True)
class CensusRow:
    n: int
    b: int
    G: int                     # total number of subspaces of GF(2)^n
    by_dim: tuple[int, ...]    # b(n, d) for d = 0..n
    # (lambda_1, sum of class_size * lattice_size over the cycle types of t+1 type lambda_1)
    t1_weights: tuple[tuple[tuple[int, ...], int], ...] = field(repr=False)

    def correction(self, precision: int = DEFAULT_PRECISION) -> mpmath.mpf:
        """n! * b / G - 1, the relative excess over the orbit-count floor."""
        with mpmath.workdps(precision):
            num = factorial(self.n) * self.b - self.G
            return mpmath.mpf(num) / mpmath.mpf(self.G)


def _weighted_binary_partitions(s: int, u: int, cap: int | None = None):
    """(mu, z) for each multiset mu of powers of two summing to s with no
    part above cap (default: no bound), as nonincreasing tuples, where z is
    the z-product of the cycles p * u for p in mu: each part p of
    multiplicity m adds the factor (p * u)^m * m!, so
    z = u^len(mu) * prod p^m * m!."""
    if cap is None:
        cap = 1 << max(s.bit_length() - 1, 0)
    if cap == 1:
        return [((1,) * s, u ** s * factorial(s))]
    return [((cap,) * m + rest, (cap * u) ** m * factorial(m) * z)
            for m in range(s // cap + 1)
            for rest, z in _weighted_binary_partitions(s - m * cap, u, cap >> 1)]


def binary_partitions(s: int) -> list[tuple[int, ...]]:
    """All multisets of powers of two summing to s, as nonincreasing tuples."""
    return [mu for mu, _ in _weighted_binary_partitions(s, 1)]


@lru_cache(maxsize=None)
def choice_table(s: int, u: int) -> tuple[int, tuple[tuple[tuple[int, ...], int], ...]]:
    """The stage-u choices of size s: the pairs (mu, z) for the binary
    partitions mu of s, in binary_partitions order, where z is the
    z-product of the cycles p * u for p in mu; returned with the lcm of
    those z."""
    pairs = tuple(_weighted_binary_partitions(s, u))
    return lcm(*(z for _, z in pairs)), pairs


def _add_into(acc: dict, key, poly) -> None:
    have = acc.get(key)
    acc[key] = poly if have is None else list(map(add, have, poly))


def t1_lattices(core: tuple[int, ...], fs):
    """The t+1 block lattices of the types core + (1,) * f, for the
    ascending fixed-point counts fs, as (f, lattice) pairs in order.  t+1
    is the one irreducible of order 1, of degree 1."""
    return fixed_point_walk(core, fs, 1)


def _stage(n: int, u: int, states: dict) -> dict:
    """Apply the stage-u choices to every state; returns the summed values
    keyed by (completed type lambda_u, size used, pending types).  A state
    with r left chooses partitions of r at u = 1 and of every s <= r // u
    otherwise, read from the choice tables.  Its value is checked once,
    against the lcm of those choices' z-products, then divided by each.
    At u = 1 only lambda_1 is pending, so its key is built directly."""
    divisors = odd_divisors(u)
    reached: dict = {}
    for (used, pending), value in states.items():
        sizes = [n - used] if u == 1 else range((n - used) // u + 1)
        tables = [choice_table(s, u) for s in sizes]
        zlcm = lcm(*(t[0] for t in tables))
        if any(c % zlcm for c in value):
            _raise_indivisible(n, u, value, tables)
        if u == 1:
            lam_1 = pending[0][1] if pending else ()
            for mu, z in tables[0][1]:
                key = (tuple(sorted(lam_1 + mu, reverse=True)), n, ())
                _add_into(reached, key, list(map(floordiv, value, repeat(z))))
            continue
        for s, (_, pairs) in zip(sizes, tables):
            used_s = used + s * u
            for mu, z in pairs:
                types = dict(pending)
                if mu:
                    for e in divisors:
                        types[e] = tuple(sorted(types.get(e, ()) + mu, reverse=True))
                lam_u = types.pop(u, ())
                key = (lam_u, used_s, tuple(sorted(types.items())))
                _add_into(reached, key, list(map(floordiv, value, repeat(z))))
    return reached


def _raise_indivisible(n: int, u: int, value, tables) -> None:
    """Raise for the first choice, in stage order, whose z-product does not
    divide value."""
    for _, pairs in tables:
        for mu, z in pairs:
            if any(c % z for c in value):
                raise ArithmeticError(
                    f"stage u={u} at n={n}: value not divisible by the "
                    f"z-product {z} of cycles {[p * u for p in mu]}")


def _mirror(half: list[int], degree: int) -> list[int]:
    """The palindrome of the given degree whose lower half (entries
    0..degree // 2) is half."""
    return half + half[:degree + 1 - len(half)][::-1]


def sums_by_t1_type(n: int):
    """Yield (lambda_1, sum of class_size(ct) * lattice_dim_poly(ct) over the
    cycle types ct with t+1 module type lambda_1) for each lambda_1 at n, by
    the odd-part DP of the module docstring, as soon as its t+1 block lattice
    is multiplied in; the end and dimension-1 totals are checked after the
    last pair."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    nfact = factorial(n)
    splits = {e: cyclotomic_split(e) for e in range(1, n + 1, 2)}
    # phi(e) = count * degree, the GF(2)-dimension each part of lambda_e adds
    phi = {e: count * deg for e, (count, deg) in splits.items()}
    states: dict = {(0, ()): [nfact]}
    for u in range(n - 1 + n % 2, 1, -2):
        split = splits[u]
        merged: dict = {}
        for (lam_u, used, pending), value in _stage(n, u, states).items():
            if lam_u:
                degree = used - sum(phi[e] * sum(lam) for e, lam in pending)
                value = convolve(_mirror(value, degree - phi[u] * sum(lam_u)),
                                 order_lattice(lam_u, *split), stride=split[1],
                                 size=degree // 2 + 1)
            _add_into(merged, (used, pending), value)
        states = merged
    cores: dict = {}  # core -> {fixed-point count f: value of core + (1,) * f}
    for (lam_1, _, _), value in _stage(n, 1, states).items():
        f = lam_1.count(1)
        cores.setdefault(lam_1[:len(lam_1) - f], {})[f] = value
    del states
    totals = [0, 0, 0]  # dimensions 0, 1 and n
    for core, values in cores.items():
        for f, lattice in t1_lattices(core, sorted(values)):
            lam_1 = core + (1,) * f
            value = _mirror(values.pop(f), n - sum(core) - f)
            if len(value) + len(lattice) - 1 != n + 1:
                raise ArithmeticError(
                    f"t+1 type {lam_1} at n={n}: dimension polynomial has length "
                    f"{len(value) + len(lattice) - 1}, expected n + 1 = {n + 1}")
            poly = tuple(_mirror(convolve(value, lattice, size=n // 2 + 1), n))
            totals[0] += poly[0]
            totals[1] += poly[1]
            totals[2] += value[-1] * lattice[-1]
            yield lam_1, poly
    checks = ((0, nfact, f"{n}!"), (1, n * nfact, f"{n} * {n}!"), (n, nfact, f"{n}!"))
    for (d, expected, name), total in zip(checks, totals):
        if total != expected:
            raise ArithmeticError(
                f"dimension-{d} orbit sum is {total} at n={n}, expected {name}")


@lru_cache(maxsize=None)
def count_codes(n: int) -> CensusRow:
    """Exact census at n: orbit count, total subspace count, per-dimension
    orbit counts and t+1 type weights, summed pair by pair from sums_by_t1_type.
    Each per-dimension sum must divide exactly by n!; b is their total."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    dim_sum = [0] * (n + 1)
    t1_weights = []
    for lam_1, poly in sums_by_t1_type(n):
        dim_sum = list(map(add, dim_sum, poly))
        t1_weights.append((lam_1, sum(poly)))
    nfact = factorial(n)
    by_dim = []
    for d, s in enumerate(dim_sum):
        bd, rem = divmod(s, nfact)
        if rem:
            raise ArithmeticError(
                f"dimension-{d} orbit sum not divisible by {n}! at n={n}")
        by_dim.append(bd)
    return CensusRow(n=n, b=sum(by_dim), G=gauss_total(n, 2), by_dim=tuple(by_dim),
                     t1_weights=tuple(t1_weights))


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
