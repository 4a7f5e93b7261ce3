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
- State.  Three integers (used, degree, pending).  A module type is fixed
  by its multiplicity at each exponent a, so pending packs the types of
  all open orders into one integer: the multiplicity of 2^a in lambda_e is
  the W-bit field at SLOT * (e // 2) + W * a, and n < 2^W bounds it and a,
  so no field carries into the next.  A choice's step is mu packed into
  the slot of every odd e dividing u (choice_table), and a transition adds
  it, types = pending + step.  u is the highest open order, so lambda_u is
  types shifted down by the slot of u and the new pending is the rest (at
  u = 1 the slot is 0).  Types are decoded (parts) only for a block lattice.
  The value, a polynomial in the dimension, is the sum over the choices
  reaching the state of n!/z_partial times the product of the completed
  block lattices, where z_partial = prod l^m * m! over the cycles chosen.
- Degree.  A finite module's submodule lattice is self-dual (L. M. Butler,
  Subgroup lattices and symmetric functions, Mem. AMS 539, 1994), so every
  block lattice is a palindrome, and so is every product and same-degree
  sum of them: a state keeps only the lower half, entries 0..D // 2, of
  its value of degree D = used - sum over the open e of phi(e) *
  |lambda_e| (phi(e) = count * degree, cyclotomic_split).  D is carried: a
  transition leaves it unchanged, since s cycles of length u add s * u to
  used and s to |lambda_e| for each e dividing u, whose phi(e) sum to u;
  completing order u adds phi(u) * |lambda_u|.
- Merging.  Transitions that reach the same completed type and state are
  summed before that block's polynomial is multiplied in, so it is
  convolved once per merged state, not once per cycle type.  The product
  of one order's blocks and the strided convolution that multiplies it in
  are submodcount.order_lattice and convolve, as in lattice_dim_poly: the
  value is mirrored to full length and only the lower half of the product
  is made (convolve's size), at the odd orders and again at the t+1 block,
  whose lower half is mirrored to the yielded length n + 1.
- Exactness.  Each stage divides the values by the z-product of the cycles
  it adds.  Cycles added at different stages have different lengths, so
  the z-products multiply to the z-product of the partial cycle type,
  which divides m! for a partial type of size m, and so n!: the division
  leaves no remainder.  The choices of size s at stage u, each binary
  partition mu of s with its step and z-product, come from one table per
  (s, u) (choice_table), built once per process.  Each state's value is
  checked once, against the lcm of its choices' z-products; a value that
  fails raises, naming the first choice in stage order whose z-product it
  does not divide by.  Every cycle type has one invariant subspace of
  dimension 0 and one of dimension n, and the class sizes sum to n!, so
  the dimension-0 and dimension-n totals must both equal n!.  A
  permutation with c cycles fixes 2^c - 1 nonzero vectors, and
  sum_sigma 2^c(sigma) = (n + 1)!, so the dimension-1 total must equal
  n * n!.  The dimension-n total is summed from the exact top coefficient
  of each t+1 product, the product of its factors' top entries, and each
  product's length is checked from its factors' lengths, so neither reads
  the mirrored half: a t+1 block with a wrong or missing top entry still
  fails.  Each block lattice is checked to be a palindrome where it is
  made (submodcount); count_codes requires every per-dimension total to
  divide by n!.
- Grouping.  The last stage (u = 1) completes the t+1 block, so its results
  are keyed by the t+1 module type lambda_1: for each lambda_1, the sum of
  class_size * lattice_dim_poly over the cycle types with that t+1 type.
  They are grouped by their core, lambda_1 without its 1-parts: the count
  f of 1-parts is the lowest field of lambda_1, and the core the fields
  above it.  Each core's block lattices come from one fixed-point walk
  (submodcount.fixed_point_walk): the column DP on the core, then one
  shift-and-add step per 1-part, each lattice multiplied into its value as
  soon as it is made.  Each finished value is yielded and dropped:
  count_codes, the one census cache, keeps only the per-dimension totals
  and each type's weight (its value's sum), which boundscheck.classify_D
  reads.
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


# packed module types: W-bit fields, a SLOT of 16 of them per odd order (State above)
W = 16
SLOT = 16 * W
FIELD = (1 << W) - 1


@dataclass(frozen=True)
class CensusRow:
    n: int
    b: int
    G: int                     # total number of subspaces of GF(2)^n
    by_dim: tuple[int, ...]    # b(n, d) for d = 0..n
    # (lambda_1, sum of class_size * lattice_size over the cycle types of t+1 type lambda_1)
    t1_weights: tuple[tuple[tuple[int, ...], int], ...] = field(repr=False)

    def correction(self) -> mpmath.mpf:
        """n! * b / G - 1, the relative excess over the orbit-count floor."""
        with mpmath.workdps(DEFAULT_PRECISION):
            return mpmath.mpf(factorial(self.n) * self.b - self.G) / mpmath.mpf(self.G)


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n >= 1 << W:
        raise ValueError(f"n must be below 2^{W} = {1 << W}, got {n}")


def _weighted_binary_partitions(s: int, u: int, a: int | None = None):
    """(mu, z) for each multiset mu of powers of two summing to s with no
    part above 2^a (default: no bound), packed as one order's type, by the
    largest part's multiplicity ascending; z is the z-product of the cycles
    p * u for p in mu, a factor (p * u)^m * m! per part p of multiplicity m."""
    if a is None:
        a = max(s.bit_length() - 1, 0)
    if a == 0:
        return [(s, u ** s * factorial(s))]
    p = 1 << a
    return [((m << W * a) + rest, (p * u) ** m * factorial(m) * z)
            for m in range(s // p + 1)
            for rest, z in _weighted_binary_partitions(s - m * p, u, a - 1)]


def parts(packed: int) -> tuple[int, ...]:
    """The partition of one order's packed type, nonincreasing."""
    return tuple(1 << a for a in range((packed.bit_length() - 1) // W, -1, -1)
                 for _ in range((packed >> W * a) & FIELD))


@lru_cache(maxsize=None)
def choice_table(s: int, u: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The stage-u choices of size s, with the lcm of their z: the pairs
    (step, z) for the binary partitions mu of s, in _weighted_binary_partitions
    order, where step is mu packed into the slot of every odd divisor of u
    and z is the z-product of the cycles p * u for p in mu."""
    spread = sum(1 << SLOT * (e // 2) for e in odd_divisors(u))
    pairs = tuple((mu * spread, z) for mu, z in _weighted_binary_partitions(s, u))
    return lcm(*(z for _, z in pairs)), pairs


def _add_into(acc: dict, key, poly) -> None:
    have = acc.get(key)
    acc[key] = poly if have is None else list(map(add, have, poly))


def _stage(n: int, u: int, states: dict) -> dict:
    """Apply the stage-u choices to every state (used, degree, pending);
    returns the summed values keyed by (packed lambda_u, used, degree,
    pending), each key made by one addition, one shift and one mask.  A
    state with r left chooses partitions of r at u = 1 and of every
    s <= r // u otherwise, read from the choice tables.  Its value is
    checked once, against the lcm of those choices' z-products, then
    divided by each."""
    shift = SLOT * (u // 2)
    below = (1 << shift) - 1
    reached: dict = {}
    for (used, degree, pending), value in states.items():
        sizes = [n - used] if u == 1 else range((n - used) // u + 1)
        tables = [choice_table(s, u) for s in sizes]
        zlcm = lcm(*(t[0] for t in tables))
        if any(c % zlcm for c in value):
            _raise_indivisible(n, u, value, tables)
        for s, (_, pairs) in zip(sizes, tables):
            used_s = used + s * u
            for step, z in pairs:
                types = pending + step
                key = (types >> shift, used_s, degree, types & below)
                _add_into(reached, key, list(map(floordiv, value, repeat(z))))
    return reached


def _raise_indivisible(n: int, u: int, value, tables) -> None:
    """Raise for the first choice, in stage order, whose z-product does not
    divide value; its mu is the step's order-1 slot."""
    for _, pairs in tables:
        for step, z in pairs:
            if any(c % z for c in value):
                mu = parts(step & ((1 << SLOT) - 1))
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
    _check_n(n)
    nfact = factorial(n)
    states: dict = {(0, 0, 0): [nfact]}
    for u in range(n - 1 + n % 2, 1, -2):
        count, deg = cyclotomic_split(u)
        merged: dict = {}
        for (lam_u, used, degree, pending), value in _stage(n, u, states).items():
            if lam_u:
                lam = parts(lam_u)
                value = _mirror(value, degree)
                degree += count * deg * sum(lam)
                value = convolve(value, order_lattice(lam, count, deg), stride=deg,
                                 size=degree // 2 + 1)
            _add_into(merged, (used, degree, pending), value)
        states = merged
    cores: dict = {}  # packed core -> {fixed-point count f: (value, degree)}
    for (lam_1, _, degree, _), value in _stage(n, 1, states).items():
        cores.setdefault(lam_1 >> W, {})[lam_1 & FIELD] = value, degree
    del states
    totals = [0, 0, 0]  # dimensions 0, 1 and n
    for packed, values in cores.items():
        core = parts(packed << W)
        for f, lattice in fixed_point_walk(core, sorted(values), 1):
            lam_1 = core + (1,) * f
            value = _mirror(*values.pop(f))
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
    _check_n(n)
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


def correction_report(n: int) -> dict:
    """Diagnostics for the rate of convergence of b(n) to G(n,2)/n!.

    R:   n! * b(n) / G(n,2) - 1
    rho: R divided by the transposition-class share of the orbit sum
         (tends to 1 as every other class decays faster)
    e:   log2(R) + n/2 - 2 log2(n), the empirical exponent left over after
         removing the dominant 2^(-n/2 + 2 log2 n) decay
    """
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")
    R = count_codes(n).correction()
    excess = non_identity_sum(n)          # = n! * b - G, exact
    with mpmath.workdps(DEFAULT_PRECISION):
        rho = mpmath.mpf(excess) / mpmath.mpf(transposition_class_sum(n))
        e = mpmath.log(R, 2) + mpmath.mpf(n) / 2 - 2 * mpmath.log(n, 2)
        return {"n": n, "R": R, "rho": +rho, "e": +e}
