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

Rather than visit the p(n) cycle types one by one, census runs a dynamic
program over the odd parts u of the cycle lengths, from the largest odd
u <= N down to 1, once for all the rows m <= N it is asked for (Rows
below; a single row n is the pass with N = n):

- Transition.  At stage u, choose mu, the multiset of 2-power parts 2^a of
  the cycles of length 2^a * u, and add mu to the pending module type of
  every odd e dividing u.  Later stages only reach orders dividing smaller
  u, so the block of the irreducibles of order exactly u is then complete.
- State.  Two integers (used, pending).  A module type is fixed by its
  multiplicity at each exponent a, so pending packs the types of all
  open orders into one integer: the multiplicity of 2^a in lambda_e is
  the W-bit field at SLOT * (e // 2) + W * a, and N < 2^W bounds it and a,
  so no field carries into the next.  A choice's step is mu packed into
  the slot of every odd e dividing u (choice_table), and a transition adds
  it, types = pending + step.  u is the highest open order, so lambda_u is
  types shifted down by the slot of u and the new pending is the rest (at
  u = 1 the slot is 0).  Types are decoded (parts) only for a block lattice.
  The value, a polynomial in the dimension, is the sum over the choices
  reaching the state of used!/z_partial times the product of the
  completed block lattices, where z_partial = prod l^m * m! over the
  cycles chosen: used!/z_partial is the number of permutations of the
  used points with those cycles.
- Degree.  A finite module's submodule lattice is self-dual (L. M. Butler,
  Subgroup lattices and symmetric functions, Mem. AMS 539, 1994), so every
  block lattice is a palindrome, and so is every product and same-degree
  sum of them: a state keeps only the lower half, entries 0..D // 2, of
  its value of degree D = used - sum over the open e of phi(e) *
  |lambda_e| (phi(e) = count * degree, cyclotomic_split).  The key fixes
  D, so it is not kept but derived from the half (_degree): a transition
  leaves D unchanged, since s cycles of length u add s * u to used and s
  to |lambda_e| for each e dividing u, whose phi(e) sum to u, and
  completing order u adds phi(u) * |lambda_u|.  So D is the sum of
  phi(e) * |lambda_e| over the completed orders e >= 3, each phi(e) even:
  D is even, and the half's D // 2 + 1 entries give it.
- Merging.  Transitions that reach the same completed type and state are
  summed before that block's polynomial is multiplied in, so it is
  convolved once per merged state, not once per cycle type.  The product
  of one order's blocks is submodcount.order_lattice, and it is
  multiplied in by submodcount.half_product: the value is mirrored to
  full length and only the lower half of the product is made.  (A
  lattice query, lattice_dim_poly, makes its whole lower half as one
  packed product of shift-adds instead, and takes the same half_product
  step per order only when its total is too wide for the packed slots.)
  The t+1 block is never multiplied into a state: its product with each
  row's value is added straight into that row's lower half (Rows).
  One function, _stage, makes a whole odd stage, choices, merge and
  completion, so the DP is a fold of it over u, then the u = 1 stage.
- Weights.  Every stage, u = 1 included, weighs a choice one way.  A
  choice whose cycles cover size points, c points used after it,
  multiplies the value by C(c, size) * ways: C(c, size) picks those
  points among the c, and ways = size!/z, z the z-product of the chosen
  cycles, counts the permutations of those points with those cycles.
  The factors telescope to c!/z_partial, so no state value is ever
  divided.  The one division is size!/z, made once per choice when its
  table is built (_ways), and a z that does not divide size! raises.
  The choices of size s at stage u, each binary partition mu of s with
  its packed step and ways, come from one table per (s, u)
  (choice_table), built once per process; the u = 1 stage reads its nu
  moves of size 2k from the table (k, 2), so every weight comes from
  these tables.
- Checks.  Every cycle type has one invariant subspace of dimension 0
  and one of dimension m, and the class sizes sum to m!, so the
  dimension-0 and dimension-m totals of row m must both equal m!.  A
  permutation with c cycles fixes 2^c - 1 nonzero vectors, and
  sum_sigma 2^c(sigma) = (m + 1)!, so the dimension-1 total must equal
  m * m!.  A wrong weight shows in these totals.  The dimension-m total
  is summed from the top coefficient of each t+1 product, the product of
  its factors' top entries, where V's is the mirror of its exact first
  and the lattice's is read as made, and each product's length is
  checked from its factors' lengths: a t+1 block with a wrong or missing
  top entry still fails.  Each block lattice is checked to be a
  palindrome where it is made (submodcount); census requires every
  per-dimension total of row m to divide by m!.
- Fixed points.  The last stage (u = 1) completes the t+1 block.  It
  chooses only nu, the cycles of length 2, 4, 8, ... (_stage_one), never
  the fixed points: a nu of size 2k is a binary partition of k doubled,
  with its step and ways from choice_table(k, 2).  So its results hold
  every row at once: they are keyed by (core, c, f_p), where
  c = used + |nu| is the number of points that move, the core is
  lambda_1 without its 1-parts (the fields of pending + nu above the
  lowest) and f_p is the count of 1-parts from the odd cycles u >= 3 (the
  lowest field of pending).  They are grouped by g = c - f_p, and every
  entry of group g has degree D = g - |core|: a state's D is
  used - |lambda_1|, and nu adds |nu| to both c and the core.  Its
  choices are weighed as every stage's are, so each value is c!/z times
  the block lattices, z the z-product of the fixed-point-free partial
  type on c points.  Its setup (_stage_one) files the states by their
  pending part and lists, for each core, the parts it pulls its choices
  from, those whose pending types it contains; then each core is made
  on its own (_core_groups), so a process holds the values of one core
  at a time.  Its values are packed, each into one
  integer with a fixed number of bytes per entry for each degree, wide
  enough for any sum a row makes of them, so a choice costs one
  multiplication and one addition, and a row's sum is unpacked once per
  t+1 type.  The packed format and its one fit check are
  submodcount's _pack and _unpack, which the block walk shares.
- Rows.  A permutation of m points that moves c of them is a choice of
  the c points and a fixed-point-free permutation of them, so its class
  size is C(m, c) times the class size of its fixed-point-free part on c
  points: row m reads entry (core, c, f_p), for every c <= m, at the t+1
  type core + (1,) * f, f = f_p + m - c, with weight C(m, c), and its
  degree m - |core| - f is the group's D = g - |core|.  Each core's block
  lattices come from one fixed-point walk (submodcount.fixed_point_walk),
  up to the largest f any row needs: the column DP on the core, then one
  shift-and-add step per 1-part.  At each f, each row that reads it sums
  its weighted entries into the lower half of the type's value V, and
  yields V, mirrored, with the lattice.  census, whose rows count_codes
  and census_rows keep in the one census cache, adds each product
  V * lattice (submodcount.add_product) straight into the lower half,
  entries 0..m // 2, of row m's per-dimension sum, one list per row,
  mirrored once after the pass, so no type's product is made whole or
  kept.  A type's weight, which boundscheck.classify_D reads, is the sum
  of its product, sum(V) * sum(lattice): the sum of a product is the
  product of the sums.  A row lists its t+1 types sorted by lambda_1.
- Workers.  The odd stages and the u = 1 setup run in one process; they
  are a quarter of a pass.  The rest, each core's groups, walk and t+1
  products (_t1_sums, _row_sums), is independent per core, so census
  may split the cores round-robin between itself, which makes every
  other core, and one worker forked after the setup, which shares its
  memory and makes the rest.  It splits where the affinity set has two
  CPUs or more and the pass is large enough that the fork costs less
  than the half it takes off (_split: from a pass of top = 21); never
  where os.fork does not exist, while another thread runs, or while
  SIGCHLD is ignored, since the kernel then reaps the worker before
  census can.  It forks no second worker on a host of more CPUs: only
  that split has been timed, and each worker adds its own copy of the
  setup's pages it reads.  The worker sends its per-row lower halves,
  dimension-m totals and weights back as one marshal blob through a
  pipe and exits 0, and the split keeps one rule (_forked): whatever
  census does not get as a complete blob from a worker that exited 0,
  it makes in its own process.  So a pipe or fork that fails, or a
  worker that raises, is killed or runs out of memory, costs time, not
  the pass, and a check that fails in the worker's share raises in
  census's own run of it, with its type and traceback.  A worker stops
  one way: census closes the pipe, then reaps it, so a worker whose
  census has raised makes its share, finds no reader and exits 1; the
  worker is always reaped, and before census's error reaches its caller.
  Each lattice's end-count and palindrome checks and each product's
  length check run in the process that walks its core; the row totals
  and the division by m! run in census, on the merged sums.  Those are
  sums of exact integers, the same whatever process adds which core, and
  each lambda_1 is listed once per row and sorted, so every row is the
  same in one process and in two.  _forked has a
  second caller, census_rows_beside, where the same _split allows:
  boundscheck's suite all forks one worker that makes the whole pass,
  its cores split as above with a worker of its own, while the suite's
  process runs the checks that read no census row.  For a while three
  processes share two CPUs.  The pass worker reaps its own core worker
  before it exits, so no worker outlives a suite that raises.  The rows
  come back as plain tuples, and rows that do not come back are made in
  the suite's process.
"""

from __future__ import annotations

import marshal
import os
from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache, partial
from itertools import accumulate, repeat
from math import comb, factorial
from operator import add, mul

from .cyclestruct import cyclotomic_split, odd_divisors
from .qarith import DEFAULT_PRECISION, gauss_total
from .submodcount import (_mirror, _pack, _slot_bytes, _unpack, add_product, fixed_point_walk,
                          half_product, order_lattice)


# packed module types: W-bit fields, a SLOT of 16 of them per odd order (State above)
W = 16
SLOT = 16 * W
FIELD = (1 << W) - 1


class CensusRow(namedtuple("CensusRow", "n b G by_dim t1_weights")):
    """One census row.

    G: total number of subspaces of GF(2)^n
    by_dim: b(n, d) for d = 0..n
    t1_weights: (lambda_1, sum of class_size * lattice_size over the cycle
    types of t+1 type lambda_1), sorted by lambda_1; left out of the repr
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return f"CensusRow(n={self.n!r}, b={self.b!r}, G={self.G!r}, by_dim={self.by_dim!r})"

    def correction(self) -> mpmath.mpf:
        """n! * b / G - 1, the relative excess over the orbit-count floor."""
        import mpmath

        with mpmath.workdps(DEFAULT_PRECISION):
            return mpmath.mpf(factorial(self.n) * self.b - self.G) / mpmath.mpf(self.G)


# the setup of the u = 1 stage at top, which every core's values are made from (_stage_one)
StageOne = namedtuple("StageOne", "top widths by_part pulls")


def _check_n(n: int) -> int:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n >= 1 << W:
        raise ValueError(f"n must be below 2^{W} = {1 << W}, got {n}")
    return n


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


def _ways(size: int, z: int, fact: int) -> int:
    """fact/z, fact being size!, which the caller computes once for all the
    z of one size: the number of permutations of size points with cycles
    of z-product z.  The division is exact, as a class size is; a z that
    leaves a remainder raises."""
    ways, rem = divmod(fact, z)
    if rem:
        raise ArithmeticError(f"z-product {z} does not divide {size}!")
    return ways


@lru_cache(maxsize=None)
def choice_table(s: int, u: int) -> tuple[tuple[int, int], ...]:
    """The choices of size s of the cycles of length p * u, p a power of
    two: the pairs (step, ways) for the binary partitions mu of s, in
    _weighted_binary_partitions order, where ways is the number of
    permutations of s * u points with the cycles p * u for p in mu
    (_ways).  With u = 2^a * u', u' odd, each part p adds a part 2^a * p
    to the type of every order dividing u', so step is mu shifted up a
    fields into the slot of every odd divisor of u': the stage-u choices
    for odd u, and at a = 1, u' = 1 the nu moves of the u = 1 stage."""
    a = (u & -u).bit_length() - 1
    spread = sum(1 << SLOT * (e // 2) + W * a for e in odd_divisors(u >> a))
    fact = factorial(s * u)
    return tuple((mu * spread, _ways(s * u, z, fact))
                 for mu, z in _weighted_binary_partitions(s, u))


def _add_into(acc: dict, key, poly) -> None:
    have = acc.get(key)
    acc[key] = poly if have is None else list(map(add, have, poly))


def _degree(half: list) -> int:
    """D of a state's value from its lower half: D is even and half has
    D // 2 + 1 entries (Degree)."""
    return 2 * len(half) - 2


def _stage(n: int, u: int, states: dict) -> dict:
    """The odd stage u >= 3 on the states (used, pending): returns the new
    states.  A state with r left chooses partitions of every s <= r // u,
    read from the choice tables.  A choice's cycles cover s * u more
    points, c in all, so it multiplies the value by C(c, s * u), the ways
    to pick those points, times its ways to place the cycles.  The values
    are summed by (packed lambda_u, c, rest), each key made by one
    addition, one shift and one mask; each sum then has order u completed,
    half_product by the order_lattice of lambda_u, and is added into the
    new state (c, rest)."""
    shift = SLOT * (u // 2)
    below = (1 << shift) - 1
    reached: dict = {}
    for (used, pending), value in states.items():
        for s in range((n - used) // u + 1):
            c = used + s * u
            picks = comb(c, s * u)
            for step, ways in choice_table(s, u):
                types = pending + step
                key = (types >> shift, c, types & below)
                _add_into(reached, key, list(map(mul, value, repeat(picks * ways))))
    count, deg = cyclotomic_split(u)
    done: dict = {}
    for (lam_u, used, pending), value in reached.items():
        if lam_u:
            value, _ = half_product(value, _degree(value),
                                    order_lattice(parts(lam_u), count, deg), deg)
        _add_into(done, (used, pending), value)
    return done


def _stage_one(top: int, states: dict) -> StageOne:
    """The setup of the u = 1 stage at top, without fixed points: each
    state (used, pending) chooses nu, the cycles of length 2, 4, 8, ...,
    of every size 2k <= top - used, so c = used + 2k points move, and
    reaches the core (pending + nu) >> W, its t+1 type without the
    1-field.  Returns the StageOne whose _core_groups makes the values of
    one core; states is emptied as it is read, each state popped as it is
    packed.

    by_part files the states by their pending part above the 1-field,
    then by used, as sources (f_p, packed value), f_p the 1-field;
    pulls maps each packed core, in the order the cores are first
    reached, to a (part, ways, |nu|) for each part that reaches it, nu
    the move from that part to the core, read with its step and ways
    from choice_table(k, 2).

    Values are packed, widths[D] bytes per entry for the values of
    degree D (submodcount._pack, the format of the block walk's
    lattices), so a transition is one multiplication and one addition.
    Row m sums, over the (used, nu) it reads for one group, one state's
    value each, times C(m, c) * C(c, 2k) * ways.  Those weights count
    distinct permutations of m points (which m - used points move, and in
    which cycles of length 2, 4, 8, ...), at most m!/used! for each used,
    and used >= D, the degree.  So no entry of a sum, nor of a partial
    one, exceeds peak times the sum of top!/used! over used >= D, peak
    the largest entry of the state values of degree D; that sets
    widths[D]."""
    peaks = [0] * (top + 1)
    for value in states.values():
        peaks[_degree(value)] = max(peaks[_degree(value)], max(value))
    masses = accumulate((factorial(top) // factorial(used) for used in range(top, -1, -1)), add)
    widths = [_slot_bytes(mass * peak) for mass, peak in zip(reversed(list(masses)), peaks)]
    by_part: dict = {}  # pending without its 1-field -> {used: [(f_p, packed value)]}
    for used, pending in list(states):
        value = states.pop((used, pending))
        by_part.setdefault(pending - (pending & FIELD), {}).setdefault(used, []).append(
            (pending & FIELD, _pack(value, widths[_degree(value)])))
    # (packed nu, ways, |nu|), by size: nu of size 2k is a binary partition of k doubled
    moves = [(nu, ways, 2 * k) for k in range(top // 2 + 1) for nu, ways in choice_table(k, 2)]
    pulls: dict = {}  # packed core -> (part, ways, |nu|) for each part it pulls from
    for part, by_used in by_part.items():
        room = top - min(by_used)
        for nu, ways, size in moves:  # by size, ascending
            if size > room:
                break
            pulls.setdefault((part + nu) >> W, []).append((part, ways, size))
    return StageOne(top, widths, by_part, pulls)


def _core_groups(stage: StageOne, core: int) -> dict:
    """The u = 1 values of the packed core: groups[g] is {c: value} for
    the entries (c, f_p) with c - f_p = g, which row m reads at the same
    f = m - g; their degree is g - |core| (Fixed points).  The core pulls
    its transitions from the sources of the parts it contains.  A
    transition multiplies the state's value by C(c, 2k) times the ways of
    nu, as every stage does, so a value is the class size of the
    fixed-point-free partial type on c points times its block
    lattices."""
    groups: dict = {}
    for part, ways, size in stage.pulls[core]:
        for used, sources in stage.by_part[part].items():
            c = used + size
            if c > stage.top:
                continue
            weight = comb(c, size) * ways
            for f_p, value in sources:
                halves = groups.setdefault(c - f_p, {})
                halves[c] = halves.get(c, 0) + value * weight
    return groups


def _t1_sums(rows: list, stage: StageOne, cores):
    """Yield (m, lambda_1, V, lattice) for each row m of rows and each t+1
    type lambda_1 at m whose core is one of the packed cores, core by
    core: V is the weighted sum of the core's group g = m - f, mirrored
    from its lower half, and lattice the t+1 block lattice of lambda_1,
    from one fixed-point walk up to the largest f any row reads; each
    lattice's length is checked against V's degree before the pair is
    yielded."""
    for packed in cores:
        groups = _core_groups(stage, packed)
        reads: dict = {}  # f -> [(m, g)]
        for g, halves in groups.items():
            for m in rows[bisect_left(rows, min(halves)):]:
                reads.setdefault(m - g, []).append((m, g))
        core = parts(packed << W)
        for f, lattice in fixed_point_walk(core, sorted(reads), 1):
            lam_1 = core + (1,) * f
            for m, g in reads.pop(f):
                degree = g - sum(core)
                value = 0
                for c, half in groups[g].items():
                    if c <= m:
                        value += half * comb(m, c)
                if degree + len(lattice) - 1 != m:
                    raise ArithmeticError(
                        f"t+1 type {lam_1} at n={m}: dimension polynomial has length "
                        f"{degree + len(lattice)}, expected n + 1 = {m + 1}")
                yield m, lam_1, _mirror(_unpack(value, stage.widths[degree], degree // 2 + 1),
                                        degree), lattice


def _odd_stages(rows) -> tuple[list, StageOne]:
    """rows sorted without repeats, each checked, and the setup of the u = 1
    stage at their largest, after the fold of _stage over the odd u from
    the largest down to 3.  No rows raise ValueError."""
    rows = [_check_n(m) for m in sorted(set(rows))]
    if not rows:
        raise ValueError("census needs at least one n")
    top = rows[-1]
    states: dict = {(0, 0): [1]}
    for u in range(top - 1 + top % 2, 1, -2):
        states = _stage(top, u, states)
    return rows, _stage_one(top, states)


def _row_sums(rows: list, stage: StageOne, cores) -> dict:
    """{m: [lower half, dimension-m total, [(lambda_1, weight)]]} over the
    t+1 types of the given cores: each product V * lattice from _t1_sums
    is added straight into the lower half, entries 0..m // 2, of row m's
    per-dimension sum; the dimension-m total is the product of the top
    entries, and a type's weight sum(V) * sum(lattice), the sum of the
    product."""
    sums: dict = {}
    for m, lam_1, value, lattice in _t1_sums(rows, stage, cores):
        row = sums.setdefault(m, [[0] * (m // 2 + 1), 0, []])
        add_product(row[0], value, lattice)
        row[1] += value[-1] * lattice[-1]
        row[2].append((lam_1, sum(value) * sum(lattice)))
    return sums


# A forked worker costs its parent about 4 ms, and from a pass of top = 21
# the u = 1 cores it takes off save more (cold census passes on a 2-vCPU VM,
# Python 3.11; two processes break even at top = 20).  See _split.
SPLIT_TOP = 21


def _cpus() -> int:
    """The CPUs of this process's affinity set; 1 where the OS keeps none.
    A CPU quota (a cgroup's cpu.max) is not read."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _split(top: int) -> bool:
    """Whether census splits the u = 1 cores of a pass at top between
    itself and one forked worker (Workers), and census_rows_beside forks
    that pass beside its caller's work: from top = SPLIT_TOP, where
    the affinity set has two CPUs or more; never where os.fork does not
    exist, while another thread runs, since a fork copies only the calling
    thread, or while SIGCHLD is ignored, since the kernel then reaps the
    worker before os.waitpid can (a setting a process inherits across
    exec); signal is imported only past the cheaper checks.  A pass never
    splits its cores with more than one worker: only that split has been
    timed, and each worker adds its own copy of the by_part pages it
    reads."""
    import sys

    threading = sys.modules.get("threading")
    if not (top >= SPLIT_TOP and _cpus() >= 2 and hasattr(os, "fork")
            and (threading is None or threading.active_count() == 1)):
        return False
    import signal

    return signal.getsignal(signal.SIGCHLD) != signal.SIG_IGN


def _forked(here, there) -> list:
    """[here(), there()]: here in this process, there in a worker forked
    for it where it can.  One rule: the worker marshals there() to the
    write end of a pipe and exits 0, and whatever this process does not get
    as a complete blob from a worker that exited 0, it makes itself with
    there().  That covers a pipe or fork that fails (OSError: no process,
    file or memory left), a there() that raises in the worker or returns
    what marshal cannot send, and a worker that is interrupted, killed or
    out of memory: a failure of the worker alone costs time, not the
    result, and a failure that is in there() raises here, from this
    process's own run, with its own type and traceback.  The worker leaves
    only through os._exit, so no exit handler runs and no stdio buffer it
    shares with this process is flushed twice; it exits 1 unless it has
    sent its blob.  A worker stops one way: this process closes the read
    end, then reaps it, whether here() returned or raised.  The worker
    closes its own copy of the read end, so where this process has raised
    or died before it reads, the worker makes its share, its write finds
    no reader and fails, and it exits 1.  So an error here reaches the
    caller once the worker's share is made, as one in there() does, and a
    pass worker of census_rows_beside reaps its own core worker before it
    exits.  The close comes first: a worker whose blob outgrows the pipe
    blocks on its write until then.  Two callers: census splits the u = 1
    cores of a pass with it, and census_rows_beside makes a whole pass in
    the worker, which may split its own cores the same way (Workers)."""
    fds = ()
    try:
        read, write = fds = os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return [here(), there()]
    if pid == 0:
        try:
            os.close(read)
            with os.fdopen(write, "wb") as pipe:
                pipe.write(marshal.dumps(there()))
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write)
    try:
        with os.fdopen(read, "rb") as pipe:
            mine = here()
            blob = pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]  # after the close, which a blocked write waits for
    return [mine, marshal.loads(blob) if status == 0 else there()]


def census(rows) -> dict[int, CensusRow]:
    """The census rows m of rows, from one pass at max(rows): orbit count,
    total subspace count, per-dimension orbit counts and t+1 type weights.
    After _odd_stages, this process makes the _row_sums of the u = 1
    cores, or, where _split allows, of every other core while one forked
    worker makes those of the rest (or this process, where the worker does
    not deliver them), and the two shares are added (Workers).  Each row's
    lower half is then mirrored and its t+1 types sorted by lambda_1.  The
    dimension-0, dimension-1 and dimension-m totals of each row are
    checked, the last summed from the top entries of the products, then
    each per-dimension sum must divide exactly by m!; b is their total.
    Empty rows raise ValueError.  Uncached: count_codes and census_rows
    keep what it returns."""
    rows, stage = _odd_stages(rows)
    cores = list(stage.pulls)
    job = partial(_row_sums, rows, stage)
    shares = (_forked(partial(job, cores[::2]), partial(job, cores[1::2]))
              if _split(stage.top) else [job(cores)])
    sums: dict = {}
    for share in shares:
        for m, (half, top, weights) in share.items():
            have_half, have_top, have_weights = sums.get(m, ([0] * len(half), 0, []))
            sums[m] = list(map(add, have_half, half)), have_top + top, have_weights + weights
    made = {}
    for m in sorted(sums):
        half, top, weights = sums.pop(m)
        mfact = factorial(m)
        dim_sums = _mirror(half, m)
        checks = ((0, dim_sums[0], mfact, f"{m}!"), (1, dim_sums[1], m * mfact, f"{m} * {m}!"),
                  (m, top, mfact, f"{m}!"))
        for d, got, expected, name in checks:
            if got != expected:
                raise ArithmeticError(
                    f"dimension-{d} orbit sum is {got} at n={m}, expected {name}")
        by_dim = []
        for d, s in enumerate(dim_sums):
            bd, rem = divmod(s, mfact)
            if rem:
                raise ArithmeticError(
                    f"dimension-{d} orbit sum not divisible by {m}! at n={m}")
            by_dim.append(bd)
        made[m] = CensusRow(n=m, b=sum(by_dim), G=gauss_total(m, 2), by_dim=tuple(by_dim),
                            t1_weights=tuple(sorted(weights)))
    return made


_ROWS: dict[int, CensusRow] = {}  # the census cache: every row made in this process


def count_codes(n: int) -> CensusRow:
    """The census row at n, from the cache or from a pass with the single
    row n."""
    if n not in _ROWS:
        _ROWS.update(census((n,)))
    return _ROWS[n]


def census_rows(max_n: int) -> list[CensusRow]:
    """The census rows 1..max_n; those not in the cache come from one pass."""
    missing = [m for m in range(1, max_n + 1) if m not in _ROWS]
    if missing:
        _ROWS.update(census(missing))
    return [_ROWS[m] for m in range(1, max_n + 1)]


def census_rows_beside(max_n: int, work):
    """census_rows(max_n), run beside work(), whose result it returns.
    Where _split allows the pass for the rows not in the cache, a worker
    forked for it makes them while this process runs work; they come back
    as plain tuples, since marshal cannot send a CensusRow, and _forked's
    rule holds: rows the worker does not deliver are made here, after
    work.  Elsewhere the rows come first, then work runs."""
    missing = [m for m in range(1, max_n + 1) if m not in _ROWS]
    if not (missing and _split(missing[-1])):
        census_rows(max_n)
        return work()
    done, rows = _forked(work, lambda: [tuple(row) for row in census(missing).values()])
    _ROWS.update((row[0], CensusRow(*row)) for row in rows)
    return done


def count_codes_by_dim(n: int, d: int) -> int:
    """b(n, d): orbits of d-dimensional subspaces."""
    if not 0 <= d <= n:
        raise ValueError(f"d must be in [0, {n}], got {d}")
    return count_codes(n).by_dim[d]


def non_identity_sum(n: int) -> int:
    """Sum of invariant-subspace counts over all non-identity permutations:
    n! * b(n), the sum over all of them, less G(n, 2), the identity's
    count, both read off the census row of n."""
    row = count_codes(n)
    return factorial(n) * row.b - row.G


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
    import mpmath

    with mpmath.workdps(DEFAULT_PRECISION):
        rho = mpmath.mpf(excess) / mpmath.mpf(transposition_class_sum(n))
        e = mpmath.log(R, 2) + mpmath.mpf(n) / 2 - 2 * mpmath.log(n, 2)
        return {"n": n, "R": R, "rho": +rho, "e": +e}
