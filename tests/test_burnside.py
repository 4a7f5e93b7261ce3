import os
import re
import signal
import subprocess
import sys
from hashlib import sha256
from math import comb, factorial
from pathlib import Path

import pytest

from codecensus import burnside, submodcount
from codecensus.burnside import (
    SLOT,
    W,
    census,
    census_rows,
    correction_report,
    count_codes,
    count_codes_by_dim,
    non_identity_sum,
    parts,
    transposition_class_sum,
)
from codecensus.cyclestruct import (
    CycleType,
    class_size,
    cycle_types_of,
    cyclotomic_split,
    odd_divisors,
    primary_components,
)
from codecensus.qarith import gauss_total
from codecensus.submodcount import convolve, lattice_dim_poly


IDENTITY_T1_TYPE_N4 = (1, 1, 1, 1)  # only the identity has four odd cycles at n = 4


def sums_by_t1_type(rows):
    """(m, lambda_1, V, lattice) for each row m of rows and each t+1 type
    lambda_1 at m, from one whole pass at max(rows) in this process:
    V(t) * lattice(t) is the sum of class_size(ct) * lattice_dim_poly(ct)
    over the cycle types ct of S_m with t+1 type lambda_1."""
    rows, stage = burnside._odd_stages(rows)
    return burnside._t1_sums(rows, stage, stage.pulls)


def patch_identity_block(monkeypatch, change):
    """Make the DP's t+1 block lattice of the n = 4 identity wrong by
    change(poly); sums_by_t1_type is uncached, so nothing wrong is kept."""
    real = burnside.fixed_point_walk

    def patched(core, fs, d):
        for f, poly in real(core, fs, d):
            yield f, change(poly) if core + (1,) * f == IDENTITY_T1_TYPE_N4 else poly

    monkeypatch.setattr(burnside, "fixed_point_walk", patched)


def binary_partitions(s):
    """The binary partitions of s as nonincreasing tuples, built from the
    largest part down: the multiplicity of the largest power of two <= s
    ascending, and for each the binary partitions of the rest, recursively,
    with parts at most half as large."""
    def rec(s, cap):
        if cap == 1:
            return [(1,) * s]
        return [(cap,) * m + rest for m in range(s // cap + 1)
                for rest in rec(s - m * cap, cap >> 1)]
    return rec(s, 1 << max(s.bit_length() - 1, 0))


def slot(packed, e):
    """The packed type of order e in a packed state or step."""
    return (packed >> SLOT * (e // 2)) & ((1 << SLOT) - 1)


class TestCountCodes:
    def test_n1(self):
        assert count_codes(1).b == 2

    def test_n2_hand_sum(self):
        # identity fixes all 5 subspaces, the swap fixes 3
        assert count_codes(2).b == (5 + 3) // 2 == 4

    def test_n3_hand_sum(self):
        assert count_codes(3).b == (16 + 3 * 8 + 2 * 4) // 6 == 8

    def test_n4_hand_sum(self):
        assert count_codes(4).b == (67 + 6 * 27 + 3 * 15 + 8 * 10 + 6 * 5) // 24
        assert count_codes(4).b == 16

    def test_indivisible_dimension_sum_raises(self, monkeypatch):
        patch_identity_block(monkeypatch, lambda p: p[:2] + [p[2] + 1] + p[3:])
        with pytest.raises(ArithmeticError, match="dimension-2"):
            census((4,))

    @pytest.mark.parametrize("n", [30, 36, 40])
    def test_pinned_orbit_counts(self, n):
        # values of the cycle-type-by-cycle-type census this DP replaced
        assert count_codes(n).b == {
            30: 1546979006722411921344403588696175713,
            36: 681161082738485250747475804007378928590435416185835812333,
            40: 23372463796163078495688581903892070493912802072318020214239665562069548984,
        }[n]

    def test_pinned_row_n50(self):
        # b(50) and the sha256 of "b(50,0),b(50,1),...,b(50,50)" from the
        # census before its t+1 lattices came from the fixed-point walk
        row = count_codes(50)
        assert row.b == int(
            "3375153945843959956071897824957099413818487682380205331182407492"
            "1401332295891907718487050309429646518361307552161135342173361")
        assert sha256(",".join(map(str, row.by_dim)).encode()).hexdigest() == \
            "87094ea065b353646644ab1a050471a278e03c490cd1aac04123c1559bb4cf30"

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            count_codes(0)

    def test_row_record(self):
        row = count_codes(5)
        assert repr(row) == f"CensusRow(n=5, b={row.b}, G={row.G}, by_dim={row.by_dim})"
        assert "t1_weights" not in repr(row)
        with pytest.raises(AttributeError):
            row.b = 0
        with pytest.raises(AttributeError):
            row.extra = 1
        assert hash(row) == hash(census((5,))[5])

    def test_rejects_n_past_the_packed_fields(self):
        # a multiplicity of n needs 16 bits; refused before any stage runs
        for run in (lambda n: census((n,)), lambda n: next(sums_by_t1_type((n,)))):
            with pytest.raises(ValueError, match="n must be below 2\\^16 = 65536, got 65536"):
                run(1 << 16)
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            next(sums_by_t1_type((0,)))

    def test_rejects_empty_rows(self):
        with pytest.raises(ValueError, match="^census needs at least one n$"):
            census(())

    @pytest.mark.parametrize("n", range(1, 21))
    def test_row_invariants(self, n):
        row = count_codes(n)
        assert sum(row.by_dim) == row.b
        assert row.by_dim == row.by_dim[::-1]  # duality X -> X_perp
        assert row.by_dim[0] == row.by_dim[n] == 1
        assert factorial(n) * row.b >= row.G  # orbit-count floor


class TestRetention:
    def test_census_keeps_no_polynomial(self):
        # the block-lattice memo is cleared, so what is left is the
        # count_codes row and anything else kept
        script = (
            "import gc, tracemalloc\n"
            "from codecensus import burnside, submodcount\n"
            "tracemalloc.start()\n"
            "burnside.count_codes(40)\n"
            "submodcount.component_lattice.cache_clear()\n"
            "gc.collect()\n"
            "print(tracemalloc.get_traced_memory()[0])\n"
        )
        src = Path(burnside.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 2 * 2**20


class TestOddPartDP:
    @pytest.mark.parametrize("n", range(1, 25))
    def test_matches_per_type_sums_grouped_by_t1_type(self, n):
        expected = {}
        for ct in cycle_types_of(n):
            lam_1 = primary_components(ct)[0].module_type
            weight = class_size(ct)
            poly = [weight * c for c in lattice_dim_poly(ct)]
            if lam_1 in expected:
                poly = [a + b for a, b in zip(expected[lam_1], poly)]
            expected[lam_1] = poly
        # each type's full polynomial, from the factors the pass yields
        assert {lam_1: tuple(convolve(value, lattice))
                for _, lam_1, value, lattice in sums_by_t1_type((n,))} == \
            {k: tuple(v) for k, v in expected.items()}
        assert dict(count_codes(n).t1_weights) == {k: sum(v) for k, v in expected.items()}

    def test_binary_partitions_follow_the_recurrence(self):
        counts = [len(burnside._weighted_binary_partitions(s, 1)) for s in range(2 * 64 + 2)]
        assert counts[:2] == [1, 1]
        for m in range(1, 65):
            assert counts[2 * m + 1] == counts[2 * m]
            assert counts[2 * m] == counts[2 * m - 1] + counts[m]

    def test_binary_partitions_are_distinct_two_power_multisets(self):
        for s in range(41):
            mus = [parts(mu) for mu, _ in burnside._weighted_binary_partitions(s, 1)]
            assert len(set(mus)) == len(mus)
            for mu in mus:
                assert sum(mu) == s and list(mu) == sorted(mu, reverse=True)
                assert all(p & (p - 1) == 0 for p in mu)

    # every class of S_4 is weighed 25 times over: 5 times through its
    # stage-3 choice (the empty one or the 3-cycle) and 5 times through its
    # u = 1 move nu (the empty one included), both read from the choice
    # tables: the dimension-0 total is 25 * 4!
    WRONG_WAYS_MESSAGE = "dimension-0 orbit sum is 600 at n=4, expected 4!"

    def test_wrong_ways_fail_the_dimension_zero_total(self, monkeypatch):
        real = burnside.choice_table

        def times_five(s, u):  # every stage-u weight times 5
            return tuple((step, 5 * ways) for step, ways in real(s, u))

        monkeypatch.setattr(burnside, "choice_table", times_five)
        with pytest.raises(ArithmeticError) as exc:
            census((4,))
        assert str(exc.value) == self.WRONG_WAYS_MESSAGE

    def test_wrong_ways_fail_the_dimension_zero_total_under_optimize(self):
        script = (
            "from codecensus import burnside\n"
            "real = burnside.choice_table\n"
            "burnside.choice_table = lambda s, u: tuple((step, 5 * ways) for step, ways in real(s, u))\n"
            "try:\n"
            "    burnside.census((4,))\n"
            "except ArithmeticError as exc:\n"
            "    print(exc)\n"
        )
        src = Path(burnside.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == self.WRONG_WAYS_MESSAGE + "\n"

    def test_z_that_does_not_divide_raises_when_a_table_is_built(self, monkeypatch):
        # the cycles 3, 3 given the z-product 7 in place of 18: 7 does not
        # divide 6!; the u = 1 stage reads its moves from the same tables,
        # so with the cached tables cleared it builds them the same way
        monkeypatch.setattr(burnside, "_weighted_binary_partitions", lambda s, u: [(2, 7)])
        with pytest.raises(ArithmeticError, match=r"^z-product 7 does not divide 6!$"):
            burnside.choice_table.__wrapped__(2, 3)  # uncached, so nothing wrong is kept
        burnside.choice_table.cache_clear()
        with pytest.raises(ArithmeticError, match=r"^z-product 7 does not divide 0!$"):
            burnside._stage_one(4, {(0, 0): [1]})

    @pytest.mark.parametrize("u", [1, 3, 5, 7, 9, 15, 21])
    def test_choice_table_matches_z_product(self, u):
        # ways is the class size of the cycles p * u on s * u points
        for s in range(65):
            pairs = burnside.choice_table(s, u)
            mus = [parts(slot(step, 1)) for step, _ in pairs]
            assert mus == binary_partitions(s)
            assert [ways for _, ways in pairs] == \
                [class_size(CycleType(tuple(p * u for p in mu))) if mu else 1 for mu in mus]

    def test_nu_moves_are_the_stage_one_choices_doubled(self):
        # choice_table(k, 2) is the u = 1 stage's nu moves of size 2k: the
        # binary partitions mu of k as cycles 2p, each step mu shifted up
        # one field in the slot of order 1, each ways their class size
        for k in range(33):
            pairs = burnside.choice_table(k, 2)
            assert [step for step, _ in pairs] == \
                [step << W for step, _ in burnside.choice_table(k, 1)]
            assert [ways for _, ways in pairs] == \
                [class_size(CycleType(tuple(2 * p for p in parts(step >> W)))) if k else 1
                 for step, _ in pairs]

    @pytest.mark.parametrize("u", [1, 3, 5, 7, 9, 15, 21])
    def test_step_fills_the_slots_of_the_divisors_of_u(self, u):
        # every odd divisor of u gets mu, and no other order is touched
        for s in range(65):
            for step, _ in burnside.choice_table(s, u):
                mu = slot(step, 1)
                assert step == sum(mu << SLOT * (e // 2) for e in odd_divisors(u))
                assert [e for e in range(1, u + 1, 2) if slot(step, e)] == \
                    (odd_divisors(u) if s else [])

    @pytest.mark.parametrize("n", range(1, 17))
    def test_carried_degree_matches_the_open_types(self, n):
        # the degree is carried by no key but derived: after every odd
        # stage, as sums_by_t1_type folds them, each state's D from its
        # lower half (_degree) is the size used less phi(e) * |lambda_e|
        # over the orders e still open, decoded from its packed key; in
        # the u = 1 groups, c points are used, lambda_1 is the core and f_p
        # 1-parts, the group's g - |core| is that same D, and each entry
        # unpacks into the D // 2 + 1 entries of a half, the first (the
        # weighted count of dimension 0) positive
        def open_degree(used, pending, open_orders):
            for e in range(1, n + 1, 2):
                if e not in open_orders:
                    assert not slot(pending, e)
            return used - sum(count * deg * sum(parts(slot(pending, e)))
                              for e in open_orders
                              for count, deg in [cyclotomic_split(e)])

        states = {(0, 0): [1]}
        for u in range(n - 1 + n % 2, 1, -2):
            states = burnside._stage(n, u, states)
            for (used, pending), half in states.items():
                assert burnside._degree(half) == open_degree(used, pending, range(1, u, 2))
        stage = burnside._stage_one(n, states)
        widths = stage.widths
        for packed in stage.pulls:
            core = parts(packed << W)
            for g, halves in burnside._core_groups(stage, packed).items():
                degree = g - sum(core)
                for c, value in halves.items():
                    assert c <= n
                    assert degree == open_degree(c, (packed << W) + c - g, [1])
                    assert submodcount._unpack(value, widths[degree], degree // 2 + 1)[0] > 0

    def test_t1_type_order_n30(self):
        # sha256 of the lambda_1 sequence, "1,1;1,1,1,1;...", as the
        # census yielded it before its stages read the choice tables;
        # CensusRow equality compares t1_weights, kept in this order
        keys = [lam_1 for lam_1, _ in census((30,))[30].t1_weights]
        assert len(keys) == 730
        assert sha256(";".join(",".join(map(str, k)) for k in keys).encode()).hexdigest() == \
            "61108c5df5ce1e1c8836684c2fc8a32c84febc69a65b8bc96403055584418bf2"

    @pytest.mark.parametrize("d", [0, 4])
    def test_wrong_end_total_raises(self, monkeypatch, d):
        def bump(poly):
            poly = list(poly)
            poly[d] += 1
            return poly

        patch_identity_block(monkeypatch, bump)
        with pytest.raises(ArithmeticError, match=f"dimension-{d} orbit sum is 25"):
            census((4,))

    def test_wrong_dimension_one_total_raises(self, monkeypatch):
        # every permutation fixes 2^c - 1 nonzero vectors, c its cycle
        # count, so the dimension-1 total is (n + 1)! - n! = n * n!
        def bump(poly):
            poly = list(poly)
            poly[1] += 1
            return poly

        patch_identity_block(monkeypatch, bump)
        with pytest.raises(ArithmeticError, match="dimension-1 orbit sum is 97"):
            census((4,))

    def test_wrong_length_raises(self, monkeypatch):
        patch_identity_block(monkeypatch, lambda p: p[:-1])
        with pytest.raises(ArithmeticError, match="length 4"):
            list(sums_by_t1_type((4,)))


class TestOnePass:
    """One pass at N gives every row m <= N: entry (core, c, f_p) is read at
    f = f_p + m - c with weight C(m, c)."""

    @pytest.mark.parametrize("top", [12, 30, 40])
    def test_rows_match_single_row_passes(self, top):
        rows = census(range(1, top + 1))
        assert sorted(rows) == list(range(1, top + 1))
        for m, row in rows.items():
            assert row == census((m,))[m], m  # t1_weights order included
            keys = [lam_1 for lam_1, _ in row.t1_weights]
            assert all(a < b for a, b in zip(keys, keys[1:])), m

    def test_rows_1_to_40_pinned(self):
        # sha256 of repr([(n, b, by_dim, t1_weights) for rows 1..40]) from
        # one pass of the census whose odd stages divided N! by each z-product
        rows = census(range(1, 41))
        blob = repr([(r.n, r.b, r.by_dim, r.t1_weights) for r in rows.values()]).encode()
        assert list(rows) == list(range(1, 41))
        assert sha256(blob).hexdigest() == \
            "ea48d720419a7f67c1eaf72fd43e05d06f2ffb300d929de70f04c6c9c5626a6b"

    def test_t1_type_order_n30_from_a_pass_at_40(self):
        # the pin of test_t1_type_order_n30, on row 30 of the pass at N = 40
        keys = [lam_1 for lam_1, _ in census(range(1, 41))[30].t1_weights]
        assert len(keys) == 730
        assert sha256(";".join(",".join(map(str, k)) for k in keys).encode()).hexdigest() == \
            "61108c5df5ce1e1c8836684c2fc8a32c84febc69a65b8bc96403055584418bf2"

    def test_patched_block_fails_the_table_pass_naming_the_row(self, monkeypatch):
        # the n = 4 identity's t+1 type 1,1,1,1 is also the t+1 type of
        # 3,1,1,1 at n = 6 and 3,3,1,1 at n = 8, read from the same walk
        def bump(poly):
            poly = list(poly)
            poly[0] += 1
            return poly

        patch_identity_block(monkeypatch, bump)
        monkeypatch.setattr(burnside, "_ROWS", {})
        with pytest.raises(ArithmeticError, match="dimension-0 orbit sum is 25 at n=4, expected 4!"):
            census_rows(8)
        assert burnside._ROWS == {}

    def test_packed_values_round_trip_and_overflow_raises(self):
        entries = [0, 1, 255, 256, (1 << 40) - 1]
        packed = submodcount._pack(entries, 5)
        assert submodcount._unpack(packed, 5, 5) == entries
        with pytest.raises(ArithmeticError, match="does not fit 5 entries of 5 bytes"):
            submodcount._unpack(packed << 1, 5, 5)

    # every word width (1, 2, 4, 8 bytes: the array path) and its neighbours
    # (the slice path), at the smallest and the largest entry of the width
    @pytest.mark.parametrize("nbytes", range(1, 18))
    def test_packed_values_round_trip_and_overflow_raise_at_each_width(self, nbytes):
        top = (1 << 8 * nbytes) - 1
        entries = [0, top, 0, 1, top]
        packed = submodcount._pack(entries, nbytes)
        assert packed == sum(x << 8 * nbytes * i for i, x in enumerate(entries))
        assert submodcount._unpack(packed, nbytes, 5) == entries
        assert submodcount._unpack(packed, nbytes, 6) == [*entries, 0]
        with pytest.raises(ArithmeticError, match=f"does not fit 5 entries of {nbytes} bytes"):
            submodcount._unpack(packed << 1, nbytes, 5)
        with pytest.raises(OverflowError):
            submodcount._pack([0, top + 1], nbytes)

    # whole bytes of the bound -> bytes per slot
    @pytest.mark.parametrize("nbytes,slot", [(1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (8, 8),
                                             (9, 9), (17, 17)])
    def test_slot_bytes_rounds_up_to_word_widths(self, nbytes, slot):
        smallest, largest = 1 << 8 * nbytes - 8, (1 << 8 * nbytes) - 1
        assert submodcount._slot_bytes(smallest) == submodcount._slot_bytes(largest) == slot
        assert submodcount._slot_bytes(0) == 1

    def test_count_codes_is_the_single_row_pass(self, monkeypatch):
        calls = []
        real = burnside.census

        def counted(rows):
            calls.append(tuple(rows))
            return real(rows)

        monkeypatch.setattr(burnside, "census", counted)
        monkeypatch.setattr(burnside, "_ROWS", {})
        assert count_codes(9) == real((9,))[9]
        assert count_codes(9) is count_codes(9)
        assert census_rows(9)[8] is count_codes(9)
        assert calls == [(9,), tuple(range(1, 9))]


# a lattice one entry short fails the length check of the single-row pass
# at 30 in the process that walks it: the lattice should have 31 entries
SHORT_LATTICE_AT_30 = r"^t\+1 type \(.*\) at n=30: dimension polynomial has length 30, " \
    r"expected n \+ 1 = 31$"


class TestWorkers:
    """census makes the u = 1 cores in one process or splits them with one
    worker forked after the odd stages, and adds their row sums; the split
    follows the CPU count, set here by patching burnside._cpus."""

    @staticmethod
    def with_cpus(monkeypatch, cpus):
        """Set the CPU count to cpus and return the list that records the
        number of processes of each census pass."""
        splits = []
        real = burnside._split

        def counted(top):
            split = real(top)
            splits.append(2 if split else 1)
            return split

        monkeypatch.setattr(burnside, "_cpus", lambda: cpus)
        monkeypatch.setattr(burnside, "_split", counted)
        return splits

    @pytest.mark.parametrize("rows", [range(1, 41), (36,), (45,)], ids=["1-40", "36", "45"])
    def test_rows_equal_at_each_worker_count(self, monkeypatch, rows):
        made = {}
        for cpus in (1, 2):
            splits = self.with_cpus(monkeypatch, cpus)
            made[cpus] = census(rows)
            assert splits == [cpus]
        assert list(made[2]) == list(made[1])
        for m, row in made[2].items():
            assert row == made[1][m], m  # t1_weights order included

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_rows_1_to_40_pinned_at_each_worker_count(self, monkeypatch, cpus):
        splits = self.with_cpus(monkeypatch, cpus)
        TestOnePass().test_rows_1_to_40_pinned()
        assert splits == [cpus]

    @pytest.mark.parametrize("top,cpus,k", [(20, 2, 1), (21, 2, 2), (20, 64, 1), (22, 64, 2),
                                            (36, 64, 2), (36, 2, 2), (36, 1, 1), (60, 64, 2)])
    def test_two_processes_once_the_fork_pays(self, monkeypatch, top, cpus, k):
        # a pass at top splits from SPLIT_TOP = 21 on, where two CPUs or more
        splits = self.with_cpus(monkeypatch, cpus)
        assert burnside._split(top) is (k == 2)
        assert splits == [k]

    def test_one_process_while_a_thread_runs(self, monkeypatch):
        import threading

        monkeypatch.setattr(burnside, "_cpus", lambda: 2)
        assert burnside._split(36)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            assert not burnside._split(36)
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert burnside._split(36)

    @staticmethod
    def worker_shares(rows):
        """The u = 1 cores of a pass at rows, as census deals them: this
        process's share and the worker's."""
        cores = list(burnside._odd_stages(rows)[1].pulls)
        return cores[::2], cores[1::2]

    @staticmethod
    def run_script(script, *flags):
        """Run script in a fresh interpreter with the package on its path;
        return its stdout."""
        src = Path(burnside.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, *flags, "-c", script],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    @pytest.mark.parametrize("fail", ["raises", "raises-unpicklable", "exits-3", "sigkill"])
    def test_worker_that_fails_leaves_its_share_here(self, monkeypatch, open_fds, fail):
        serial = census((30,))
        pid, real = os.getpid(), burnside._core_groups

        def fail_in_a_worker(stage, core):
            if os.getpid() != pid:
                if fail == "raises":
                    raise KeyError(core)
                if fail == "raises-unpicklable":
                    raise ValueError(lambda: core)  # a lambda does not pickle
                if fail == "exits-3":
                    os._exit(3)
                os.kill(os.getpid(), signal.SIGKILL)
            return real(stage, core)

        fds = open_fds()
        splits = self.with_cpus(monkeypatch, 2)
        monkeypatch.setattr(burnside, "_core_groups", fail_in_a_worker)
        rows = census((30,))
        assert splits == [2]
        assert rows == serial and rows[30].t1_weights == serial[30].t1_weights
        assert open_fds() == fds  # no end of a pipe left open

    @pytest.mark.parametrize("worker", ["delivers", "fails"])
    def test_each_core_is_made_here_once_or_as_the_worker_share(self, monkeypatch, worker):
        # this process makes its own share, and the worker's only where the
        # worker does not deliver it
        mine, theirs = self.worker_shares((30,))
        pid, real = os.getpid(), burnside._core_groups
        made = []

        def counted(stage, core):
            if os.getpid() == pid:
                made.append(core)
            elif worker == "fails":
                os._exit(3)
            return real(stage, core)

        monkeypatch.setattr(burnside, "_core_groups", counted)
        monkeypatch.setattr(burnside, "_cpus", lambda: 2)
        census((30,))
        assert made == (mine + theirs if worker == "fails" else mine)

    def test_check_failing_in_the_worker_share_raises_here(self, monkeypatch, open_fds):
        # short in every process, so the worker fails, and this process's
        # run of the worker's share raises the check's own error
        _, theirs = self.worker_shares((30,))
        short_core, real = burnside.parts(theirs[0] << W), burnside.fixed_point_walk
        pid, walked_here = os.getpid(), []

        def short_on_one_core(core, fs, d):
            if core == short_core and os.getpid() == pid:
                walked_here.append(core)
            for f, lattice in real(core, fs, d):
                yield f, lattice[:-1] if core == short_core else lattice

        monkeypatch.setattr(burnside, "fixed_point_walk", short_on_one_core)
        monkeypatch.setattr(burnside, "_cpus", lambda: 2)
        fds = open_fds()
        with pytest.raises(ArithmeticError, match=SHORT_LATTICE_AT_30) as exc:
            census((30,))
        assert type(exc.value) is ArithmeticError
        assert walked_here == [short_core]  # once, in this process's run of the worker's share
        assert open_fds() == fds

    def test_check_failing_in_the_worker_share_under_optimize(self):
        script = (
            "from codecensus import burnside\n"
            "cores = list(burnside._odd_stages((30,))[1].pulls)\n"
            "short_core = burnside.parts(cores[1] << burnside.W)\n"
            "real = burnside.fixed_point_walk\n"
            "def short_on_one_core(core, fs, d):\n"
            "    for f, lattice in real(core, fs, d):\n"
            "        yield f, lattice[:-1] if core == short_core else lattice\n"
            "burnside.fixed_point_walk = short_on_one_core\n"
            "burnside._cpus = lambda: 2\n"
            "try:\n"
            "    burnside.census((30,))\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__)\n"
            "    print(exc)\n"
        )
        name, message = self.run_script(script, "-O").splitlines()
        assert name == "ArithmeticError"
        assert re.match(SHORT_LATTICE_AT_30, message)

    def test_split_pass_that_raises_nothing_leaves_pickle_unloaded(self):
        # neither a pass whose worker delivers nor one whose worker raises
        script = (
            "import os, sys\n"
            "from codecensus import burnside\n"
            "burnside._cpus = lambda: 2\n"
            "assert burnside._split(30)\n"
            "serial = burnside.census((30,))\n"
            "print('pickle' in sys.modules)\n"
            "pid, real = os.getpid(), burnside._core_groups\n"
            "def raise_in_a_worker(stage, core):\n"
            "    if os.getpid() != pid:\n"
            "        raise KeyError(core)\n"
            "    return real(stage, core)\n"
            "burnside._core_groups = raise_in_a_worker\n"
            "print(burnside.census((30,)) == serial)\n"
            "print('pickle' in sys.modules)\n"
        )
        assert self.run_script(script, "-S") == "False\nTrue\nFalse\n"

    def test_one_process_while_sigchld_is_ignored(self, monkeypatch):
        # the kernel would reap the worker before census could
        serial = census((30,))
        splits = self.with_cpus(monkeypatch, 2)
        before = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            rows = census((30,))
        finally:
            signal.signal(signal.SIGCHLD, before)
        assert splits == [1]
        assert rows == serial and rows[30].t1_weights == serial[30].t1_weights
        assert burnside._split(30)

    def test_check_failing_in_this_process_reaps_the_workers(self, monkeypatch, open_fds):
        # the worker is still running when this process's share fails
        pid, real = os.getpid(), burnside.fixed_point_walk

        def short_here(core, fs, d):
            for f, lattice in real(core, fs, d):
                yield f, lattice[:-1] if os.getpid() == pid else lattice

        monkeypatch.setattr(burnside, "fixed_point_walk", short_here)
        monkeypatch.setattr(burnside, "_cpus", lambda: 2)
        fds = open_fds()
        with pytest.raises(ArithmeticError, match=SHORT_LATTICE_AT_30):
            census((30,))
        assert open_fds() == fds  # the worker's read end is closed

    @pytest.mark.parametrize("call", ["pipe", "fork"])
    def test_worker_that_cannot_start_leaves_its_share_here(self, monkeypatch, open_fds, call):
        serial = census((30,))
        fds = open_fds()

        def fails(*args):
            raise OSError(11, "Resource temporarily unavailable")

        splits = self.with_cpus(monkeypatch, 2)
        monkeypatch.setattr(os, call, fails)
        rows = census((30,))
        assert splits == [2]
        assert rows == serial and rows[30].t1_weights == serial[30].t1_weights
        assert open_fds() == fds  # no end of a pipe left open


class TestByDim:
    def test_dimension_zero(self):
        for n in (1, 4, 9):
            assert count_codes_by_dim(n, 0) == 1

    def test_n2_lines(self):
        assert count_codes_by_dim(2, 1) == 2

    def test_range_check(self):
        with pytest.raises(ValueError):
            count_codes_by_dim(4, 5)
        with pytest.raises(ValueError):
            count_codes_by_dim(4, -1)


class TestLowerBound:
    @pytest.mark.parametrize("n", range(2, 21))
    def test_transposition_floor(self, n):
        assert non_identity_sum(n) >= comb(n, 2) * gauss_total(n - 1, 2)

    def test_n3_hand_value(self):
        assert non_identity_sum(3) == 3 * 8 + 2 * 4 == 32


class TestCorrectionReport:
    def test_rho_above_one(self):
        for n in (4, 8, 12):
            assert correction_report(n)["rho"] > 1

    def test_rho_decays(self):
        # desk-scale check (the subdominant classes only start losing to the
        # transposition class around n=10); acceptance sweeps 20/30/40
        gaps = [abs(correction_report(n)["rho"] - 1) for n in (12, 16, 20)]
        assert gaps == sorted(gaps, reverse=True)

    def test_transposition_class_sum_matches_identity(self):
        for n in (5, 9):
            expected = comb(n, 2) * (
                2 * gauss_total(n - 1, 2) - gauss_total(n - 2, 2)
            )
            assert transposition_class_sum(n) == expected

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            correction_report(3)
