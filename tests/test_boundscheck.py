import json
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction
from hashlib import sha256
from math import log2
from pathlib import Path

import pytest

from codecensus import boundscheck, burnside
from codecensus.boundscheck import (
    FAIL,
    PASS,
    REPORT,
    CheckResult,
    check_dimension_bounds,
    check_lemma1,
    check_lemma2_3,
    check_lower_bound_4,
    classify_D,
    d_ranges,
    run_suite,
    theorem_constants_report,
)
from codecensus.burnside import count_codes
from codecensus.cli import main
from codecensus.cyclestruct import class_size, cycle_types_of, primary_components
from codecensus.qarith import gauss_total
from codecensus.submodcount import component_total, lattice_size


# sha256 of the stdout of verify --suite all --max-n 30 --json, pinned with
# the CLI's other digests in test_cli
VERIFY_ALL_30 = "904e1d9b35e8e72aeef567547ba673746522e52adb8dace417e72c21ec9c0331"


def float_d_ranges(n, n1, r):
    """The D1..D4 ranges as first written, with floating-point log2."""
    in_d1 = n1 <= n - 6 * log2(n)
    in_d2 = not in_d1 and 1 <= r <= 8 * log2(n1)
    in_d3 = not in_d1 and 8 * log2(n1) < r < n1 - 8 * log2(n1)
    in_d4 = not in_d1 and n1 - 8 * log2(n1) <= r <= n - 1
    return in_d1, in_d2, in_d3, in_d4


def per_type_classify(n):
    """classify_D's sums and D2/D4 overlap, one cycle type at a time."""
    sums = {k: 0 for k in ("D1", "D2", "D3", "D4")}
    overlap = 0
    for ct in cycle_types_of(n):
        if ct.r == n:
            continue
        n1 = primary_components(ct)[0].dim
        weight = class_size(ct) * lattice_size(ct)
        in_d = float_d_ranges(n, n1, ct.r)
        first = in_d.index(True)
        sums[f"D{first + 1}"] += weight
        if first == 1 and in_d[3]:
            overlap += weight
    return sums, overlap


class TestLemma1:
    def test_sweep_passes(self):
        result = check_lemma1(210)
        assert result.status == PASS
        assert abs(float(result.witnesses["max_u"]) - 7.3720) < 1e-3
        assert "u_200" in result.witnesses

    def test_rejects_small_range(self):
        with pytest.raises(ValueError):
            check_lemma1(5)

    def test_failing_tail_product_exits_1(self, capsys, monkeypatch):
        # the failing result carries a counterexample and no witnesses
        monkeypatch.setattr(boundscheck, "lemma1_tail_product", lambda terms: 23)
        result = check_lemma1(10)
        assert result.status == FAIL and result.witnesses == {}
        assert main(["verify", "--suite", "lemma1", "--max-n", "10", "--json"]) == 1
        assert '"tail_product": "23"' in capsys.readouterr().out

    # G(10, 2) replaced at the exact ends of 2^25 <= G <= 23 * 2^25: the
    # bit length decides 2^25 alone; the exact 4th power decides the rest
    EDGES = [(2 ** 25 - 1, "lower"), (2 ** 25, None), (23 * 2 ** 25, None),
             (23 * 2 ** 25 + 1, "upper")]

    @pytest.mark.parametrize("value, side", EDGES)
    def test_sandwich_edges(self, capsys, monkeypatch, value, side):
        real = boundscheck._gauss_totals
        monkeypatch.setattr(boundscheck, "_gauss_totals", lambda q: (
            value if n == 10 else g for n, g in enumerate(real(q))))
        result = check_lemma1(12)
        code = main(["verify", "--suite", "lemma1", "--max-n", "12", "--json"])
        rec = json.loads(capsys.readouterr().out)["results"][0]
        if side is None:
            assert result.status == PASS and code == 0
            assert rec["status"] == "pass" and rec["counterexample"] is None
        else:
            assert result.status == FAIL and result.counterexample == {"n": 10, "side": side}
            assert code == 1
            assert rec["counterexample"] == {"n": "10", "side": side}

    @pytest.mark.parametrize("value, side", EDGES)
    def test_sandwich_edges_without_asserts(self, value, side):
        script = (
            "from codecensus import boundscheck as b\n"
            "from codecensus.cli import main\n"
            "real = b._gauss_totals\n"
            f"b._gauss_totals = lambda q: ({value} if n == 10 else g"
            " for n, g in enumerate(real(q)))\n"
            "raise SystemExit(main(['verify', '--suite', 'lemma1', '--max-n', '12', '--json']))\n"
        )
        src = Path(boundscheck.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, env=env, timeout=60)
        rec = json.loads(proc.stdout)["results"][0]
        if side is None:
            assert proc.returncode == 0 and rec["status"] == "pass"
        else:
            assert proc.returncode == 1
            assert rec["counterexample"] == {"n": "10", "side": side}


class TestCheckResult:
    def test_defaults(self):
        rec = CheckResult("x", (1, 1), FAIL, counterexample={"n": 3}).to_json_dict()
        assert rec == {"name": "x", "n_range": [1, 1], "status": FAIL,
                       "witnesses": {}, "counterexample": {"n": "3"}}
        assert CheckResult("x", (1, 1), PASS).counterexample is None

    def test_witnesses_not_shared(self):
        a, b = CheckResult("x", (1, 1), PASS), CheckResult("y", (1, 1), PASS)
        a.witnesses["k"] = 1
        assert b.witnesses == {} and a.witnesses is not b.witnesses

    def test_immutable(self):
        with pytest.raises(AttributeError):
            CheckResult("x", (1, 1), PASS).status = FAIL


class TestLemma23:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_small_n_pass(self, n):
        assert check_lemma2_3(n).status == PASS

    def test_worked_example_n6(self):
        # type (3,2,1): t+1 block has type (2,1,1); its 27 submodules sit
        # under the product bound G(3,2)*G(1,2) = 16*2 = 32 (27 confirmed by
        # brute-force enumeration, see test_submodcount)
        assert component_total((2, 1, 1), 1) == 27
        assert gauss_total(3, 2) * gauss_total(1, 2) == 32
        assert check_lemma2_3(6).status == PASS

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            check_lemma2_3(13)


class TestLowerBound4:
    def test_n2(self):
        r = check_lower_bound_4(2)
        assert r.status == PASS
        assert r.witnesses["sum"] == 3 and r.witnesses["floor"] == 2

    def test_n3_hand_values(self):
        r = check_lower_bound_4(3)
        assert r.witnesses["sum"] == 32 and r.witnesses["floor"] == 15

    @pytest.mark.parametrize("n", range(2, 16))
    def test_sweep(self, n):
        assert check_lower_bound_4(n).status == PASS

    def test_range(self):
        with pytest.raises(ValueError):
            check_lower_bound_4(21)


class TestClassifyD:
    def test_n4_d1_empty(self):
        r = classify_D(4)
        assert r.status == REPORT
        assert r.witnesses["sums"]["D1"] == 0

    @pytest.mark.parametrize("n", range(2, 13))
    def test_partition_covers(self, n):
        r = classify_D(n)
        assert r.status == REPORT
        total = sum(r.witnesses["sums"].values())
        from codecensus.burnside import non_identity_sum

        assert total == non_identity_sum(n)

    @pytest.mark.parametrize("n", range(2, 21))
    def test_matches_per_type_classification(self, n):
        sums, overlap = per_type_classify(n)
        r = classify_D(n)
        assert r.witnesses["sums"] == sums
        assert r.witnesses["d2_d4_overlap_weight"] == overlap

    def test_exact_ranges_match_float_ranges(self):
        for n in range(1, 61):
            for n1 in range(1, n + 1):
                for r in range(1, n1 + 1):
                    assert d_ranges(n, n1, r) == float_d_ranges(n, n1, r), (n, n1, r)

    def test_reads_the_census_row_without_rerunning_the_dp(self, capsys, monkeypatch):
        n = 12
        for m in range(1, n + 1):
            count_codes(m)
        before = classify_D(n)
        assert main(["verify", "--suite", "dclass", "--max-n", str(n)]) == 0
        out = capsys.readouterr().out

        def rerun(rows):
            raise AssertionError("the orbit-sum DP ran again")

        monkeypatch.setattr(burnside, "census", rerun)
        monkeypatch.setattr(boundscheck, "census", rerun, raising=False)
        assert classify_D(n) == before
        assert main(["verify", "--suite", "dclass", "--max-n", str(n)]) == 0
        assert capsys.readouterr().out == out

    def test_shares_sum_to_one(self):
        shares = classify_D(12).witnesses["shares"]
        assert abs(sum(shares.values()) - 1) < 1e-12

    def test_shares_are_the_float_quotients(self):
        # the shares of the pinned verify output, as float(v) / total made them
        for n in range(2, 41):
            sums = classify_D(n).witnesses["sums"]
            total = sum(sums.values())
            assert classify_D(n).witnesses["shares"] == \
                {k: float(v) / total for k, v in sums.items()}

    def test_shares_of_weights_past_the_float_range(self, monkeypatch):
        # class weights near 2^2000, as a census near n = 70 gives, where
        # float(weight) overflows; one t+1 type in each of D1, D2 and D4
        weights = (((1,) * 70, 1 << 2100),                        # identity, skipped
                   ((1,) * 10, 3 << 2000),                        # D1: n1 = 10
                   ((32, 16, 8, 4), 5 << 1999),                   # D2: n1 = 60, r = 4
                   ((2,) * 6 + (1,) * 54, (7 << 1998) + 1))       # D4: n1 = 66, r = 60
        row = burnside.CensusRow(n=70, b=0, G=0, by_dim=(), t1_weights=weights)
        monkeypatch.setattr(boundscheck, "count_codes", lambda n: row)
        r = classify_D(70)
        sums = r.witnesses["sums"]
        assert sums == {"D1": 3 << 2000, "D2": 5 << 1999, "D3": 0, "D4": (7 << 1998) + 1}
        total = sum(sums.values())
        for k, share in r.witnesses["shares"].items():
            exact = Fraction(sums[k], total)
            assert abs(Fraction(share) - exact) <= exact * Fraction(1, 1 << 51)
        assert r.witnesses["shares"]["D3"] == 0.0


class TestDimensionBounds:
    def test_small_pass(self):
        r = check_dimension_bounds(12)
        assert r.status == PASS
        assert r.witnesses["observed_ratios"]

    def test_rejects_large(self):
        with pytest.raises(ValueError):
            check_dimension_bounds(101)

    def test_one_census_pass_when_called_directly(self, monkeypatch):
        # with a cold cache, the rows it reads come from one pass, not one each
        passes, real = [], burnside.census

        def counted(rows):
            passes.append(tuple(rows))
            return real(rows)

        monkeypatch.setattr(burnside, "census", counted)
        monkeypatch.setattr(burnside, "_ROWS", {})
        assert check_dimension_bounds(30).status == PASS
        assert passes == [tuple(range(1, 31))]


class TestTheoremConstants:
    def test_report_only(self):
        r = theorem_constants_report((8, 12))
        assert r.status == REPORT
        assert set(r.witnesses["per_n"]) == {8, 12}
        assert r.witnesses["paper_constants"]["bracket"] == (1.2499, 1.2501)


class TestRunSuite:
    def test_lemma1_suite(self):
        results = run_suite("lemma1", 50)
        assert len(results) == 1 and results[0].status == PASS

    def test_deterministic(self):
        a = [r.to_json_dict() for r in run_suite("bound4", 8)]
        b = [r.to_json_dict() for r in run_suite("bound4", 8)]
        assert a == b

    def test_no_fail_statuses(self):
        for r in run_suite("lemma23", 8) + run_suite("dclass", 8):
            assert r.status != FAIL

    @pytest.mark.parametrize("suite, max_n, top", [("all", 30, 30), ("dims", 30, 30),
                                                   ("dclass", 30, 30), ("bound4", 30, 20),
                                                   ("all", 41, 40)])
    def test_one_census_pass_for_every_row_read(self, capsys, monkeypatch, process_log,
                                                suite, max_n, top):
        # the odd stages u = 29, 27, ..., 3 (or 19, ..., 3) run once, at the
        # largest row the suite reads, whatever rows it reads below it, in
        # whichever process makes the pass: suite all may make it in a worker
        real_census, real_stage = burnside.census, burnside._stage

        def counted_census(rows):
            process_log(("pass", tuple(rows)))
            return real_census(rows)

        def counted_stage(n, u, states):
            process_log(("stage", n, u))
            return real_stage(n, u, states)

        monkeypatch.setattr(burnside, "census", counted_census)
        monkeypatch.setattr(burnside, "_stage", counted_stage)
        monkeypatch.setattr(burnside, "_ROWS", {})
        assert main(["verify", "--suite", suite, "--max-n", str(max_n), "--json"]) == 0
        capsys.readouterr()
        records = process_log.read()
        passes = [r[1] for r in records if r[0] == "pass"]
        stages = [r[1:] for r in records if r[0] == "stage"]
        assert passes == [tuple(range(1, top + 1))]
        assert stages == [(top, u) for u in range(top - 1, 1, -2)]

    @pytest.mark.parametrize("fails", [None, "pipe", "fork"])
    def test_suite_all_uses_the_pass_of_whatever_process_makes_it(
            self, capsys, monkeypatch, process_log, open_fds, fails):
        # at two CPUs a forked worker makes the pass and splits its cores
        # with a worker of its own, and the rows and sums they send are
        # used: each is made once, none again here.  Where no worker can
        # start, this process makes the pass and both shares of its cores.
        # The stdout is the pinned one either way, and no end of a pipe is
        # left open.
        real_census, real_row_sums = burnside.census, burnside._row_sums

        def census_pid(rows):
            process_log(("pass", os.getpid()))
            return real_census(rows)

        def row_sums_pid(rows, stage, cores):
            process_log(("cores", os.getpid()))
            return real_row_sums(rows, stage, cores)

        def cannot_start(*args):
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(burnside, "census", census_pid)
        monkeypatch.setattr(burnside, "_row_sums", row_sums_pid)
        monkeypatch.setattr(burnside, "_cpus", lambda: 2)
        monkeypatch.setattr(burnside, "_ROWS", {})
        if fails:
            monkeypatch.setattr(os, fails, cannot_start)
        fds = open_fds()
        assert main(["verify", "--suite", "all", "--max-n", "30", "--json"]) == 0
        assert sha256(capsys.readouterr().out.encode()).hexdigest() == VERIFY_ALL_30
        assert open_fds() == fds
        records = process_log.read()
        passes = [pid for kind, pid in records if kind == "pass"]
        cores = [pid for kind, pid in records if kind == "cores"]
        here = os.getpid()
        if fails:
            assert passes == [here] and cores == [here, here]
        else:
            assert len(passes) == 1 and passes[0] != here
            assert len(cores) == len(set(cores)) == 2 and passes[0] in cores
            assert here not in cores

    def test_core_worker_of_a_killed_pass_worker_exits(self, monkeypatch, process_log):
        # this process raises while the pass worker splits its cores, so the
        # pass worker is killed; its own core worker, whose sums (over the
        # 64 KB a pipe holds) no process will read, must exit, not block
        here, real_row_sums = os.getpid(), burnside._row_sums

        def row_sums_pid(rows, stage, cores):
            process_log((os.getpid(), os.getppid()))
            return real_row_sums(rows, stage, cores)

        def core_worker():
            return next((pid for pid, ppid in process_log.read() if ppid != here), None)

        def alive(pid):
            try:
                with open(f"/proc/{pid}/stat") as stat:
                    return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        def fails_once_the_cores_split(n_max):
            deadline = time.monotonic() + 30
            while core_worker() is None and time.monotonic() < deadline:
                time.sleep(0.005)
            raise RuntimeError("lemma1 fails")

        monkeypatch.setattr(burnside, "_row_sums", row_sums_pid)
        monkeypatch.setattr(burnside, "_cpus", lambda: 2)
        monkeypatch.setattr(burnside, "_ROWS", {})
        monkeypatch.setattr(boundscheck, "check_lemma1", fails_once_the_cores_split)
        with pytest.raises(RuntimeError, match="lemma1 fails"):
            run_suite("all", 30)
        pid = core_worker()
        assert pid is not None
        deadline = time.monotonic() + 10
        while alive(pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        blocked = alive(pid)
        if blocked:  # it would hold the test run's stdout open for good
            os.kill(pid, signal.SIGKILL)
        assert not blocked

    @pytest.mark.parametrize("suite", ["bogus", "ALL", ""])
    def test_unknown_suite_raises_listing_the_suites(self, suite):
        with pytest.raises(ValueError, match=r"the suites are all, lemma1, lemma23, "
                                             r"bound4, dims, dclass$"):
            run_suite(suite, 10)

    def test_cli_suite_choices_are_the_suites(self):
        import argparse

        from codecensus.cli import build_parser

        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
        assert suite.choices is boundscheck.SUITES

    def test_suites_without_census_rows_make_no_pass(self, monkeypatch):
        def no_census(rows):
            raise AssertionError("a census pass ran")

        monkeypatch.setattr(burnside, "census", no_census)
        monkeypatch.setattr(burnside, "_ROWS", {})
        assert run_suite("lemma1", 12) and run_suite("lemma23", 12)
