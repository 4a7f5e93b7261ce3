from fractions import Fraction
from math import log2

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
    def test_one_census_pass_for_every_row_read(self, capsys, monkeypatch, suite,
                                                max_n, top):
        # the odd stages u = 29, 27, ..., 3 (or 19, ..., 3) run once, at the
        # largest row the suite reads, whatever rows it reads below it
        passes, stages = [], []
        real_census, real_stage = burnside.census, burnside._stage

        def counted_census(rows):
            passes.append(tuple(rows))
            return real_census(rows)

        def counted_stage(n, u, states):
            stages.append((n, u))
            return real_stage(n, u, states)

        monkeypatch.setattr(burnside, "census", counted_census)
        monkeypatch.setattr(burnside, "_stage", counted_stage)
        monkeypatch.setattr(burnside, "_ROWS", {})
        assert main(["verify", "--suite", suite, "--max-n", str(max_n), "--json"]) == 0
        capsys.readouterr()
        assert passes == [tuple(range(1, top + 1))]
        assert stages == [(top, u) for u in range(top - 1, 1, -2)]

    def test_suites_without_census_rows_make_no_pass(self, monkeypatch):
        def no_census(rows):
            raise AssertionError("a census pass ran")

        monkeypatch.setattr(burnside, "census", no_census)
        monkeypatch.setattr(burnside, "_ROWS", {})
        assert run_suite("lemma1", 12) and run_suite("lemma23", 12)
