from math import comb, factorial

import pytest

from codecensus import burnside
from codecensus.burnside import (
    correction_report,
    count_codes,
    count_codes_by_dim,
    non_identity_sum,
    transposition_class_sum,
)
from codecensus.qarith import gauss_total


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
        real = burnside.lattice_dim_poly

        def off_by_one(ct):
            poly = real(ct)
            if ct.parts == (1, 1, 1, 1):
                return poly[:2] + (poly[2] + 1,) + poly[3:]
            return poly

        monkeypatch.setattr(burnside, "lattice_dim_poly", off_by_one)
        with pytest.raises(ArithmeticError, match="dimension-2"):
            count_codes.__wrapped__(4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            count_codes(0)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_row_invariants(self, n):
        row = count_codes(n)
        assert sum(row.by_dim) == row.b
        assert row.by_dim == row.by_dim[::-1]  # duality X -> X_perp
        assert row.by_dim[0] == row.by_dim[n] == 1
        assert factorial(n) * row.b >= row.G  # orbit-count floor


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
