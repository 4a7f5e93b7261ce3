import mpmath
import pytest

from codecensus.oracle import enum_subspaces
from codecensus.qarith import (
    DEFAULT_PRECISION,
    _GUARD_DIGITS,
    gauss_binomial,
    gauss_total,
    lemma1_tail_product,
    scaled_u,
)


class TestGaussTotal:
    def test_base_cases(self):
        assert gauss_total(0, 2) == 1
        assert gauss_total(1, 2) == 2

    def test_small_values_against_enumeration(self):
        # independent oracle: explicit subspace enumeration
        assert gauss_total(2, 2) == len(enum_subspaces(2)) == 5
        assert gauss_total(5, 2) == len(enum_subspaces(5)) == 374

    def test_rejects_bad_q(self):
        for q in (0, 1, 6, 10, 12):
            with pytest.raises(ValueError):
                gauss_total(3, q)

    def test_accepts_prime_powers(self):
        for q in (2, 3, 4, 5, 8, 9, 27):
            assert gauss_total(1, q) == 2

    def test_accepts_prime_powers_up_to_the_bound(self):
        # the largest prime below 2^32, and the square of the largest
        # prime below 2^16
        for q in (4294967291, 65521 ** 2):
            assert gauss_total(1, q) == 2
            assert gauss_binomial(2, 1, q) == q + 1

    def test_rejects_q_from_2_to_the_32(self):
        for q in (1 << 32, 2 ** 61 - 1):
            with pytest.raises(ValueError, match=r"below 2\^32"):
                gauss_total(1, q)

    @pytest.mark.parametrize("q", [2, 4])
    def test_recurrence_consistency(self, q):
        for n in range(1, 200):
            assert gauss_total(n + 1, q) == (
                2 * gauss_total(n, q) + (q ** n - 1) * gauss_total(n - 1, q)
            )

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_sum_of_gaussian_binomials(self, q):
        for n in range(61):
            assert gauss_total(n, q) == sum(gauss_binomial(n, d, q)
                                            for d in range(n + 1))

    def test_deep_n_does_not_recurse(self):
        # 3000 levels would exceed the interpreter's recursion limit;
        # Lemma 1's sandwich 2^(n^2/4) <= G(n,2) <= 23 * 2^(n^2/4)
        assert 1 << 2250000 <= gauss_total(3000, 2) <= 23 << 2250000


class TestGaussBinomial:
    def test_dimension_zero(self):
        for n in (0, 1, 5, 40):
            assert gauss_binomial(n, 0, 2) == 1

    def test_lines_in_the_plane(self):
        assert gauss_binomial(2, 1, 2) == 3

    def test_against_enumeration(self):
        # 35 two-dimensional subspaces among the 67 subspaces at n=4
        by_dim = {}
        for s in enum_subspaces(4):
            by_dim[len(s)] = by_dim.get(len(s), 0) + 1
        assert gauss_binomial(4, 2, 2) == by_dim[2] == 35

    def test_out_of_range_is_zero(self):
        assert gauss_binomial(3, -1, 2) == 0
        assert gauss_binomial(3, 4, 2) == 0

    @pytest.mark.parametrize("q", [2, 4])
    def test_row_sums_and_symmetry(self, q):
        for n in range(121):
            row = [gauss_binomial(n, d, q) for d in range(n + 1)]
            assert sum(row) == gauss_total(n, q)
            assert row == row[::-1]

    def test_sandwich_bound(self):
        for n in range(1, 101):
            for d in range(1, n + 1):
                low = 1 << (n * d - d * d)
                assert low <= gauss_binomial(n, d, 2) <= 4 * low


class TestScaledU:
    def test_first_values(self):
        assert scaled_u(0, 2) == 1
        with mpmath.workdps(70):
            expected = 2 * mpmath.mpf(2) ** (-mpmath.mpf(1) / 4)
            assert abs(scaled_u(1, 2) - expected) < mpmath.mpf("1e-50")

    def test_even_odd_limits(self):
        assert abs(scaled_u(200, 2) - mpmath.mpf("7.371969")) < 1e-5
        assert abs(scaled_u(201, 2) - mpmath.mpf("7.371949")) < 1e-5

    def test_bounds_sweep(self):
        for n in range(0, 501):
            u = scaled_u(n, 2)
            assert 1 <= u <= 23

    def test_rejects_low_precision(self):
        with pytest.raises(ValueError):
            scaled_u(10, 2, precision=10)


def termwise_tail_product(terms):
    """lemma1_tail_product with a fractional power of 2 taken for every
    term, at the same working precision: the reference for its ldexp form."""
    with mpmath.workdps(DEFAULT_PRECISION + _GUARD_DIGITS):
        acc = mpmath.mpf("1.7")
        for k in range(2, terms + 2):
            acc *= mpmath.mpf(2) ** (mpmath.mpf(5) / 4 - mpmath.mpf(k) / 2) \
                + 1 - mpmath.mpf(2) ** (1 - k)
        return +acc


class TestTailProduct:
    @pytest.mark.parametrize("terms", [10, 50, 200, 1000, 2000])
    def test_matches_the_termwise_powers(self, terms):
        assert lemma1_tail_product(terms) == termwise_tail_product(terms)

    def test_partial_products_increase(self):
        values = [lemma1_tail_product(t) for t in (10, 50, 200, 1000)]
        assert values == sorted(values)

    def test_below_23(self):
        assert lemma1_tail_product(1000) < 23

    def test_converged(self):
        a = lemma1_tail_product(1000)
        b = lemma1_tail_product(2000)
        assert abs(a - b) < mpmath.mpf("1e-50")

    def test_rejects_too_few_terms(self):
        with pytest.raises(ValueError):
            lemma1_tail_product(5)
