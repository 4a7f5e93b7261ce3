"""GF(2)[t]: the cyclotomic split of the fast path (cyclestruct) and the
factoring of t^u - 1 that the oracle keeps as its reference."""

from collections import Counter
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codecensus import cyclestruct
from codecensus.cyclestruct import cyclotomic_split, mult_order_of_2
from codecensus.oracle import (
    cyclotomic_cosets,
    degree,
    factor_cyclic,
    irreducibles_of_order,
    poly_divmod,
    poly_gcd,
    poly_mod,
    poly_mul,
    poly_mulmod,
    poly_powmod,
    poly_str,
)


def euler_phi(e):
    return sum(1 for a in range(1, e + 1) if gcd(a, e) == 1)


class TestMultOrder:
    def test_trivial(self):
        assert mult_order_of_2(1) == 1

    def test_seven(self):
        assert mult_order_of_2(7) == 3

    def test_nine(self):
        assert mult_order_of_2(9) == 6

    def test_definition(self):
        for m in range(1, 200, 2):
            e = mult_order_of_2(m)
            assert pow(2, e, m) % m == 1 % m
            for smaller in range(1, e):
                assert pow(2, smaller, m) != 1 % m

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            mult_order_of_2(6)


class TestCosets:
    def test_partition_and_sizes(self):
        for u in range(1, 100, 2):
            cosets = cyclotomic_cosets(u)
            members = [a for c in cosets for a in c]
            assert sorted(members) == list(range(u))
            for c in cosets:
                assert {(2 * a) % u for a in c} == set(c)


class TestFactorCyclic:
    def test_u1(self):
        assert factor_cyclic(1) == (0b11,)

    def test_u3(self):
        assert set(factor_cyclic(3)) == {0b11, 0b111}

    def test_u7(self):
        # t+1, t^3+t+1, t^3+t^2+1
        assert set(factor_cyclic(7)) == {0b11, 0b1011, 0b1101}

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            factor_cyclic(4)

    def test_remultiplication_all_odd_u(self):
        for u in range(1, 202, 2):
            prod = 1
            for p in factor_cyclic(u):
                prod = poly_mul(prod, p)
            assert prod == (1 << u) | 1, f"u={u}"

    def test_degrees_match_cosets(self):
        for u in range(1, 202, 2):
            factors = factor_cyclic(u)
            degs = sorted(degree(p) for p in factors)
            assert degs == sorted(len(c) for c in cyclotomic_cosets(u))
            assert sum(degs) == u

    def test_t_plus_1_always_present(self):
        for u in range(1, 100, 2):
            assert 0b11 in factor_cyclic(u)

    def test_factors_irreducible_exhaustively(self):
        # every factor of degree <= 12 has no divisor of degree 1..deg/2
        seen = set()
        for u in range(1, 202, 2):
            for p in factor_cyclic(u):
                if degree(p) <= 12:
                    seen.add(p)
        for p in seen:
            for q in range(2, 1 << (degree(p) // 2 + 1)):
                if degree(q) >= 1 and poly_divmod(p, q)[1] == 0:
                    assert q == p, f"{poly_str(p)} divisible by {poly_str(q)}"

    def test_deterministic(self):
        first = factor_cyclic(93)
        factor_cyclic.cache_clear()
        assert factor_cyclic(93) == first


class TestIrreduciblesOfOrder:
    def test_cyclotomic_closed_form_up_to_201(self):
        # the irreducibles of order exactly e split the e-th cyclotomic
        # polynomial: phi(e) / ord_e(2) factors, each of degree ord_e(2),
        # which is the split the fast path uses
        for e in range(1, 202, 2):
            phi = sum(1 for a in range(1, e + 1) if gcd(a, e) == 1)
            k = mult_order_of_2(e)
            factors = irreducibles_of_order(e)
            assert len(factors) == phi // k
            assert all(degree(p) == k for p in factors)
            assert (len(factors), degree(factors[0])) == cyclotomic_split(e)
            assert set(factors) <= set(factor_cyclic(e))

    def test_orders_partition_the_factors(self):
        for u in (15, 21, 45, 63):
            by_order = [p for e in range(1, u + 1, 2) if u % e == 0
                        for p in irreducibles_of_order(e)]
            assert sorted(by_order) == sorted(factor_cyclic(u))


class TestCyclotomicSplit:
    def test_closed_form_up_to_1535(self):
        for e in range(1, 1536, 2):
            k = mult_order_of_2(e)
            assert cyclotomic_split(e) == (euler_phi(e) // k, k)

    def test_indivisible_phi_raises(self, monkeypatch):
        # phi(7) = 6 is not a multiple of a (wrong) order 4
        monkeypatch.setattr(cyclestruct, "mult_order_of_2", lambda m: 4)
        with pytest.raises(ArithmeticError, match=r"phi\(7\)"):
            cyclotomic_split(7)

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            cyclotomic_split(6)


polys = st.integers(min_value=0, max_value=(1 << 160) - 1)
nonzero_polys = st.integers(min_value=1, max_value=(1 << 80) - 1)
odd_u = st.integers(min_value=0, max_value=150).map(lambda k: 2 * k + 1)


class TestProperties:
    @settings(derandomize=True, max_examples=200)
    @given(polys, nonzero_polys)
    def test_division_identity(self, a, b):
        q, r = poly_divmod(a, b)
        assert poly_mul(q, b) ^ r == a
        assert degree(r) < degree(b)

    @settings(derandomize=True, max_examples=200)
    @given(nonzero_polys, polys, nonzero_polys)
    def test_gcd_divides_and_scales(self, a, b, c):
        g = poly_gcd(a, b)
        assert poly_mod(a, g) == 0 and poly_mod(b, g) == 0
        assert poly_gcd(poly_mul(a, c), poly_mul(b, c)) == poly_mul(g, c)

    @settings(derandomize=True, max_examples=200)
    @given(polys, st.integers(min_value=0, max_value=40),
           st.integers(min_value=1, max_value=(1 << 64) - 1))
    @example(a=5, e=0, m=1)  # modulo a constant every power is 0
    def test_powmod_is_repeated_mulmod(self, a, e, m):
        acc = poly_mod(1, m)
        for _ in range(e):
            acc = poly_mulmod(acc, a, m)
        assert poly_powmod(a, e, m) == acc

    @settings(derandomize=True, max_examples=200)
    @given(odd_u)
    def test_factors_multiply_back_and_group_by_order(self, u):
        factors = factor_cyclic(u)
        prod = 1
        for p in factors:
            prod = poly_mul(prod, p)
        assert prod == (1 << u) | 1
        divisors = [e for e in range(1, u + 1, 2) if u % e == 0]
        # the order of p: the least e with p | t^e + 1 (orders divide u)
        order = {p: next(e for e in divisors if poly_mod((1 << e) | 1, p) == 0)
                 for p in factors}
        per_order = Counter(order.values())
        for e in divisors:
            k = mult_order_of_2(e)
            assert per_order[e] == euler_phi(e) // k
            assert all(degree(p) == k for p in factors if order[p] == e)
