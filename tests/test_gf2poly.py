from math import gcd

import pytest

from codecensus.gf2poly import (
    cyclotomic_cosets,
    degree,
    factor_cyclic,
    irreducibles_of_order,
    load_factor_cache,
    mult_order_of_2,
    poly_divmod,
    poly_mul,
    poly_str,
    save_factor_cache,
)


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
        import codecensus.gf2poly as gp

        first = factor_cyclic(93)
        gp._factor_cache.clear()
        assert factor_cyclic(93) == first


class TestIrreduciblesOfOrder:
    def test_cyclotomic_closed_form_up_to_201(self):
        # the irreducibles of order exactly e split the e-th cyclotomic
        # polynomial: phi(e) / ord_e(2) factors, each of degree ord_e(2)
        for e in range(1, 202, 2):
            phi = sum(1 for a in range(1, e + 1) if gcd(a, e) == 1)
            k = mult_order_of_2(e)
            factors = irreducibles_of_order(e)
            assert len(factors) == phi // k
            assert all(degree(p) == k for p in factors)
            assert set(factors) <= set(factor_cyclic(e))

    def test_orders_partition_the_factors(self):
        for u in (15, 21, 45, 63):
            by_order = [p for e in range(1, u + 1, 2) if u % e == 0
                        for p in irreducibles_of_order(e)]
            assert sorted(by_order) == sorted(factor_cyclic(u))


class TestCacheFile:
    def test_round_trip(self, tmp_path):
        import codecensus.gf2poly as gp

        for u in (1, 3, 9, 21, 45):
            factor_cyclic(u)
        path = tmp_path / "factors.cache"
        save_factor_cache(str(path))
        snapshot = dict(gp._factor_cache)
        gp._factor_cache.clear()
        count = load_factor_cache(str(path))
        assert count >= 5
        for u, factors in snapshot.items():
            assert gp._factor_cache[u] == factors
