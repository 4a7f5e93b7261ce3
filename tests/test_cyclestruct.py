from collections import Counter
from math import factorial

import pytest

from codecensus import cyclestruct
from codecensus.cyclestruct import (
    CycleType,
    class_size,
    cycle_types_of,
    partitions_of,
    primary_components,
    z_product,
)
from codecensus.oracle import (
    MINPOLY_CEILING,
    degree,
    factor_cyclic,
    irreducibles_of_order,
    minimal_polynomial,
    perm_from_cycle_type,
)


class TestPartitions:
    def test_n1(self):
        assert list(partitions_of(1)) == [(1,)]

    def test_n4(self):
        assert list(partitions_of(4)) == [
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
        ]

    def test_reverse_lexicographic_order(self):
        for n in (5, 8, 11):
            parts = list(partitions_of(n))
            assert parts == sorted(parts, reverse=True)
            assert len(parts) == len(set(parts))

    # p(n), the number of partitions of n (OEIS A000041)
    PARTITION_COUNTS = {10: 42, 25: 1958, 50: 204226}

    @pytest.mark.parametrize("n", [10, 25, 50])
    def test_count_against_pentagonal_recurrence(self, n):
        assert sum(1 for _ in partitions_of(n)) == self.PARTITION_COUNTS[n]


class TestClassSize:
    def test_identity(self):
        for n in (1, 5, 12):
            assert class_size(CycleType((1,) * n)) == 1

    @pytest.mark.parametrize("n", range(2, 13))
    def test_transposition_class(self, n):
        ct = CycleType((2,) + (1,) * (n - 2))
        assert class_size(ct) == n * (n - 1) // 2

    def test_3_1_in_s4(self):
        assert class_size(CycleType((3, 1))) == 8

    @pytest.mark.parametrize("n", range(1, 31))
    def test_class_sizes_sum_to_factorial(self, n):
        assert sum(class_size(ct) for ct in cycle_types_of(n)) == factorial(n)


class TestZProduct:
    def test_small_multisets(self):
        assert z_product([3, 1]) == 3
        assert z_product([2, 2, 1]) == 2 ** 2 * 2 * 1
        assert z_product([]) == 1


class TestPrimaryComponents:
    def test_identity_type(self):
        comps = primary_components(CycleType((1,) * 6))
        assert len(comps) == 1
        c = comps[0]
        assert (c.order, c.count, c.deg) == (1, 1, 1)
        assert c.module_type == (1,) * 6
        assert c.dim == 6 and c.max_exponent == 1

    def test_transposition_type(self):
        comps = primary_components(CycleType((2, 1, 1, 1)))
        assert len(comps) == 1
        c = comps[0]
        assert (c.order, c.count, c.deg) == (1, 1, 1)
        assert c.module_type == (2, 1, 1, 1)
        assert c.dim == 5 and c.max_exponent == 2

    def test_3_cycle(self):
        comps = primary_components(CycleType((3,)))
        # t+1, then t^2 + t + 1, the one irreducible of order 3
        assert [(c.order, c.count, c.deg) for c in comps] == [(1, 1, 1), (3, 1, 2)]
        assert comps[0].module_type == (1,)
        assert comps[1].module_type == (1,) and comps[1].deg == 2
        assert [c.dim for c in comps] == [1, 2]

    def test_dimensions_and_bounds(self):
        for n in range(1, 13):
            for ct in cycle_types_of(n):
                comps = primary_components(ct)
                assert (comps[0].order, comps[0].count, comps[0].deg) == (1, 1, 1)
                assert sum(c.dim for c in comps) == n
                assert ct.r <= comps[0].dim <= n
                expected_mu = max(p & -p for p in ct.parts)
                assert comps[0].max_exponent == expected_mu

    def test_full_t_plus_1_block_iff_two_power_lengths(self):
        for n in range(1, 13):
            for ct in cycle_types_of(n):
                n1 = primary_components(ct)[0].dim
                all_two_power = all(p & (p - 1) == 0 for p in ct.parts)
                assert (n1 == n) == all_two_power

    def test_two_power_block_count_at_n8(self):
        # more than floor(8/2)! * 2^8 of the 8! permutations have a full
        # t+1 block
        total = sum(
            class_size(ct)
            for ct in cycle_types_of(8)
            if primary_components(ct)[0].dim == 8
        )
        assert total > factorial(4) * 2 ** 8

    def test_wrong_block_dimensions_raise(self, monkeypatch):
        real = cyclestruct.cyclotomic_split
        # drop the order-3 block, t^2 + t + 1
        monkeypatch.setattr(cyclestruct, "cyclotomic_split",
                            lambda e: (0, 2) if e == 3 else real(e))
        with pytest.raises(ArithmeticError, match="3,1"):
            primary_components(CycleType((3, 1)))

    def test_against_minimal_polynomial_oracle(self):
        # the minimal polynomial's factors grouped by order: one record per
        # order, with the factors' degree, their number, their common
        # exponent and their summed primary-block dimensions
        order_of = {p: e for e in range(1, MINPOLY_CEILING + 1, 2)
                    for p in irreducibles_of_order(e)}
        for n in range(1, MINPOLY_CEILING + 1):
            for ct in cycle_types_of(n):
                perm = perm_from_cycle_type(ct.parts)
                by_order = {}
                for p, exp, kdim in minimal_polynomial(perm):
                    by_order.setdefault(order_of[p], []).append((degree(p), exp, kdim))
                comps = primary_components(ct)
                assert {c.order for c in comps} == set(by_order)
                for c in comps:
                    facts = by_order[c.order]
                    assert {fact[:2] for fact in facts} == {(c.deg, c.max_exponent)}
                    assert len(facts) == c.count
                    assert sum(kdim for _, _, kdim in facts) == c.dim


def blocks_by_factoring(parts):
    """The blocks grouped by the irreducible factors of t^u - 1 themselves,
    as a multiset of (order, module type, degree), one element per factor.
    A factor's order is the odd e | u whose irreducibles of order exactly e
    include it."""
    by_poly, order_of = {}, {}
    for length in parts:
        two_part = length & -length
        u = length // two_part
        for e in range(1, u + 1, 2):
            if u % e == 0:
                order_of.update((p, e) for p in irreducibles_of_order(e))
        for p in factor_cyclic(u):
            by_poly.setdefault(p, []).append(two_part)
    return Counter((order_of[p], tuple(sorted(type_parts, reverse=True)), degree(p))
                   for p, type_parts in by_poly.items())


def blocks_by_order(parts):
    """The same multiset from primary_components, each record weighted by
    its number of irreducibles."""
    return Counter({(c.order, c.module_type, c.deg): c.count
                    for c in primary_components(CycleType(parts))})


class TestBlocksFromOrdersAgainstFactoring:
    def test_every_type_up_to_14(self):
        for n in range(1, 15):
            for parts in partitions_of(n):
                assert blocks_by_order(parts) == blocks_by_factoring(parts), parts

    @pytest.mark.parametrize("shape", [(1,), (2, 1), (4, 3, 1)])
    def test_odd_u_up_to_255(self, shape):
        for u in range(1, 256, 2):
            parts = tuple(k * u for k in shape)
            assert blocks_by_order(parts) == blocks_by_factoring(parts), parts

    def test_t_plus_1_first_then_degree_order_index(self):
        comps = primary_components(CycleType((45, 21, 8, 1)))
        keys = [(c.deg, c.order) for c in comps]
        assert (comps[0].order, comps[0].count, comps[0].deg) == (1, 1, 1)
        assert keys == sorted(keys) and len(set(keys)) == len(keys)


class TestCycleType:
    def test_parse_round_trip(self):
        ct = CycleType.parse("3,2,1,1")
        assert ct.parts == (3, 2, 1, 1)
        assert str(ct) == "3,2,1,1"
        assert ct.n == 7 and ct.r == 4

    def test_parse_sorts(self):
        assert CycleType.parse("1,3,2").parts == (3, 2, 1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            CycleType((0,))
        with pytest.raises(ValueError):
            CycleType((1, 2))
        with pytest.raises(ValueError):
            CycleType(())

    def test_records_immutable_and_hashable(self):
        ct = CycleType((4, 3, 1))
        comp = primary_components(ct)[0]
        for record, field in ((ct, "parts"), (comp, "order")):
            with pytest.raises(AttributeError):
                setattr(record, field, ())
            with pytest.raises(AttributeError):
                record.extra = 1
        assert {ct, CycleType.parse("1,3,4")} == {ct}
        assert hash(comp) == hash(primary_components(CycleType((4, 3, 1)))[0])
        assert repr(ct) == "CycleType(parts=(4, 3, 1))"
