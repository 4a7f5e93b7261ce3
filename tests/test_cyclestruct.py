from math import factorial

import pytest

from codecensus import cyclestruct
from codecensus.cyclestruct import (
    CycleType,
    class_size,
    cycle_types_of,
    partition_count,
    partitions_of,
    primary_components,
)
from codecensus.gf2poly import T_PLUS_1
from codecensus.oracle import minimal_polynomial, perm_from_cycle_type


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

    @pytest.mark.parametrize("n", [10, 25, 50])
    def test_count_against_pentagonal_recurrence(self, n):
        assert sum(1 for _ in partitions_of(n)) == partition_count(n)

    def test_n50_count(self):
        assert partition_count(50) == 204226


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


class TestPrimaryComponents:
    def test_identity_type(self):
        comps = primary_components(CycleType((1,) * 6))
        assert len(comps) == 1
        c = comps[0]
        assert c.irreducible == T_PLUS_1
        assert c.module_type == (1,) * 6
        assert c.dim == 6 and c.max_exponent == 1

    def test_transposition_type(self):
        comps = primary_components(CycleType((2, 1, 1, 1)))
        assert len(comps) == 1
        c = comps[0]
        assert c.irreducible == T_PLUS_1
        assert c.module_type == (2, 1, 1, 1)
        assert c.dim == 5 and c.max_exponent == 2

    def test_3_cycle(self):
        comps = primary_components(CycleType((3,)))
        assert [c.irreducible for c in comps] == [T_PLUS_1, 0b111]
        assert comps[0].module_type == (1,)
        assert comps[1].module_type == (1,) and comps[1].residue_size == 4

    def test_dimensions_and_bounds(self):
        for n in range(1, 13):
            for ct in cycle_types_of(n):
                comps = primary_components(ct)
                assert comps[0].irreducible == T_PLUS_1
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
        blocks = cyclestruct._components_cached((3, 1))
        monkeypatch.setattr(cyclestruct, "_components_cached",
                            lambda parts: blocks[1:])
        with pytest.raises(ArithmeticError, match="3,1"):
            primary_components(CycleType((3, 1)))

    def test_against_minimal_polynomial_oracle(self):
        for n in range(1, 8):
            for ct in cycle_types_of(n):
                perm = perm_from_cycle_type(ct.parts)
                facts = {p: (e, k) for p, e, k in minimal_polynomial(perm)}
                comps = primary_components(ct)
                assert {c.irreducible for c in comps} == set(facts)
                for c in comps:
                    exp, kdim = facts[c.irreducible]
                    assert exp == c.max_exponent
                    assert kdim == c.dim


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
