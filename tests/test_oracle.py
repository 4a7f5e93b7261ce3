from itertools import permutations
from math import factorial

import pytest

from codecensus.cyclestruct import CycleType, cycle_types_of
from codecensus.oracle import (
    apply_perm,
    classify,
    enum_subspaces,
    graded_submodule_counts,
    invariant_count,
    map_apply,
    minimal_polynomial,
    nilpotent_submodule_census,
    perm_from_cycle_type,
    perm_operator,
    rref,
)
from codecensus.qarith import gauss_total
from codecensus.submodcount import lattice_size


def cycle_type_of_perm(perm):
    n = len(perm)
    seen = [False] * n
    lengths = []
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


class TestEnumSubspaces:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_counts(self, n):
        subspaces = enum_subspaces(n)
        assert len(subspaces) == gauss_total(n, 2)
        assert len(set(subspaces)) == len(subspaces)

    def test_canonical(self):
        for s in enum_subspaces(5):
            assert rref(s, 5) == s

    def test_ceiling(self):
        with pytest.raises(ValueError):
            enum_subspaces(8)


class TestInvariantCount:
    def test_identity(self):
        for n in (2, 4, 6):
            assert invariant_count(tuple(range(n))) == gauss_total(n, 2)

    def test_swap_n2(self):
        assert invariant_count((1, 0)) == 3

    def test_4_cycle(self):
        assert invariant_count(perm_from_cycle_type((4,))) == 5

    def test_depends_only_on_cycle_type(self):
        counts = {}
        for perm in permutations(range(4)):
            ct = cycle_type_of_perm(perm)
            c = invariant_count(perm)
            assert counts.setdefault(ct, c) == c

    def test_agrees_with_lattice_size(self):
        for n in range(1, 7):
            for ct in cycle_types_of(n):
                perm = perm_from_cycle_type(ct.parts)
                assert invariant_count(perm) == lattice_size(ct), ct

    @pytest.mark.parametrize("parts", [(7,), (6, 1), (4, 3), (2, 2, 2, 1)])
    def test_agrees_with_lattice_size_n7(self, parts):
        perm = perm_from_cycle_type(parts)
        assert invariant_count(perm) == lattice_size(CycleType(parts))


class TestTranspositionStructure:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_fixed_subspaces_form_two_intervals(self, n):
        # a subspace is invariant under the swap of the first two
        # coordinates iff it contains e1+e2 or lies in its dual hyperplane
        perm = perm_from_cycle_type((2,) + (1,) * (n - 2))
        v = 0b11
        for s in enum_subspaces(n):
            fixed = apply_perm(s, perm, n) == s
            contains = rref(s + (v,), n) == s
            in_perp = all(bin(row & v).count("1") % 2 == 0 for row in s)
            assert fixed == (contains or in_perp)


class TestNilpotentPartEquivalence:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_invariance_matches_shifted_operator(self, n):
        # invariance under T and under T+I coincide subspace by subspace
        identity = tuple(1 << i for i in range(n))
        for perm in permutations(range(n)):
            T = perm_operator(perm)
            shifted = tuple(c ^ e for c, e in zip(T, identity))
            for s in enum_subspaces(n):
                under_t = apply_perm(s, perm, n) == s
                images = [map_apply(shifted, row) for row in s]
                under_shifted = rref(s + tuple(images), n) == s
                assert under_t == under_shifted


class TestNilpotentSubmoduleCensus:
    def test_callers_cannot_change_the_memoized_result(self):
        first = nilpotent_submodule_census((2, 1), 2)
        assert first == {(): 1, (1,): 3, (2,): 2, (1, 1): 1, (2, 1): 1}
        first[(1,)] = 0
        assert nilpotent_submodule_census([1, 2], 2)[(1,)] == 3


class TestGradedSubmoduleCounts:
    def test_small_blocks(self):
        assert graded_submodule_counts((2, 1), 2, 1) == (1, 3, 3, 1)
        assert graded_submodule_counts((1, 1), 4, 2) == (1, 0, 5, 0, 1)

    def test_rejects_mismatched_field(self):
        with pytest.raises(ValueError):
            graded_submodule_counts((1,), 4, 1)


class TestClassify:
    def test_n2_report(self):
        rep = classify(2)
        assert rep.b == 4
        assert rep.by_dim == (1, 2, 1)
        assert rep.beta == (3, 5)
        # equality in the averaged-automorphism lower bound at n=2:
        # b(2) = (1 + beta) * G(2,2) / 2!
        num, den = rep.beta
        assert rep.b * den * factorial(2) == (den + num) * gauss_total(2, 2)

    def test_n3_orbit_count(self):
        assert classify(3).b == 8

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_census(self, n):
        from codecensus.burnside import count_codes

        rep = classify(n)
        row = count_codes(n)
        assert rep.b == row.b
        assert rep.by_dim == row.by_dim

    def test_orbit_sizes_partition_everything(self):
        for n in range(1, 6):
            rep = classify(n)
            assert sum(o.size for o in rep.orbits) == gauss_total(n, 2)
            for o in rep.orbits:
                assert o.size * o.stabilizer_order == factorial(n)

    def test_json_dump_shape(self):
        d = classify(3).to_json_dict()
        assert set(d) >= {"n", "b", "by_dim", "beta", "orbits"}
        assert all({"id", "dim", "size", "stabilizer_order"} <= set(o)
                   for o in d["orbits"])

    def test_ceiling(self):
        with pytest.raises(ValueError):
            classify(6)


class TestMinimalPolynomial:
    def test_identity(self):
        assert minimal_polynomial((0, 1, 2)) == [(0b11, 1, 3)]

    def test_transposition(self):
        # (t+1)^2 annihilates a swap in characteristic 2
        facts = minimal_polynomial(perm_from_cycle_type((2, 1, 1)))
        assert facts == [(0b11, 2, 4)]

    def test_3_cycle_in_s5(self):
        facts = minimal_polynomial(perm_from_cycle_type((3, 1, 1)))
        assert (0b11, 1, 3) in facts       # t+1 block of dimension 1+(n-3)
        assert (0b111, 1, 2) in facts      # t^2+t+1 block

    def test_kernel_dims_sum_to_n(self):
        for parts in ((4, 2, 1), (6, 3), (5, 4, 2, 1)):
            perm = perm_from_cycle_type(parts)
            facts = minimal_polynomial(perm)
            assert sum(k for _, _, k in facts) == len(perm)
