import pytest

from codecensus import submodcount
from codecensus.cyclestruct import (
    CycleType,
    cycle_types_of,
    partitions_of,
    primary_components,
)
from codecensus.oracle import graded_submodule_counts, nilpotent_submodule_census
from codecensus.qarith import gauss_binomial, gauss_total
from codecensus.submodcount import (
    component_lattice,
    component_total,
    conjugate,
    count_submodules_by_type,
    lattice_dim_poly,
    lattice_size,
)


class TestConjugate:
    def test_examples(self):
        assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
        assert conjugate(()) == ()
        assert conjugate((1, 1, 1)) == (3,)

    def test_involution(self):
        for n in range(1, 10):
            for lam in partitions_of(n):
                assert conjugate(conjugate(lam)) == lam
                assert sum(conjugate(lam)) == n


class TestCountSubmodulesByType:
    def test_whole_and_zero(self):
        for lam in ((1,), (3, 2), (2, 2, 1)):
            for Q in (2, 4):
                assert count_submodules_by_type(lam, lam, Q) == 1
                assert count_submodules_by_type(lam, (), Q) == 1

    def test_lines_in_the_plane(self):
        assert count_submodules_by_type((1, 1), (1,), 2) == 3

    def test_jordan_2_1(self):
        assert count_submodules_by_type((2, 1), (2,), 2) == 2

    def test_non_embeddable_is_zero(self):
        assert count_submodules_by_type((1, 1), (2,), 2) == 0
        assert count_submodules_by_type((2,), (1, 1), 2) == 0


class TestValidationGate:
    """The type-counting formula must reproduce brute-force enumeration of
    the invariant subspaces of the matching nilpotent Jordan operator for
    every type of size <= 6 over the 2- and 4-element fields."""

    @pytest.mark.parametrize("Q", [2, 4])
    @pytest.mark.parametrize("size", range(1, 7))
    def test_formula_matches_brute_force(self, Q, size):
        for lam in partitions_of(size):
            census = nilpotent_submodule_census(lam, Q)
            # every subtype the formula deems present, and none it excludes
            subtypes = set(census)
            for top in range(size + 1):
                for mu in [()] if top == 0 else partitions_of(top):
                    expected = count_submodules_by_type(lam, mu, Q)
                    assert census.get(mu, 0) == expected, (lam, mu, Q)
                    if expected:
                        subtypes.discard(mu)
            assert not subtypes

    @pytest.mark.parametrize("Q", [2, 4])
    def test_total_over_trivial_operator_is_subspace_count(self, Q):
        for m in range(1, 7):
            census = nilpotent_submodule_census((1,) * m, Q)
            assert sum(census.values()) == gauss_total(m, Q)


class TestComponentLattice:
    def test_semisimple_block_reproduces_gaussian_binomials(self):
        for m in range(1, 13):
            coeffs = component_lattice((1,) * m, 2, 1)
            assert coeffs == tuple(
                gauss_binomial(m, k, 2) for k in range(m + 1)
            )

    def test_chain_module(self):
        assert component_lattice((4,), 2, 1) == (1, 1, 1, 1, 1)

    def test_jordan_2_1_dims(self):
        assert component_lattice((2, 1), 2, 1) == (1, 3, 3, 1)
        assert component_total((2, 1), 2, 1) == 8

    def test_quadratic_residue_field(self):
        # one semisimple part over GF(4): dims step by 2
        assert component_lattice((1,), 4, 2) == (1, 0, 1)
        assert component_lattice((1, 1), 4, 2) == (1, 0, 5, 0, 1)

    def test_rejects_mismatched_field(self):
        with pytest.raises(ValueError):
            component_lattice((1,), 4, 1)

    def test_wrong_end_counts_raise(self, monkeypatch):
        real = submodcount.gauss_binomial
        monkeypatch.setattr(submodcount, "gauss_binomial",
                            lambda n, k, q: 2 * real(n, k, q))
        with pytest.raises(ArithmeticError, match=r"\(2, 1\)"):
            component_lattice.__wrapped__((2, 1), 2, 1)


class TestChainDPAgainstReferences:
    """The chain DP against independent second opinions: the type-by-type
    enumerator, brute-force submodule enumeration, and the closed form for
    two-part types."""

    @pytest.mark.parametrize("Q,d", [(2, 1), (4, 2), (8, 3)])
    def test_every_type_up_to_14(self, Q, d):
        for size in range(1, 15):
            for lam in partitions_of(size):
                assert component_lattice(lam, Q, d) == \
                    graded_submodule_counts(lam, Q, d), (lam, Q)

    def test_every_census_block_up_to_n24(self):
        blocks = {
            (c.module_type, c.residue_size, c.deg)
            for n in range(1, 25)
            for ct in cycle_types_of(n)
            for c in primary_components(ct)
        }
        for key in blocks:
            assert component_lattice(*key) == graded_submodule_counts(*key), key

    @pytest.mark.parametrize("Q,d", [(2, 1), (4, 2)])
    def test_brute_force_binned_by_size(self, Q, d):
        for size in range(1, 7):
            for lam in partitions_of(size):
                expected = [0] * (d * size + 1)
                for mu, count in nilpotent_submodule_census(lam, Q).items():
                    expected[d * sum(mu)] += count
                assert component_lattice(lam, Q, d) == tuple(expected), (lam, Q)

    @pytest.mark.parametrize("Q,d", [(2, 1), (4, 2), (8, 3)])
    def test_two_part_closed_form(self, Q, d):
        # subgroups of Z_{p^a} x Z_{p^b}: sum over i <= a, j <= b of Q^min(i,j)
        for a in range(1, 33):
            for b in range(1, a + 1):
                expected = sum(Q ** min(i, j)
                               for i in range(a + 1) for j in range(b + 1))
                assert component_total((a, b), Q, d) == expected, (a, b, Q)


class TestLatticeSize:
    def test_identity_counts_all_subspaces(self):
        for n in range(1, 20):
            assert lattice_size(CycleType((1,) * n)) == gauss_total(n, 2)

    def test_single_transposition_s2(self):
        assert lattice_size(CycleType((2,))) == 3

    @pytest.mark.parametrize("n", range(2, 31))
    def test_transposition_identity(self, n):
        ct = CycleType((2,) + (1,) * (n - 2))
        expected = 2 * gauss_total(n - 1, 2) - gauss_total(n - 2, 2)
        assert lattice_size(ct) == expected

    def test_s4_values(self):
        assert lattice_size(CycleType((2, 2))) == 15
        assert lattice_size(CycleType((4,))) == 5
        assert lattice_size(CycleType((3, 1))) == 10


class TestLatticeDimPoly:
    def test_identity_row(self):
        assert lattice_dim_poly(CycleType((1, 1, 1))) == (1, 7, 7, 1)

    def test_s2_transposition(self):
        assert lattice_dim_poly(CycleType((2,))) == (1, 1, 1)

    def test_s3_cycle(self):
        assert lattice_dim_poly(CycleType((3,))) == (1, 1, 1, 1)

    def test_sums_and_ends(self):
        for n in range(1, 13):
            for ct in cycle_types_of(n):
                poly = lattice_dim_poly(ct)
                assert poly[0] == 1 and poly[-1] == 1
                assert sum(poly) == lattice_size(ct)

    def test_wrong_length_raises(self, monkeypatch):
        ct = CycleType((3, 1))
        blocks = primary_components(ct)
        monkeypatch.setattr(submodcount, "primary_components",
                            lambda c: blocks[:-1])
        with pytest.raises(ArithmeticError, match="3,1"):
            lattice_dim_poly(ct)

    def test_kernel_of_t_plus_1_block_is_cycle_count(self):
        for n in range(1, 13):
            for ct in cycle_types_of(n):
                lam = primary_components(ct)[0].module_type
                assert conjugate(lam)[0] == ct.r
