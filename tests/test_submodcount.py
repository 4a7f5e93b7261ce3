import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codecensus import submodcount
from codecensus.burnside import count_codes
from codecensus.cyclestruct import (
    CycleType,
    cycle_types_of,
    partitions_of,
    primary_components,
)
from codecensus.oracle import _conjugate as oracle_conjugate
from codecensus.oracle import (
    apply_perm,
    count_submodules_by_type,
    enum_subspaces,
    graded_submodule_counts,
    nilpotent_submodule_census,
    perm_from_cycle_type,
)
from codecensus.qarith import gauss_binomial, gauss_total
from codecensus.submodcount import (
    add_product,
    component_lattice,
    component_total,
    conjugate,
    convolve,
    fixed_point_walk,
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

    def test_matches_the_oracle_copy(self):
        for n in range(1, 21):
            for lam in partitions_of(n):
                assert conjugate(lam) == oracle_conjugate(lam), lam


class TestCountSubmodulesByType:
    def test_whole_and_zero(self):
        for lam in ((1,), (3, 2), (2, 2, 1)):
            for Q in (2, 4):
                assert count_submodules_by_type(lam, lam, Q) == 1
                assert count_submodules_by_type(lam, (), Q) == 1

    def test_lines_in_the_plane(self):
        assert count_submodules_by_type((1, 1), (1,), 2) == 3
        # Q = 2^36, the residue field of the census's order-37 blocks
        assert count_submodules_by_type((1, 1), (1,), 1 << 36) == (1 << 36) + 1

    def test_jordan_2_1(self):
        assert count_submodules_by_type((2, 1), (2,), 2) == 2

    def test_non_embeddable_is_zero(self):
        assert count_submodules_by_type((1, 1), (2,), 2) == 0
        assert count_submodules_by_type((2,), (1, 1), 2) == 0


class TestValidationGate:
    """The type-counting formula must reproduce brute-force enumeration of
    the invariant subspaces of the matching nilpotent Jordan operator for
    every type of size <= 6 over the 2- and 4-element fields, and of size
    7 over the 2-element field."""

    @pytest.mark.parametrize(
        "size,Q", [(size, Q) for size in range(1, 7) for Q in (2, 4)] + [(7, 2)])
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
        # m = 256 packs its slots 2,049 bytes wide
        for m in [*range(1, 13), 256]:
            coeffs = component_lattice((1,) * m, 1)
            assert coeffs == tuple(
                gauss_binomial(m, k, 2) for k in range(m + 1)
            )

    def test_chain_module(self):
        assert component_lattice((4,), 1) == (1, 1, 1, 1, 1)

    def test_jordan_2_1_dims(self):
        assert component_lattice((2, 1), 1) == (1, 3, 3, 1)
        assert component_total((2, 1), 1) == 8

    def test_quadratic_residue_field(self):
        # semisimple parts over GF(4), graded by size: the five lines of
        # GF(4)^2 are its submodules of size 1 (GF(2)-dimension 2)
        assert component_lattice((1,), 2) == (1, 1)
        assert component_lattice((1, 1), 2) == (1, 5, 1)

    def test_wrong_end_counts_raise(self, monkeypatch):
        # every transfer factor doubled: the step is the only arithmetic.
        # The slot width comes from the column bound, which the step does
        # not touch; the doubled lattice [8, 24, 16, 4] still fits it.
        real = submodcount.fixed_point_step
        monkeypatch.setattr(submodcount, "fixed_point_step",
                            lambda rows, d: [2 * r for r in real(rows, d)])
        with pytest.raises(ArithmeticError, match=r"\(2, 1\)"):
            component_lattice.__wrapped__((2, 1), 1)

    @pytest.mark.parametrize("Q,d", [(2, 1), (4, 2)])
    def test_every_lattice_is_a_palindrome(self, Q, d):
        # a finite module's submodule lattice is self-dual; the census
        # carries only the lower halves of its polynomials on that basis
        for size in range(1, 13):
            for lam in partitions_of(size):
                coeffs = component_lattice(lam, d)
                assert coeffs == coeffs[::-1], (lam, Q)


def oracle_by_size(lam, d):
    """The oracle's lattice, graded by GF(2)-dimension, read at the
    multiples of d (by size); its entries off that stride must be zero."""
    by_dim = graded_submodule_counts(lam, 1 << d, d)
    assert not any(c for k, c in enumerate(by_dim) if k % d), (lam, d)
    return by_dim[::d]


class TestChainDPAgainstReferences:
    """The column DP against independent second opinions: the type-by-type
    enumerator, brute-force submodule enumeration, and the closed form for
    two-part types."""

    @pytest.mark.parametrize("Q,d", [(2, 1), (4, 2), (8, 3)])
    def test_every_type_up_to_14(self, Q, d):
        for size in range(1, 15):
            for lam in partitions_of(size):
                assert component_lattice(lam, d) == oracle_by_size(lam, d), (lam, Q)

    def test_every_census_block_up_to_n24(self):
        blocks = {
            (c.module_type, c.deg)
            for n in range(1, 25)
            for ct in cycle_types_of(n)
            for c in primary_components(ct)
        }
        for key in blocks:
            assert component_lattice(*key) == oracle_by_size(*key), key

    @pytest.mark.parametrize("d", [18, 20, 36])
    def test_large_residue_degrees(self, d):
        # the degrees of the irreducibles of orders 19, 25 and 37, past the
        # blocks of the census at n <= 24
        for size in range(1, 7):
            for lam in partitions_of(size):
                assert component_lattice(lam, d) == oracle_by_size(lam, d), (lam, d)

    @pytest.mark.parametrize("Q,d", [(2, 1), (4, 2)])
    def test_brute_force_binned_by_size(self, Q, d):
        for size in range(1, 7):
            for lam in partitions_of(size):
                expected = [0] * (size + 1)
                for mu, count in nilpotent_submodule_census(lam, Q).items():
                    expected[sum(mu)] += count
                assert component_lattice(lam, d) == tuple(expected), (lam, Q)

    @pytest.mark.parametrize("Q,d", [(2, 1), (4, 2), (8, 3), (1 << 36, 36)])
    def test_two_part_closed_form(self, Q, d):
        # subgroups of Z_{p^a} x Z_{p^b}: sum over i <= a, j <= b of Q^min(i,j)
        for a in range(1, 33):
            for b in range(1, a + 1):
                expected = sum(Q ** min(i, j)
                               for i in range(a + 1) for j in range(b + 1))
                assert component_total((a, b), d) == expected, (a, b, Q)


def run_without_asserts(script):
    """Run script under python -O with the package on its path."""
    src = Path(submodcount.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)


def cores_up_to(size):
    """The empty core and every partition of at most size with no part 1."""
    yield ()
    for k in range(2, size + 1):
        yield from (lam for lam in partitions_of(k) if 1 not in lam)


class TestFixedPointWalk:
    """The fixed-point recurrence H'[t] = H[t-1] + Q^t H[t] against the
    type-by-type enumerator, and a walk of many fixed-point counts against
    one walk per type."""

    @pytest.mark.parametrize("Q,d", [(2, 1), (4, 2)])
    def test_every_small_core_and_fixed_point_count(self, Q, d):
        for core in cores_up_to(10):
            fs = range(0 if core else 1, 13)
            walked = list(fixed_point_walk(core, fs, d))
            assert [f for f, _ in walked] == list(fs)
            for f, lattice in walked:
                lam = core + (1,) * f
                assert tuple(lattice) == oracle_by_size(lam, d), (lam, Q)

    def test_sparse_fixed_point_counts(self):
        walked = dict(fixed_point_walk((3, 2), [0, 0, 5, 9], 1))
        for f in (0, 5, 9):
            lam = (3, 2) + (1,) * f
            assert tuple(walked[f]) == graded_submodule_counts(lam, 2, 1), lam

    def test_every_census_t1_type_at_n30_against_enumeration(self):
        cores = {}
        for lam_1, _ in count_codes(30).t1_weights:
            f = lam_1.count(1)
            cores.setdefault(lam_1[:len(lam_1) - f], []).append(f)
        for core, fs in cores.items():
            for f, lattice in fixed_point_walk(core, sorted(fs), 1):
                lam_1 = core + (1,) * f
                assert tuple(lattice) == graded_submodule_counts(lam_1, 2, 1), lam_1

    def test_every_census_t1_type_at_n48(self):
        cores = {}
        for lam_1, _ in count_codes(48).t1_weights:
            f = lam_1.count(1)
            cores.setdefault(lam_1[:len(lam_1) - f], []).append(f)
        assert sum(map(len, cores.values())) > len(cores) > 1
        for core, fs in cores.items():
            for f, lattice in fixed_point_walk(core, sorted(fs), 1):
                lam_1 = core + (1,) * f
                assert tuple(lattice) == component_lattice.__wrapped__(lam_1, 1), lam_1

    @pytest.mark.parametrize("core,fs", [((), [0]), ((2,), [3, 1])])
    def test_rejects_empty_type_and_descending_counts(self, core, fs):
        with pytest.raises(ValueError):
            list(fixed_point_walk(core, fs, 1))

    def test_corrupt_step_raises(self, monkeypatch):
        real = submodcount.fixed_point_step

        def corrupt(rows, d):
            new = real(rows, d)
            new[0] += 1  # one more submodule of dimension 0
            return new

        monkeypatch.setattr(submodcount, "fixed_point_step", corrupt)
        # the corrupted step also runs in the columns of the core; the
        # lattice [10, 53, 102, 101, 53, 16, 2] still fits the slots that
        # the column bound sizes
        with pytest.raises(ArithmeticError, match=r"end counts 10, 2"):
            list(fixed_point_walk((3, 2), [1], 1))

    def test_corrupt_step_raises_without_asserts(self):
        script = (
            "from codecensus import submodcount as s\n"
            "real = s.fixed_point_step\n"
            "def corrupt(rows, d):\n"
            "    new = real(rows, d)\n"
            "    new[0] += 1\n"
            "    return new\n"
            "s.fixed_point_step = corrupt\n"
            "list(s.fixed_point_walk((3, 2), [1], 1))\n"
        )
        proc = run_without_asserts(script)
        assert proc.returncode == 1
        assert "ArithmeticError: block lattice of type (3, 2, 1)" in proc.stderr
        assert "end counts 10, 2" in proc.stderr

    # (1, 1, 1) is walked from the empty core in three steps; adding 1 to
    # head 1 of every step past the first leaves both end heads alone, so
    # the lattice [1, 10, 8, 1] keeps its end counts and loses its symmetry.
    SKEWED_MESSAGE = "block lattice of type (1, 1, 1) over Q=2 is not a palindrome"

    def test_asymmetric_step_raises(self, monkeypatch):
        real = submodcount.fixed_point_step

        def skewed(rows, d):
            new = real(rows, d)
            if len(new) > 2:
                new[1] += 1
            return new

        monkeypatch.setattr(submodcount, "fixed_point_step", skewed)
        with pytest.raises(ArithmeticError) as exc:
            list(fixed_point_walk((), [3], 1))
        assert str(exc.value) == self.SKEWED_MESSAGE

    def test_asymmetric_step_raises_without_asserts(self):
        script = (
            "from codecensus import submodcount as s\n"
            "real = s.fixed_point_step\n"
            "def skewed(rows, d):\n"
            "    new = real(rows, d)\n"
            "    if len(new) > 2:\n"
            "        new[1] += 1\n"
            "    return new\n"
            "s.fixed_point_step = skewed\n"
            "list(s.fixed_point_walk((), [3], 1))\n"
        )
        proc = run_without_asserts(script)
        assert proc.returncode == 1
        assert f"ArithmeticError: {self.SKEWED_MESSAGE}" in proc.stderr

    # with the total bound patched to 1 the walk packs (1,) * 16 into
    # 1-byte slots, and its folded lattice needs more than 17 of them
    UNFIT_MESSAGE = "packed value does not fit 17 entries of 1 bytes"

    def test_unfit_fold_raises(self, monkeypatch):
        monkeypatch.setattr(submodcount, "_total_bound", lambda cols, d: 1)
        with pytest.raises(ArithmeticError) as exc:
            list(fixed_point_walk((), [16], 1))
        assert str(exc.value) == self.UNFIT_MESSAGE

    def test_unfit_fold_raises_without_asserts(self):
        script = (
            "from codecensus import submodcount as s\n"
            "s._total_bound = lambda cols, d: 1\n"
            "list(s.fixed_point_walk((), [16], 1))\n"
        )
        proc = run_without_asserts(script)
        assert proc.returncode == 1
        assert f"ArithmeticError: {self.UNFIT_MESSAGE}" in proc.stderr

    def test_one_column_dp_per_walk(self, monkeypatch):
        calls = []
        real = submodcount._packed_heads

        def counted(cols, d, slot):
            calls.append(cols)
            return real(cols, d, slot)

        monkeypatch.setattr(submodcount, "_packed_heads", counted)
        walked = list(fixed_point_walk((3, 2), [0, 2, 5], 1))
        assert [f for f, _ in walked] == [0, 2, 5]
        assert calls == [(2, 2, 1)]


def rogers_szego(N, x, Q):
    """S_N(x) = sum_k [N, k]_Q x^k, by the recurrence
    S_{k+1} = (1 + x) S_k + (Q^k - 1) x S_{k-1}."""
    prev, cur = 0, 1
    for k in range(N):
        prev, cur = cur, (1 + x) * cur + (Q ** k - 1) * x * prev
    return cur


class TestColumnBound:
    """The walk's slot width comes from prod_i G(lam'_i, Q), a bound on the
    lattice total: a column of length l multiplies the total by at most
    max over m of sum_t c_l(t, m) = S_{l-m}(Q^m), which is S_l(1)."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gain_is_the_largest_column_sum(self, d):
        Q = 1 << d
        for l in range(25):
            sums = [rogers_szego(l - m, Q ** m, Q) for m in range(l + 1)]
            for m, total in enumerate(sums):
                assert total == sum(gauss_binomial(l - m, t - m, Q) * Q ** (m * (l - t))
                                    for t in range(m, l + 1)), (l, m)
            assert sums == sorted(sums, reverse=True)
            assert submodcount._total_bound((l,), d) == max(sums) == gauss_total(l, Q)

    @pytest.mark.parametrize("Q,d", [(2, 1), (4, 2), (8, 3)])
    def test_bounds_every_lattice_total_up_to_12(self, Q, d):
        for size in range(1, 13):
            for lam in partitions_of(size):
                assert submodcount._total_bound(conjugate(lam), d) >= \
                    sum(graded_submodule_counts(lam, Q, d)), (lam, Q)

    @pytest.mark.parametrize("Q,d", [(2, 1), (4, 2), (8, 3)])
    def test_exact_for_semisimple_blocks(self, Q, d):
        for f in range(21):
            assert submodcount._total_bound(conjugate((1,) * f), d) == gauss_total(f, Q)

    def test_slot_bytes_at_n36_near_exact(self):
        # the walk sizes its slots for the largest type of each core; the
        # exact width is that of the type's lattice total
        tops = {}
        for lam_1, _ in count_codes(36).t1_weights:
            f = lam_1.count(1)
            core = lam_1[:len(lam_1) - f]
            tops[core] = max(tops.get(core, 0), f)
        bound_bytes = exact_bytes = 0
        for core, top in tops.items():
            lam = core + (1,) * top
            bound_bytes += (submodcount._total_bound(conjugate(lam), 1).bit_length() + 7) // 8
            exact_bytes += (component_total(lam, 1).bit_length() + 7) // 8
        assert bound_bytes <= 1.10 * exact_bytes, (bound_bytes, exact_bytes)


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

    def test_37_cycle_has_a_degree_36_block(self):
        # t^37 - 1 = (t + 1) times one irreducible of degree ord_37(2) = 36,
        # whose block has submodules only of dimension 0 and 36
        ct = CycleType((37,))
        poly = lattice_dim_poly(ct)
        assert len(poly) == 38
        assert [k for k, c in enumerate(poly) if c] == [0, 1, 36, 37]
        assert set(poly) == {0, 1}
        assert lattice_size(ct) == 4

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

    # each factor is checked to be a palindrome before its product is
    # made: the t+1 factor skewed by one in entry 1 raises on the packed
    # path (3,1,1: [1, 7, 7, 1] -> [1, 8, 7, 1], whose mirrored product
    # sums to 34, the factors' total) and on the half_product path (7^13)
    SKEWED_TYPES = pytest.mark.parametrize("parts,packed", [
        ((3, 1, 1), True), ((7,) * 13, False),
    ], ids=["3,1,1", "7^13"])

    @staticmethod
    def skewed_message(parts, packed):
        ct = CycleType(parts)
        assert takes_packed_path(ct) == packed
        return f"block product of order 1 of cycle type {ct} is not a palindrome"

    @SKEWED_TYPES
    def test_asymmetric_factor_raises(self, monkeypatch, parts, packed):
        real = submodcount.order_lattice

        def skewed(lam, count, d):
            poly = list(real(lam, count, d))
            if len(poly) > 2:
                poly[1] += 1
            return poly

        monkeypatch.setattr(submodcount, "order_lattice", skewed)
        with pytest.raises(ArithmeticError) as exc:
            lattice_dim_poly(CycleType(parts))
        assert str(exc.value) == self.skewed_message(parts, packed)

    @SKEWED_TYPES
    def test_asymmetric_factor_raises_without_asserts(self, parts, packed):
        script = (
            "from codecensus import submodcount as s\n"
            "from codecensus.cyclestruct import CycleType\n"
            "real = s.order_lattice\n"
            "def skewed(lam, count, d):\n"
            "    poly = list(real(lam, count, d))\n"
            "    if len(poly) > 2:\n"
            "        poly[1] += 1\n"
            "    return poly\n"
            "s.order_lattice = skewed\n"
            f"s.lattice_dim_poly(CycleType({parts!r}))\n"
        )
        proc = run_without_asserts(script)
        assert proc.returncode == 1
        assert f"ArithmeticError: {self.skewed_message(parts, packed)}" in proc.stderr

    def test_kernel_of_t_plus_1_block_is_cycle_count(self):
        for n in range(1, 13):
            for ct in cycle_types_of(n):
                lam = primary_components(ct)[0].module_type
                assert conjugate(lam)[0] == ct.r


def schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def takes_packed_path(ct):
    """Whether lattice_dim_poly makes ct's lower half as one packed product:
    its lattice total fits PACKED_SLOT_CUTOFF bytes."""
    return (lattice_size(ct).bit_length() + 7) // 8 <= submodcount.PACKED_SLOT_CUTOFF


def per_block_dim_poly(ct):
    """One plain convolution per primary block, each spread by its degree
    into GF(2)-dimension coordinates: the reference for the per-order
    strided product."""
    poly = [1]
    for comp in primary_components(ct):
        by_size = component_lattice(comp.module_type, comp.deg)
        block = [0] * (comp.deg * (len(by_size) - 1) + 1)
        block[::comp.deg] = by_size
        for _ in range(comp.count):
            poly = schoolbook(poly, block)
    return tuple(poly)


def random_cycle_type(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    seen, parts = [False] * n, []
    for i in range(n):
        length = 0
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length:
            parts.append(length)
    return CycleType(tuple(sorted(parts, reverse=True)))


class TestGradedBruteForce:
    """Every entry of lattice_dim_poly against the invariant subspaces of
    that dimension, counted by brute force."""

    @pytest.mark.parametrize("ct", [ct for n in range(1, 7) for ct in cycle_types_of(n)]
                             + [CycleType(p) for p in ((7,), (6, 1), (4, 3), (2, 2, 2, 1))],
                             ids=str)
    def test_invariant_subspaces_by_dimension(self, ct):
        perm = perm_from_cycle_type(ct.parts)
        counts = [0] * (ct.n + 1)
        for s in enum_subspaces(ct.n):
            if apply_perm(s, perm, ct.n) == s:
                counts[len(s)] += 1
        assert lattice_dim_poly(ct) == tuple(counts)


class TestPerOrderProduct:
    """The per-order strided product against one plain convolution per
    block, on types whose orders carry several irreducibles."""

    # the lattice total of WIDE is too wide for the packed product and the
    # others' fit, so both paths of lattice_dim_poly meet the reference
    WIDE = (21,) * 20 + (7,) * 10

    @pytest.mark.parametrize("parts", [
        (7,), (14, 7), (31,), (21, 7, 3, 1), (127, 1), (255,), (1023,) + (1,) * 20, WIDE,
    ], ids=lambda p: ",".join(map(str, p[:4])))
    def test_many_blocks_per_order(self, parts):
        ct = CycleType(parts)
        assert max(c.count for c in primary_components(ct)) > 1
        assert takes_packed_path(ct) == (parts != self.WIDE)
        expected = per_block_dim_poly(ct)
        assert lattice_dim_poly(ct) == expected
        assert lattice_size(ct) == sum(expected)

    def test_random_permutation_types(self):
        rng = random.Random(2020)
        for _ in range(30):
            ct = random_cycle_type(rng, rng.randint(64, 400))
            expected = per_block_dim_poly(ct)
            assert lattice_dim_poly(ct) == expected, ct
            assert lattice_size(ct) == sum(expected), ct

    # lattice_dim_poly keeps lower halves, so the parity of n and of the
    # last order's degree decide where each mirror folds: one type at
    # bench scale for each of the four parities (n, degree)
    @pytest.mark.parametrize("parts,parities", [
        ((581, 450, 30, 9, 4), (0, 0)),
        ((203, 199, 154, 123, 73, 48, 8, 2), (0, 1)),
        ((443, 423, 115, 32, 13, 3, 2, 1, 1), (1, 0)),
        ((369, 263, 178, 68, 59, 15, 4, 1), (1, 1)),
    ], ids=lambda p: ",".join(map(str, p[:3])))
    def test_bench_scale_types_of_every_parity(self, parts, parities):
        ct = CycleType(parts)
        assert (ct.n % 2, primary_components(ct)[-1].deg % 2) == parities
        assert lattice_dim_poly(ct) == per_block_dim_poly(ct)

    @settings(derandomize=True, max_examples=200)
    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=12),
           st.lists(st.integers(-50, 50), min_size=1, max_size=8),
           st.integers(1, 6), st.integers(0, 60))
    def test_convolve_is_schoolbook_with_spread_b(self, a, b, stride, size):
        # convolve makes full stride-1 products; the strided and truncated
        # ones are add_product into zeros of the length kept
        spread = [0] * (stride * (len(b) - 1) + 1)
        spread[::stride] = b
        assert convolve(a, b) == schoolbook(a, b)
        full = len(a) + len(spread) - 1
        assert add_product([0] * full, a, b, stride) == schoolbook(a, spread)
        assert add_product([0] * min(size, full), a, b, stride) == \
            schoolbook(a, spread)[:size]


def naive_add_product(out, a, b, stride):
    """out plus a(t) * b(t^stride), term by term, cut at len(out)."""
    out = list(out)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + stride * j < len(out):
                out[i + stride * j] += x * y
    return out


class TestAddProduct:
    """The one convolution kernel: a(t) * b(t^stride) added into out, up
    to len(out)."""

    def test_truncates_at_the_length_of_out(self):
        # (1 + 2t + 3t^2)(1 + t) = 1 + 3t + 5t^2 + 3t^3
        assert add_product([0] * 3, [1, 2, 3], [1, 1]) == [1, 3, 5]
        assert add_product([0] * 3, [1, 1], [1, 2, 3]) == [1, 3, 5]
        assert add_product([0], [4, 5], [6, 7]) == [24]

    def test_stride_with_the_shorter_factor_first(self):
        # (1 + 2t)(1 + t^2 + t^4): a is walked outside
        assert add_product([0] * 6, [1, 2], [1, 1, 1], 2) == [1, 2, 1, 2, 1, 2]
        assert add_product([0] * 4, [1, 2], [1, 1, 1], 2) == [1, 2, 1, 2]

    def test_stride_with_the_longer_factor_first(self):
        # (1 + 2t + 3t^2 + 4t^3)(5 + 6t^3): b is walked outside
        assert add_product([0] * 7, [1, 2, 3, 4], [5, 6], 3) == [5, 10, 15, 26, 12, 18, 24]
        assert add_product([0] * 5, [1, 2, 3, 4], [5, 6], 3) == [5, 10, 15, 26, 12]

    def test_adds_onto_a_nonzero_out_in_place(self):
        out = [10, 20, 30]
        assert add_product(out, [1, 1], [1, 1]) is out
        assert out == [11, 22, 31]
        assert add_product(out, [0, 2], [3, 0, 4], 2) == [11, 28, 31]

    @settings(derandomize=True, max_examples=200)
    @given(st.lists(st.integers(-50, 50), max_size=10),
           st.lists(st.integers(-50, 50), min_size=1, max_size=12),
           st.lists(st.integers(-50, 50), min_size=1, max_size=8),
           st.integers(1, 6))
    def test_matches_a_naive_double_loop(self, out, a, b, stride):
        assert add_product(list(out), a, b, stride) == naive_add_product(out, a, b, stride)

    @settings(derandomize=True, max_examples=200)
    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=12),
           st.lists(st.integers(-50, 50), min_size=1, max_size=8),
           st.integers(1, 6), st.integers(0, 60))
    def test_convolve_is_add_product_into_zeros(self, a, b, stride, size):
        assert convolve(a, b) == add_product([0] * (len(a) + len(b) - 1), a, b)
        spread = [0] * (stride * (len(b) - 1) + 1)
        spread[::stride] = b
        n = min(size, len(a) + stride * (len(b) - 1))
        assert add_product([0] * n, a, b, stride) == schoolbook(a, spread)[:n]
