import ast
import os
import subprocess
import sys
from hashlib import sha256
from itertools import permutations
from math import factorial
from pathlib import Path

import pytest

from codecensus import oracle
from codecensus.burnside import count_codes
from codecensus.cyclestruct import CycleType, cycle_types_of, partitions_of
from codecensus.oracle import (
    _gl_cycle_lengths,
    apply_perm,
    classify,
    count_submodules_by_type,
    enum_subspaces,
    graded_submodule_counts,
    invariant_count,
    map_apply,
    minimal_polynomial,
    nilpotent_submodule_census,
    perm_from_cycle_type,
    perm_operator,
    rref,
    slepian_code_count,
)
from codecensus.qarith import gauss_total
from codecensus.submodcount import lattice_size

# the first four n = 7 cases keep their ids; the rest of the 15 types follow
N7_FIRST_CASES = [(7,), (6, 1), (4, 3), (2, 2, 2, 1)]


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

    @pytest.mark.parametrize("parts", N7_FIRST_CASES + [
        parts for parts in partitions_of(7) if parts not in N7_FIRST_CASES])
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

    def test_rejects_size_7_over_gf4(self):
        # GF(4)^7 has 51,409,856 subspaces, GF(4)^6 565,723
        with pytest.raises(ValueError, match="51409856 subspaces"):
            nilpotent_submodule_census((1,) * 7, 4)


class TestGradedSubmoduleCounts:
    def test_small_blocks(self):
        assert graded_submodule_counts((2, 1), 2, 1) == (1, 3, 3, 1)
        assert graded_submodule_counts((1, 1), 4, 2) == (1, 0, 5, 0, 1)

    def test_rejects_mismatched_field(self):
        with pytest.raises(ValueError):
            graded_submodule_counts((1,), 4, 1)

    def test_rejects_a_type_out_of_order(self):
        # read as nonincreasing, (1, 2) would be counted as (1, 1)
        with pytest.raises(ValueError, match=r"type \(1, 2\) is not in nonincreasing order"):
            graded_submodule_counts((1, 2), 2, 1)
        for lam, mu in (((1, 2), (1,)), ((2, 1), (1, 2))):
            with pytest.raises(ValueError, match="not in nonincreasing order"):
                count_submodules_by_type(lam, mu, 2)
        assert count_submodules_by_type((2, 1), (1, 1), 2) == 1


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

    def test_every_cycle_type_up_to_14_is_pinned(self):
        # which irreducible, exponent and kernel dimension each factor has,
        # in order: sha256 of the repr of (parts, minimal_polynomial) for
        # every cycle type with n = 1..14, taken from the matrix-algebra
        # version of minimal_polynomial
        blob = repr([(ct.parts, minimal_polynomial(perm_from_cycle_type(ct.parts)))
                     for n in range(1, 15) for ct in cycle_types_of(n)]).encode()
        assert sha256(blob).hexdigest() == \
            "2c8069d45c9beeab2d791619e65d3ab6118472d879c8bfcaae6eea01e234eed0"


class TestSlepianCount:
    """Slepian's count over GL(d,2) against the census: it gives
    sum_{k <= d} b(n, k), and duality b(n, d) = b(n, n - d) carries each
    difference to the top of the row."""

    def test_group_orders(self):
        assert [sum(_gl_cycle_lengths(d).values()) for d in range(5)] == \
            [1, 1, 6, 168, 20160]

    @pytest.mark.parametrize("n", [10, 20, 30, 40, 50])
    def test_low_and_high_dimensions_of_the_census_row(self, n):
        row = count_codes(n)
        below = 0
        for d in range(5):
            count = slepian_code_count(n, d)
            assert count - below == row.by_dim[d] == row.by_dim[n - d], (n, d)
            below = count

    @pytest.mark.parametrize("n", range(1, 5))
    def test_dimension_at_least_n_counts_every_code(self, n):
        assert slepian_code_count(n, 4) == count_codes(n).b

    @pytest.mark.parametrize("n,d", [(0, 1), (3, -1), (3, 5)])
    def test_rejects_out_of_range(self, n, d):
        with pytest.raises(ValueError):
            slepian_code_count(n, d)


class TestIndependence:
    """The oracle is the reference the fast path is checked against, so the
    two share no code, and importing the package and its CLI does not load
    the oracle (nor mpmath, which only the real-valued reports need)."""

    def test_oracle_imports_nothing_from_the_package(self):
        tree = ast.parse(Path(oracle.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0, f"relative import at line {node.lineno}"
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            assert not any(name.split(".")[0] == "codecensus" for name in names), \
                f"package import at line {node.lineno}"

    @staticmethod
    def _loaded_after(imports, modules):
        """Which of `modules` a fresh `python -S` has loaded once it has run
        `import sys, <imports>`.  -S: no site .pth file may load one of
        them before the package does."""
        src = Path(oracle.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        script = (f"import sys, {imports}; "
                  f"print([m for m in {modules!r} if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-S", "-c", script],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return ast.literal_eval(proc.stdout)

    def test_package_and_cli_import_leaves_the_oracle_unloaded(self):
        assert self._loaded_after("codecensus, codecensus.cli", (
            "codecensus.oracle", "mpmath", "dataclasses", "inspect", "typing")) == []

    def test_oracle_import_loads_no_dataclasses_inspect_or_typing(self):
        assert self._loaded_after("codecensus.oracle",
                                  ("dataclasses", "inspect", "typing")) == []

    def test_oracle_import_loads_no_fast_path_module(self):
        # the package's __init__ is the oracle's parent, so it runs first:
        # it must load none of the code the oracle is the reference for
        assert self._loaded_after("codecensus.oracle", tuple(
            f"codecensus.{name}" for name in ("burnside", "cyclestruct", "qarith",
                                              "submodcount", "boundscheck", "cli"))) == []
