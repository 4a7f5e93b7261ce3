"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Tolerances are fixed here, not configurable."""

import time
from math import comb, factorial

import mpmath
import pytest

from codecensus.burnside import (
    census_rows,
    correction_report,
    count_codes,
    non_identity_sum,
)
from codecensus.cyclestruct import (
    CycleType,
    class_size,
    cycle_types_of,
    primary_components,
)
from codecensus.oracle import (
    classify,
    count_submodules_by_type,
    invariant_count,
    nilpotent_submodule_census,
    perm_from_cycle_type,
)
from codecensus.qarith import (
    gauss_binomial,
    gauss_total,
    lemma1_tail_product,
    scaled_u,
)
from codecensus.submodcount import (
    component_total,
    lattice_size,
)
from codecensus.cyclestruct import partitions_of


def report(number, name, ok):
    print(f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_11_submodule_formula_validation_gate():
    # runs first: criteria 1-3 rely on the type-counting formula
    ok = True
    for size in range(1, 7):
        for lam in partitions_of(size):
            for Q in (2, 4):
                census = nilpotent_submodule_census(lam, Q)
                for top in range(size + 1):
                    for mu in [()] if top == 0 else partitions_of(top):
                        if census.get(mu, 0) != count_submodules_by_type(lam, mu, Q):
                            ok = False
    report(11, "submodule formula vs brute force", ok)


def test_01_census_matches_orbit_classification():
    start = time.time()
    ok = True
    for n in range(1, 6):
        rep = classify(n)
        row = count_codes(n)
        if rep.b != row.b:
            ok = False
    ok = ok and count_codes(4).b == 16
    ok = ok and time.time() - start < 60
    report(1, "codes census vs brute-force orbits (n<=5)", ok)


def test_02_lattice_sizes_match_invariant_counts():
    start = time.time()
    ok = True
    for n in range(1, 7):
        for ct in cycle_types_of(n):
            if lattice_size(ct) != invariant_count(perm_from_cycle_type(ct.parts)):
                ok = False
    for parts in ((7,), (6, 1), (4, 3), (2, 2, 2, 1)):
        if lattice_size(CycleType(parts)) != invariant_count(
                perm_from_cycle_type(parts)):
            ok = False
    ok = ok and time.time() - start < 60
    report(2, "lattice sizes vs invariant counts (n<=6 + n=7 spots)", ok)


def test_03_transposition_identity():
    ok = all(
        lattice_size(CycleType((2,) + (1,) * (n - 2)))
        == 2 * gauss_total(n - 1, 2) - gauss_total(n - 2, 2)
        for n in range(2, 31)
    )
    report(3, "transposition lattice identity (2<=n<=30)", ok)


def test_04_recurrence_and_decomposition():
    ok = all(
        gauss_total(n + 1, 2)
        == 2 * gauss_total(n, 2) + (2 ** n - 1) * gauss_total(n - 1, 2)
        for n in range(1, 200)
    )
    ok = ok and all(
        sum(gauss_binomial(n, d, 2) for d in range(n + 1)) == gauss_total(n, 2)
        for n in range(121)
    )
    report(4, "subspace-count recurrence and row sums", ok)


def test_05_even_odd_limits():
    ok = abs(scaled_u(200, 2) - mpmath.mpf("7.371969")) < mpmath.mpf("1e-5")
    ok = ok and abs(scaled_u(201, 2) - mpmath.mpf("7.371949")) < mpmath.mpf("1e-5")
    report(5, "scaled-count limits at n=200/201", ok)


def test_06_lemma1_constants():
    ok = lemma1_tail_product(1000) < 23
    ok = ok and all(1 <= scaled_u(n, 2) <= 23 for n in range(501))
    report(6, "tail product < 23 and 1 <= u_n <= 23 (n<=500)", ok)


def test_07_lemmas_2_3_exact():
    ok = True
    for n in range(1, 13):
        for ct in cycle_types_of(n):
            comp1 = primary_components(ct)[0]
            L1 = component_total(comp1.module_type, 1)
            n1, mu1, r = comp1.dim, comp1.max_exponent, ct.r
            L = lattice_size(ct)
            if L1 > gauss_total(r, 2) * gauss_total(n1 - r, 2):
                ok = False
            if L1 > gauss_total(r, 2) ** mu1:
                ok = False
            # exact comparison of 8th powers clears the /8 in the exponent
            if L ** 8 > L1 ** 8 << ((n - n1) ** 2 + 40 * n):
                ok = False
    report(7, "block bounds and whole-lattice bound (n<=12)", ok)


def test_08_lower_bound_and_gauss_sandwich():
    ok = all(
        non_identity_sum(n) >= comb(n, 2) * gauss_total(n - 1, 2)
        for n in range(2, 21)
    )
    for n in range(1, 101):
        for d in range(1, n + 1):
            low = 1 << (n * d - d * d)
            if not low <= gauss_binomial(n, d, 2) <= 4 * low:
                ok = False
    report(8, "orbit-sum floor (n<=20) and coefficient sandwich (n<=100)", ok)


def test_09_correction_term_convergence():
    start = time.time()
    reports = {n: correction_report(n) for n in (20, 30, 40)}
    ok = abs(reports[40]["rho"] - 1) < mpmath.mpf("0.01")
    gaps = [abs(reports[n]["rho"] - 1) for n in (20, 30, 40)]
    ok = ok and gaps[0] > gaps[1] > gaps[2]
    ok = ok and time.time() - start < 600
    # bracket constants are reported, never asserted
    print(f"  reported: e(20)={float(reports[20]['e']):.4f} "
          f"e(30)={float(reports[30]['e']):.4f} "
          f"e(40)={float(reports[40]['e']):.4f} "
          f"(paper constants 1.2499/1.2501)")
    report(9, "correction-term convergence at n in {20,30,40}", ok)


def test_10_small_n_structure():
    rep = classify(2)
    ok = rep.beta == (3, 5)
    # equality at n=2 in the averaged-automorphism bound
    num, den = rep.beta
    ok = ok and rep.b * den * factorial(2) == (den + num) * gauss_total(2, 2)
    for n, row in enumerate(census_rows(40), 1):
        if row.by_dim != row.by_dim[::-1] or sum(row.by_dim) != row.b:
            ok = False
        nfact = factorial(n)
        for d in range(n + 1):
            if row.by_dim[d] * nfact < gauss_binomial(n, d, 2):
                ok = False
    report(10, "rigidity fraction, duality, dimension floors (n<=40)", ok)


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
