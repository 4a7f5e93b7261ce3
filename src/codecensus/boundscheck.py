"""Executable finite-n checks for every inequality and constant in scope.

Each check returns a CheckResult.  Comparisons are exact integer
comparisons wherever both sides are integers; fractional powers of two are
handled by raising both sides to the power that clears the denominator
(e.g. the 2^(k/8) bound is checked as an exact comparison of 8th powers).
Asymptotic-constant checks are report-only, never asserted.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice
from math import comb, factorial

from .burnside import (census_rows, census_rows_beside, correction_report, count_codes,
                       non_identity_sum)
from .cyclestruct import cycle_types_of, primary_components
from .qarith import (DEFAULT_PRECISION, _gauss_totals, _scaled, gauss_binomial, gauss_total,
                     lemma1_tail_product)
from .submodcount import component_total, components_size

PASS = "pass"
FAIL = "fail"
REPORT = "report-only"

LOG_BASE_NOTE = "log means log2 throughout"

# the largest census row each check reads; run_suite makes them in one pass
BOUND4_MAX_N = 20
DIMS_MAX_N = 40
DCLASS_MAX_N = 40
THEOREM_N = (20, 30, 40)

# the suites run_suite runs, in the order the CLI lists them
SUITES = ("all", "lemma1", "lemma23", "bound4", "dims", "dclass")


class CheckResult(namedtuple("CheckResult", "name n_range status witnesses counterexample")):
    __slots__ = ()

    def __new__(cls, name: str, n_range: tuple[int, int], status: str,
                witnesses: dict | None = None, counterexample: dict | None = None):
        # a new witnesses dict for each result, never a shared default
        return super().__new__(cls, name, n_range, status,
                               {} if witnesses is None else witnesses, counterexample)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "n_range": list(self.n_range),
            "status": self.status,
            "witnesses": {k: str(v) for k, v in self.witnesses.items()},
            "counterexample": (
                {k: str(v) for k, v in self.counterexample.items()}
                if self.counterexample
                else None
            ),
        }


def check_lemma1(n_max: int) -> CheckResult:
    """Sandwich bound on subspace counts: 2^(n^2/4) <= G(n,2) <= 23*2^(n^2/4),
    exact: each side is decided by the bit length of G(n,2) where that
    suffices and by comparing 4th powers otherwise; plus the tail-product
    constant and the even/odd limit values.  One upward sweep of qarith's
    recurrence makes each G(n,2) once, and u_n is read off that same value."""
    if n_max < 10:
        raise ValueError(f"n_max must be >= 10, got {n_max}")
    us = []  # u_n for n = 0..n_max, each computed once
    for n, g in zip(range(n_max + 1), _gauss_totals(2)):
        # With b the bit length of g, 2^(b-1) <= g < 2^b.  So 4(b - 1) >= n^2
        # proves g^4 >= 2^(n^2), and 4b <= n^2 + 18 proves g^4 < 2^(n^2+18)
        # <= 23^4 * 2^(n^2), as 2^18 = 262,144 <= 23^4 = 279,841.  Only a
        # side the bit length leaves open takes the exact 4th power; for
        # n <= 5000 there is none.
        b = g.bit_length()
        if 4 * (b - 1) < n * n and g ** 4 < 1 << n * n:  # u_n < 1
            return CheckResult("lemma1", (0, n_max), FAIL,
                               counterexample={"n": n, "side": "lower"})
        if 4 * b > n * n + 18 and g ** 4 > 23 ** 4 << n * n:  # u_n > 23
            return CheckResult("lemma1", (0, n_max), FAIL,
                               counterexample={"n": n, "side": "upper"})
        us.append(_scaled(g, n, 2, DEFAULT_PRECISION))
    max_u = max(us)
    tail = lemma1_tail_product(1000)
    if not tail < 23:
        return CheckResult("lemma1", (0, n_max), FAIL,
                           counterexample={"tail_product": tail})
    witnesses = {
        "max_u": max_u,
        "max_u_at": us.index(max_u),
        "tail_product_1000": tail,
        "note": LOG_BASE_NOTE,
    }
    if n_max >= 201:
        import mpmath

        for n, limit in ((200, "7.371969"), (201, "7.371949")):
            witnesses[f"u_{n}"] = us[n]
            if not abs(us[n] - mpmath.mpf(limit)) < mpmath.mpf("1e-5"):
                return CheckResult("lemma1", (0, n_max), FAIL,
                                   counterexample={"n": n, "limit": limit})
    return CheckResult("lemma1", (0, n_max), PASS, witnesses)


def check_lemma2_3(n: int) -> CheckResult:
    """For every cycle type of S_n: the two bounds on the t+1 block and the
    whole-lattice bound via that block, all exact.  Each G(k, 2), k <= n,
    comes from one upward sweep, and L from the primary components the
    t+1 block is read from."""
    if n > 12:
        raise ValueError(f"n must be <= 12, got {n}")
    G = list(islice(_gauss_totals(2), n + 1))
    worst = None
    for ct in cycle_types_of(n):
        comps = primary_components(ct)
        t1 = comps[0]  # the t+1 block (order 1, degree 1)
        L1, n1, mu1 = component_total(t1.module_type, 1), t1.dim, t1.max_exponent
        r = ct.r
        L = components_size(comps)
        bound3a = G[r] * G[n1 - r]
        bound3b = G[r] ** mu1
        if L1 > bound3a:
            return CheckResult("lemma3a", (n, n), FAIL,
                               counterexample={"type": str(ct), "L1": L1,
                                               "bound": bound3a})
        if L1 > bound3b:
            return CheckResult("lemma3b", (n, n), FAIL,
                               counterexample={"type": str(ct), "L1": L1,
                                               "bound": bound3b})
        # L <= L1 * 2^((n-n1)^2/8 + 5n), compared via exact 8th powers
        if L ** 8 > L1 ** 8 << ((n - n1) ** 2 + 40 * n):
            return CheckResult("lemma2", (n, n), FAIL,
                               counterexample={"type": str(ct), "L": L})
        slack = bound3a - L1
        if worst is None or slack < worst[0]:
            worst = (slack, str(ct))
    return CheckResult("lemma2_3", (n, n), PASS,
                       {"worst_lemma3a_slack": worst[0], "at_type": worst[1]})


def check_lower_bound_4(n: int) -> CheckResult:
    """The transposition-class floor: the non-identity orbit sum is at least
    C(n,2) * G(n-1,2)."""
    if not 2 <= n <= BOUND4_MAX_N:
        raise ValueError(f"n must be in [2, {BOUND4_MAX_N}], got {n}")
    total = non_identity_sum(n)
    floor = comb(n, 2) * gauss_total(n - 1, 2)
    status = PASS if total >= floor else FAIL
    return CheckResult("lower_bound_4", (n, n), status,
                       {"sum": total, "floor": floor, "ratio_num": total,
                        "ratio_den": floor})


def d_ranges(n: int, n1: int, r: int) -> tuple[bool, bool, bool, bool]:
    """Membership of a non-identity cycle type with t+1 block dimension n1
    and r cycles in the raw ranges D1..D4, by exact integer comparisons:

    D1: n1 <= n - 6 log n                 n^6 * 2^n1 <= 2^n
    D2: 1 <= r <= 8 log n1                2^r <= n1^8
    D3: 8 log n1 < r < n1 - 8 log n1      n1^8 < 2^r, n1^8 * 2^r < 2^n1
    D4: n1 - 8 log n1 <= r <= n - 1       2^n1 <= n1^8 * 2^r

    D2..D4 exclude D1."""
    in_d1 = n ** 6 << n1 <= 1 << n
    in_d2 = not in_d1 and 1 <= r and 1 << r <= n1 ** 8
    in_d3 = not in_d1 and n1 ** 8 < 1 << r and n1 ** 8 << r < 1 << n1
    in_d4 = not in_d1 and 1 << n1 <= n1 ** 8 << r and r <= n - 1
    return in_d1, in_d2, in_d3, in_d4


def classify_D(n: int) -> CheckResult:
    """Partition the non-identity cycle types (weighted by class size) into
    the four diagnostic classes by block dimension n1 and cycle count r;
    reports each class's share of the orbit sum.  Classes are assigned
    first-match in order D1..D4 (the raw D2/D4 ranges overlap at small n);
    only the cover-everything property is asserted.  n1 and r are read off
    the t+1 module type lambda_1 (|lambda_1| and its number of parts), so
    the census row's t1_weights carry the weights, summed per (n1, r) pair
    with the pair's first lambda_1 kept for the counterexample; the pairs
    are classified in first-seen order."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    sums = {k: 0 for k in ("D1", "D2", "D3", "D4")}
    overlap_weight = 0
    pairs = {}
    for lam_1, weight in count_codes(n).t1_weights:
        pairs.setdefault((sum(lam_1), len(lam_1)), [lam_1, 0])[1] += weight
    for (n1, r), (lam_1, weight) in pairs.items():
        if r == n:  # identity
            continue
        in_d = d_ranges(n, n1, r)
        if not any(in_d):
            return CheckResult("classify_D", (n, n), FAIL,
                               counterexample={"t1_type": ",".join(map(str, lam_1)),
                                               "n1": n1, "r": r})
        first = in_d.index(True)
        sums[f"D{first + 1}"] += weight
        if first == 1 and in_d[3]:  # D2, also in the raw D4 range
            overlap_weight += weight
    total = sum(sums.values())
    import mpmath

    with mpmath.workprec(53):  # float(v) / total, without the float's 2^1024 range
        shares = {k: float(mpmath.mpf(v) / mpmath.mpf(total)) if total else 0.0
                  for k, v in sums.items()}
    return CheckResult("classify_D", (n, n), REPORT,
                       {"sums": sums, "shares": shares,
                        "d2_d4_overlap_weight": overlap_weight,
                        "note": LOG_BASE_NOTE})


def check_dimension_bounds(n: int) -> CheckResult:
    """Gauss-coefficient sandwich 2^(nd-d^2) <= G(n,2,d) <= 4*2^(nd-d^2)
    for all n' <= n, and the per-dimension orbit floor b(n',d)*n'! >=
    G(n',2,d) for n' <= min(n, 40), in one pass over (n', d); the first
    failing (n', d) is reported.  The matching upper bound on b(n,d) is
    reported as an observed ratio near d = n/2, never asserted; it reads
    row min(n, 40) again and makes those G(n',2,d) a second time."""
    if n > 100:
        raise ValueError(f"n must be <= 100, got {n}")
    n31 = min(n, DIMS_MAX_N)
    rows = census_rows(n31)  # every row read below, from one pass
    for m in range(1, n + 1):
        row = rows[m - 1] if m <= n31 else None
        for d in range(m + 1):
            g = gauss_binomial(m, d, 2)
            low = 1 << (m * d - d * d)
            if not low <= g <= 4 * low:
                return CheckResult("gauss_sandwich_27", (1, n), FAIL,
                                   counterexample={"n": m, "d": d, "G": g})
            if row and row.by_dim[d] * factorial(m) < g:
                return CheckResult("dim_floor_31", (1, n31), FAIL,
                                   counterexample={"n": m, "d": d})
    import mpmath

    ratios = {}
    row = count_codes(n31)
    nfact = factorial(n31)
    for c in (0, 1, 2):
        d = n31 // 2 + c
        if d <= n31:
            with mpmath.workdps(30):
                ratios[f"d={d}"] = +(
                    mpmath.mpf(row.by_dim[d] * nfact)
                    / mpmath.mpf(gauss_binomial(n31, d, 2))
                )
    return CheckResult("dimension_bounds", (1, n), PASS,
                       {"ratio_upper_31_at_n": n31, "observed_ratios": ratios})


def theorem_constants_report(n_values=THEOREM_N) -> CheckResult:
    """Empirical exponents e(n) next to the paper-facing constants; the
    bracket constants themselves are never asserted.  They are ambiguous by
    a factor 2 in R: the exact e(n) here tends to 1/4 (0.216 at n = 40),
    one below the bracket around 5/4, which is what counting n^2 rather
    than C(n, 2) = n(n-1)/2 transpositions in the dominant term gives."""
    rows = {}
    for n in n_values:
        rep = correction_report(n)
        rows[n] = {"R": rep["R"], "rho": rep["rho"], "e": rep["e"]}
    return CheckResult("theorem_constants", (min(n_values), max(n_values)),
                       REPORT,
                       {"per_n": rows,
                        "paper_constants": {"bracket": (1.2499, 1.2501),
                                            "even": 13 / 4, "odd": 11 / 4},
                        "note": LOG_BASE_NOTE})


def run_suite(suite: str, max_n: int) -> list[CheckResult]:
    """Run one suite of SUITES (all runs every other); deterministic result
    order.  Every census row the suite reads comes from one pass, made
    before the checks that read rows.  Suite all runs lemma1 and lemma23,
    which read none, beside that pass: on two CPUs, where
    burnside._split allows, a forked worker makes the pass meanwhile
    (census_rows_beside); elsewhere, and in every other suite, the pass
    comes first.  Any other name raises ValueError."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; the suites are {', '.join(SUITES)}")
    top = {"all": max(BOUND4_MAX_N, DIMS_MAX_N, DCLASS_MAX_N, *THEOREM_N),
           "bound4": BOUND4_MAX_N, "dims": DIMS_MAX_N,
           "dclass": DCLASS_MAX_N}.get(suite)

    def lemmas() -> list[CheckResult]:
        results = [check_lemma1(max(max_n, 10))] if suite in ("all", "lemma1") else []
        if suite in ("all", "lemma23"):
            results += map(check_lemma2_3, range(1, min(max_n, 12) + 1))
        return results

    if suite == "all":
        results = census_rows_beside(min(max_n, top), lemmas)
    else:
        if top:
            census_rows(min(max_n, top))
        results = lemmas()
    if suite in ("all", "bound4"):
        for n in range(2, min(max_n, BOUND4_MAX_N) + 1):
            results.append(check_lower_bound_4(n))
    if suite in ("all", "dims"):
        results.append(check_dimension_bounds(min(max_n, 100)))
    if suite in ("all", "dclass"):
        for n in range(2, min(max_n, DCLASS_MAX_N) + 1):
            results.append(classify_D(n))
    if suite == "all" and max_n >= 20:
        results.append(theorem_constants_report(
            tuple(n for n in THEOREM_N if n <= max_n)))
    return results
