"""Acceptance suite: the package's exit criteria, one test per criterion.

Every verdict is exact (rational comparisons; nothing passes by tolerance).
Each test prints a single pass/fail line; run with `pytest -v
tests/test_acceptance.py` or `pytest -s` to see them.
"""

import time
from fractions import Fraction

from delpoly.analysis import (
    check_positivity,
    check_product_lower_bound,
    default_conjecture_grid,
    default_inequality_grid,
    scan_conjecture,
)
from delpoly.dcore import EvalPoint, Route, clear_caches, d_eval, d_eval_sequence, d_sequence, delannoy_dp
from delpoly.exactnum import binom_gen
from delpoly.hyper import d_via_hyper, d_via_hyper_companion
from delpoly.verify import (
    SUITE_IDS,
    SuiteConfig,
    deterministic_points,
    run_suite,
    suite_passed,
    verify_clausen_product,
)

FAST_DEPTHS = {identity_id: 5 for identity_id in SUITE_IDS}


def _report(name: str, ok: bool, note: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}{' (' + note + ')' if note else ''}")
    assert ok, name


def test_criterion_1_five_route_agreement():
    """All five construction routes agree symbolically up to n = 30 in <10 s."""
    clear_caches()
    start = time.perf_counter()
    sequences = {route: d_sequence(route, 30) for route in Route}
    reference = sequences[Route.DIRECT].polys
    identical = all(
        sequences[route].polys[n] == reference[n] for route in Route for n in range(31)
    )
    elapsed = time.perf_counter() - start
    _report(
        "1 five-route agreement n<=30",
        identical and elapsed < 10.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_2_delannoy_anchor():
    """d_n(m) at r=0 reproduces the Delannoy DP for all 0 <= n, m <= 12."""
    ok = all(
        d_eval(n, EvalPoint(0, m)) == delannoy_dp(n, m)
        for n in range(13)
        for m in range(13)
    )
    ok = ok and delannoy_dp(2, 2) == 13
    _report("2 Delannoy anchor n,m<=12", ok)


def test_criterion_3_identity_suite_green():
    """The full identity suite passes at its stated depths in under 2 min."""
    clear_caches()
    start = time.perf_counter()
    reports = run_suite()  # default depths are the stated acceptance depths
    elapsed = time.perf_counter() - start
    failed = [r.identity_id for r in reports if not r.passed]
    _report(
        "3 identity suite",
        not failed and elapsed < 120.0,
        f"{len(reports)} verifiers, {elapsed:.1f}s",
    )


def test_criterion_4_hypergeometric_bridge():
    """Bridge forms match the scalar evaluator at 50 deterministic points for
    n <= 15; the terminating product identity passes for n <= 15."""
    points = deterministic_points(50)
    assert len(points) == 50
    bridge_ok = True
    for point in points:
        seq = d_eval_sequence(15, point)
        for n in range(16):
            if d_via_hyper(n, point.r, point.x) != seq[n]:
                bridge_ok = False
            if d_via_hyper_companion(n, point.r, point.x) != seq[n]:
                bridge_ok = False
    clausen = verify_clausen_product(15)
    _report("4 hypergeometric bridge", bridge_ok and clausen.passed)


def test_criterion_5_inequality_suite():
    """Zero violations on the default grids; the first product inequality
    is an equality at n=2 at every in-domain point, here reproduced exactly
    at (r=0, x=1)."""
    grid = default_inequality_grid()
    assert {Fraction(-1, 4), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)} == set(
        grid.r_values
    )
    assert any(x < Fraction(-1, 2) for x in grid.x_values)
    assert any(x > Fraction(-1, 2) for x in grid.x_values)
    assert grid.n_max == 40

    bound_report = check_product_lower_bound(grid)
    positivity_report = check_positivity(grid)

    at = EvalPoint(0, 1)
    seq = d_eval_sequence(2, at)
    lhs = seq[2] * seq[1] / (1 + 2 * at.x)
    rhs = (binom_gen(2 * at.r + 1, 1) + seq[1] ** 2) / 2
    equality_ok = lhs == rhs == 5 and (2, Fraction(0), Fraction(1)) in bound_report.zero_hits

    _report(
        "5 inequality suite",
        not bound_report.violations and not positivity_report.violations and equality_ok,
        f"zero_hits={len(bound_report.zero_hits)}",
    )


def test_criterion_6_conjecture_scan():
    """Default-region scan: zero strict violations, boundary zeros recorded
    as zero_hits, under 1 minute."""
    start = time.perf_counter()
    report = scan_conjecture(default_conjecture_grid())
    elapsed = time.perf_counter() - start
    boundary_zero = (1, Fraction(0), Fraction(0)) in report.zero_hits
    disjoint = not set((n, r, x) for (n, r, x, _) in report.violations) & set(report.zero_hits)
    _report(
        "6 conjecture scan",
        not report.violations and boundary_zero and disjoint and elapsed < 60.0,
        f"{elapsed:.1f}s, zero_hits={len(report.zero_hits)}",
    )


def test_criterion_7_fault_injection():
    """Perturbing any single verifier's reference formula by one unit makes
    exactly that verifier fail, with a concrete counterexample."""
    ok = True
    for identity_id in SUITE_IDS:
        reports = run_suite(SuiteConfig(depths=FAST_DEPTHS, fault=(identity_id, 1)))
        failed = [r.identity_id for r in reports if not r.passed]
        if failed != [identity_id]:
            ok = False
            break
        failing = next(r for r in reports if not r.passed)
        ce = failing.counterexample
        if ce is None or ce["lhs"] == ce["rhs"]:
            ok = False
            break
    _report("7 fault injection", ok, f"{len(SUITE_IDS)} verifiers")
