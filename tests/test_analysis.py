"""Tests for the exact inequality checks and the conjecture scanner."""

from fractions import Fraction

import pytest

from delpoly.analysis import (
    GridSpec,
    check_positivity,
    check_product_lower_bound,
    default_conjecture_grid,
    default_inequality_grid,
    scan_conjecture,
    turan_value,
)
from delpoly.dcore import EvalPoint, d_eval, d_eval_sequence
from delpoly.exactnum import binom_gen


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec((), (Fraction(0),), 5)
    with pytest.raises(ValueError):
        GridSpec((Fraction(0),), (), 5)
    with pytest.raises(ValueError):
        GridSpec((Fraction(0),), (Fraction(0),), -1)


@pytest.mark.parametrize(
    "r_values, x_values, axis",
    [((0, 0), (0,), "r_values"), ((0,), (0, "0"), "x_values"), ((Fraction(1, 2), "1/2"), (0,), "r_values")],
)
def test_gridspec_rejects_repeated_axis_values(r_values, x_values, axis):
    # a repeated value would scan (and report) its grid points twice
    with pytest.raises(ValueError, match=f"{axis} must not repeat a value"):
        GridSpec(r_values, x_values, 2)


@pytest.mark.parametrize("bad", [2.5, True, "3", -1])
def test_gridspec_rejects_non_natural_n_max(bad):
    with pytest.raises(ValueError, match=f"n_max must be a natural number, got {bad!r}"):
        GridSpec((Fraction(0),), (Fraction(0),), bad)


def test_gridspec_point_order_is_canonical():
    grid = GridSpec((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(2)), 3)
    points = list(grid.points())
    assert points == [
        EvalPoint(0, -1),
        EvalPoint(0, 2),
        EvalPoint(1, -1),
        EvalPoint(1, 2),
    ]


def test_product_lower_bound_equality_case():
    # at (n=2, r=0, x=1): LHS = d_2 d_1 / 3 = 5, RHS = (1 + 9)/2 = 5
    at = EvalPoint(0, 1)
    seq = d_eval_sequence(2, at)
    lhs = seq[2] * seq[1] / 3
    rhs = (binom_gen(1, 1) + seq[1] ** 2) / 2
    assert lhs == rhs == 5

    grid = GridSpec((Fraction(0),), (Fraction(1),), 2)
    report = check_product_lower_bound(grid)
    assert report.passed
    assert (2, Fraction(0), Fraction(1)) in report.zero_hits
    assert not report.violations


def test_product_lower_bound_is_an_equality_at_n_2_on_the_whole_domain():
    # at n = 2 both sides are ((1+2x)^2 + 2r + 1) / 2, so every in-domain
    # point of the default grid adds exactly one zero hit, at n = 2
    grid = default_inequality_grid()
    in_domain = [
        (p.r, p.x) for p in grid.points() if p.r > Fraction(-1, 2) and p.x != Fraction(-1, 2)
    ]
    assert len(in_domain) == 60
    report = check_product_lower_bound(grid)
    assert not report.violations
    assert report.zero_hits == tuple((2, r, x) for r, x in in_domain)


def test_product_lower_bound_negative_x_case():
    # at (n=2, r=0, x=-1): LHS = 1 and RHS = 1, equality again
    grid = GridSpec((Fraction(0),), (Fraction(-1),), 2)
    report = check_product_lower_bound(grid)
    assert report.passed
    assert (2, Fraction(0), Fraction(-1)) in report.zero_hits


def test_product_lower_bound_strict_case():
    # at (n=3, r=1/2, x=1/2): LHS = 6 > RHS = 4
    at = EvalPoint(Fraction(1, 2), Fraction(1, 2))
    seq = d_eval_sequence(3, at)
    assert seq[3] * seq[2] / 2 == 6
    assert (binom_gen(3, 2) + seq[2] ** 2) / 3 == 4
    report = check_product_lower_bound(GridSpec((Fraction(1, 2),), (Fraction(1, 2),), 3))
    assert report.passed
    assert (3, Fraction(1, 2), Fraction(1, 2)) not in report.zero_hits


def test_product_lower_bound_skips_out_of_domain_points():
    # (1, 1) is the one in-domain point; the other three are skipped, for r
    # or for x
    grid = GridSpec((Fraction(-1), Fraction(1)), (Fraction(-1, 2), Fraction(1)), 4)
    report = check_product_lower_bound(grid)
    assert report.passed
    assert [(s["r"], s["x"], s["reason"]) for s in report.skipped] == [
        (-1, Fraction(-1, 2), "requires r > -1/2"),
        (-1, 1, "requires r > -1/2"),
        (1, Fraction(-1, 2), "requires x != -1/2"),
    ]
    assert not report.violations
    assert report.zero_hits == ((2, 1, 1),)  # the first inequality is an equality at n = 2


@pytest.mark.parametrize(
    "scan, grid",
    [
        (check_product_lower_bound, GridSpec((Fraction(-1),), (Fraction(-1, 2), Fraction(1)), 4)),
        (check_product_lower_bound, GridSpec((Fraction(0),), (Fraction(1),), 1)),  # starts at n = 2
        (check_positivity, GridSpec((Fraction(0),), (Fraction(1),), 1)),  # x > -1/2 starts at n = 2
        (scan_conjecture, GridSpec((Fraction(-1), Fraction(1)), (Fraction(1),), 5)),  # outside the region
        (scan_conjecture, GridSpec((Fraction(0),), (Fraction(0),), 0)),  # starts at n = 1
    ],
)
def test_scan_that_checks_nothing_is_an_error(scan, grid):
    with pytest.raises(ValueError, match=r"no \(n, point\) pair checked"):
        scan(grid)


def test_positivity_examples():
    # alternating side: d_4 at (r=0, x=-1) is +1
    assert d_eval(4, EvalPoint(0, -1)) == 1
    # growth side: d_2(0, 2) = 13 > 25/2, d_2(1, 0) = 2 > 1/2
    assert d_eval(2, EvalPoint(0, 2)) == 13
    assert d_eval(2, EvalPoint(1, 0)) == 2
    report = check_positivity(GridSpec((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0), Fraction(2)), 6))
    assert report.passed
    assert not report.violations


def test_positivity_default_grid():
    report = check_positivity(default_inequality_grid())
    assert report.passed
    assert not report.violations


def test_turan_values():
    assert turan_value(1, EvalPoint(0, 0)) == 0
    assert turan_value(1, EvalPoint(0, Fraction(-1, 2))) == Fraction(1, 2)
    assert turan_value(2, EvalPoint(1, Fraction(-1, 2))) == Fraction(9, 4)
    with pytest.raises(ValueError):
        turan_value(0, EvalPoint(0, 0))


@pytest.mark.parametrize("bad", [True, 2.5], ids=["bool", "float"])
def test_turan_value_rejects_non_natural_n(bad):
    # True is not read as n = 1, and 2.5 is named as n, not as a derived n_max
    with pytest.raises(ValueError, match=r"^n must be a natural number"):
        turan_value(bad, EvalPoint(0, 0))


def test_turan_value_against_direct_formula():
    for n, r, x in [(3, Fraction(1, 3), Fraction(-1, 4)), (5, Fraction(2), Fraction(-7, 8))]:
        seq = d_eval_sequence(n + 1, EvalPoint(r, x))
        sign = -1 if n % 2 else 1
        assert turan_value(n, EvalPoint(r, x)) == sign * (seq[n] ** 2 - seq[n + 1] * seq[n - 1])


def test_scan_conjecture_boundary_zero():
    grid = GridSpec((Fraction(0),), (Fraction(0),), 3)
    report = scan_conjecture(grid)
    assert report.passed
    assert (1, Fraction(0), Fraction(0)) in report.zero_hits
    assert not report.violations


def test_scan_conjecture_skips_out_of_region():
    grid = GridSpec((Fraction(-1, 4), Fraction(1)), (Fraction(-2), Fraction(-1, 2)), 3)
    report = scan_conjecture(grid)
    # only (r=1, x=-1/2) lies inside the region
    assert len(report.skipped) == 3
    assert report.passed


def test_scan_determinism():
    grid = GridSpec(
        (Fraction(0), Fraction(1, 2)), (Fraction(-1), Fraction(-1, 2), Fraction(0)), 8
    )
    first = scan_conjecture(grid)
    second = scan_conjecture(grid)
    assert first.to_json_line() == second.to_json_line()


def test_consistency_with_weighted_square_sum():
    """The product bound and the underlying sum identity agree numerically:
    the weighted partial sum equals (n+2r) d_n d_{n-1} / (1+2x)."""
    grid = default_inequality_grid()
    for point in list(grid.points())[:12]:
        if point.x == Fraction(-1, 2):
            continue
        seq = d_eval_sequence(8, point)
        for n in range(2, 9):
            total = Fraction(0)
            for k in range(n):
                w = Fraction(1)
                for j in range(k + 1, n + 1):
                    w *= Fraction(1, j) * (2 * point.r + j)
                total += w * seq[k] ** 2
            assert total == (n + 2 * point.r) * seq[n] * seq[n - 1] / (1 + 2 * point.x)


def test_default_conjecture_grid_shape():
    grid = default_conjecture_grid()
    assert len(grid.r_values) == 17
    assert len(grid.x_values) == 9
    assert grid.n_max == 40
    assert grid.r_values[0] == 0 and grid.r_values[-1] == 4
    assert grid.x_values[0] == -1 and grid.x_values[-1] == 0
