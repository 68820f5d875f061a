"""Tests of the Turán scan's interval kernel, ``analysis._turan_signs``.

From n = 1 the kernel gives each sign from an integer interval, exact until
it is first shortened and rounded outward from there, and hands the rest
of a point to the exact kernel ``_turan_terms`` at the first interval that
holds 0.  Its signs are compared here with the exact kernel's, deep and on
whole grids, with the intervals forced to fall back often, and with its
outward rounding or its sign flip broken on purpose.  Only the two points
where T_n is 0 for every n fall back on the default grid, and each runs
the exact kernel once.
"""

from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from delpoly import analysis
from delpoly.analysis import (
    GridSpec,
    _conjecture_skip,
    _scan,
    _turan_margin,
    _turan_signs,
    _turan_terms,
    default_conjecture_grid,
    scan_conjecture,
)
from delpoly.cli import parse_grid_file
from delpoly.dcore import EvalPoint, _squared_d

GOLDEN = Path(__file__).with_name("golden")

# T_n turns negative at (4, 16/25); all three lie past the conjectured
# region's x = 0 edge.
POINTS = [EvalPoint(4, Fraction(16, 25)), EvalPoint(0, Fraction(1, 50)), EvalPoint(1, Fraction(19, 50))]


def _signs(terms, at: EvalPoint, n_max: int) -> list[tuple[int, int]]:
    return [(n, (t > 0) - (t < 0)) for n, t in terms(at, n_max)]


def _assert_signs_agree(points, n_max: int) -> None:
    for at in points:
        assert _signs(_turan_signs, at, n_max) == _signs(_turan_terms, at, n_max), at


def _interval_decided(at: EvalPoint, n_max: int) -> int:
    """How many n of ``_turan_signs`` gave a +-1 where the exact t is larger."""
    exact = dict(_turan_terms(at, n_max))
    return sum(1 for n, t in _turan_signs(at, n_max) if t != exact[n])


def test_signs_agree_on_the_deep_golden_grid_at_n_1600():
    grid = parse_grid_file(str(GOLDEN / "scan_deep.grid"))
    _assert_signs_agree(grid.points(), 1600)


def test_signs_agree_on_the_default_grid_at_n_1000():
    _assert_signs_agree(default_conjecture_grid().points(), 1000)


ZERO_POINTS = {EvalPoint(0, 0), EvalPoint(0, -1)}


def test_only_the_two_zero_points_fall_back_on_the_default_grid_at_n_1000(monkeypatch):
    fell_back = []

    def spy(at, n_max):
        fell_back.append(at)
        return _turan_terms(at, n_max)

    monkeypatch.setattr(analysis, "_turan_terms", spy)
    assert scan_conjecture(replace(default_conjecture_grid(), n_max=1000)).passed
    assert sorted(fell_back, key=repr) == sorted(ZERO_POINTS, key=repr)


def test_the_zero_points_run_the_exact_kernel_once_to_n_70000(monkeypatch):
    # Their T_1 is 0, so the intervals hand over at n = 1.
    started = []

    def counted(at, L, A):
        started.append(at)
        return _squared_d(at, L, A)

    monkeypatch.setattr(analysis, "_squared_d", counted)
    report = scan_conjecture(GridSpec((0,), (0, -1), 70000))
    assert report.passed and len(report.zero_hits) == 140000
    assert sorted(started, key=repr) == sorted(ZERO_POINTS, key=repr)


def test_signs_agree_off_the_region_and_the_first_negative_is_n_149():
    _assert_signs_agree(POINTS, 400)
    assert all(_interval_decided(at, 400) for at in POINTS)
    signs = _signs(_turan_signs, POINTS[0], 400)
    assert next(n for n, s in signs if s < 0) == 149


@pytest.mark.parametrize("at", [EvalPoint(Fraction(-1, 2), Fraction(-3, 8)), EvalPoint(-3, Fraction(5, 2))])
def test_points_with_r_at_most_minus_half_stay_exact(at):
    # c_n = n L^2 (n+2r) is <= 0 at some n there, so no interval is used.
    assert list(_turan_signs(at, 300)) == list(_turan_terms(at, 300))


def test_x_minus_half_where_A_is_zero():
    # A = 0: D_n vanishes at every odd n, so P_n and T_n do at every other n.
    at = EvalPoint(Fraction(3, 4), Fraction(-1, 2))
    _assert_signs_agree([at], 600)
    assert _interval_decided(at, 600)


def _line(grid: GridSpec, skip, terms=_turan_terms) -> str:
    """The report's JSON line; exact-only unless ``terms`` says otherwise."""
    return _scan("turan-conjecture", grid, skip, terms, _turan_margin).to_json_line()


def test_small_precision_falls_back_to_identical_reports(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # A few bits: intervals decide some steps and then hold 0, so most
    # points fall back to the exact kernel part way.
    monkeypatch.setattr(analysis, "_PREC", 6)

    def values(low, high):
        return st.lists(st.fractions(min_value=low, max_value=high, max_denominator=24), min_size=1, max_size=3, unique=True)

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(r=values(-1, 4), x=values(-2, 1), n_max=st.integers(min_value=1, max_value=200))
    def check(r, x, n_max):
        grid = GridSpec(tuple(r), tuple(x), n_max)
        if any(_conjecture_skip(point) is None for point in grid.points()):
            assert scan_conjecture(grid).to_json_line() == _line(grid, _conjecture_skip)

        # Unrestricted, so that violations outside the region are reported
        # from interval signs too.
        def no_skip(point):
            return None

        assert _line(grid, no_skip, _turan_signs) == _line(grid, no_skip)

    check()


def test_violations_from_interval_signs_carry_exact_values():
    grid = GridSpec((Fraction(4),), (Fraction(16, 25),), 200)
    report = _scan("turan-conjecture", grid, lambda point: None, _turan_signs, _turan_margin)
    assert report.to_json_line() == _line(grid, lambda point: None)
    assert report.violations[0][0] == 149


# -- broken kernels must disagree with the exact one ------------------------


def _floor_both_ends(lo, hi, s):
    return lo >> s, hi >> s


def _no_flip(n, sign):
    return sign


@pytest.mark.parametrize(
    "name, broken", [("_round_out", _floor_both_ends), ("_flip", _no_flip)], ids=["inward-rounding", "no-sign-flip"]
)
def test_a_broken_interval_kernel_disagrees_with_the_exact_one(monkeypatch, name, broken):
    monkeypatch.setattr(analysis, "_PREC", 8)
    at = POINTS[0]
    # At this precision the sound kernel still decides some n on intervals.
    _assert_signs_agree([at], 400)
    assert _interval_decided(at, 400)
    monkeypatch.setattr(analysis, name, broken)
    assert _signs(_turan_signs, at, 400) != _signs(_turan_terms, at, 400)
