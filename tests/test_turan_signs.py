"""Tests of the Turán scan's interval kernel, ``analysis._turan_signs``.

From n = 1 the kernel holds the ratio rho_n = D_n / D_{n-1} in an integer
interval, exact at n = 1 and rounded outward from there, reads each sign
off the interval's ends, decides T_n = 0 where both intervals are points,
and hands the rest of a point to the exact kernel ``_turan_terms`` at the
first n that it cannot decide; at x = -1/2 (A = 0) every sign is +1 without
either.  It yields only the n whose sign is not +1.  Its output is compared
here with the exact kernel's at every n, deep and on whole grids: an n is
absent exactly where the exact t is positive, and every n present carries
the exact sign.  The comparison is repeated with the intervals forced to
fall back often, and with its outward rounding, its sign flip, its sign
test, its A = 0 rule, its c_n, its exact-zero test or its negative signs at
even n broken on purpose.  No point of the default grid falls back, the
two points where T_n is 0 for every n included.
"""

import inspect
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
from delpoly.reports import ZeroHits

GOLDEN = Path(__file__).with_name("golden")

# T_n turns negative at (4, 16/25); all three lie past the conjectured
# region's x = 0 edge.
POINTS = [EvalPoint(4, Fraction(16, 25)), EvalPoint(0, Fraction(1, 50)), EvalPoint(1, Fraction(19, 50))]


def _signs(terms, at: EvalPoint, n_max: int) -> list[tuple[int, int]]:
    return [(n, (t > 0) - (t < 0)) for n, t in terms(at, n_max)]


def _exact_signs(at: EvalPoint, n_max: int) -> list[tuple[int, int]]:
    """The exact kernel's signs at the n = 1..n_max where t is not positive."""
    return [(n, sign) for n, sign in _signs(_turan_terms, at, n_max) if sign <= 0]


def _assert_signs_agree(points, n_max: int) -> None:
    for at in points:
        assert _signs(_turan_signs, at, n_max) == _exact_signs(at, n_max), at


def _handover(at: EvalPoint, n_max: int) -> int:
    """The n at which ``_turan_signs`` hands over to the exact kernel, or
    n_max + 1 if it never does: the exact kernel is replaced by one whose
    every t is -2, a value the intervals never give."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_turan_terms", lambda at, n_max: ((n, -2) for n in range(1, n_max + 1)))
        return next((n for n, t in _turan_signs(at, n_max) if t == -2), n_max + 1)


def test_signs_agree_on_the_deep_golden_grid_at_n_1600():
    grid = parse_grid_file(str(GOLDEN / "scan_deep.grid"))
    _assert_signs_agree(grid.points(), 1600)


def test_signs_agree_on_the_default_grid_at_n_1000():
    _assert_signs_agree(default_conjecture_grid().points(), 1000)


def test_no_point_falls_back_on_the_default_grid_at_n_1000(monkeypatch):
    fell_back = []

    def spy(at, n_max):
        fell_back.append(at)
        return _turan_terms(at, n_max)

    monkeypatch.setattr(analysis, "_turan_terms", spy)
    report = scan_conjecture(replace(default_conjecture_grid(), n_max=1000))
    assert report.passed and fell_back == []
    assert report.zero_hits == tuple((n, at.r, at.x) for at in (EvalPoint(0, -1), EvalPoint(0, 0)) for n in range(1, 1001))


def test_the_zero_points_never_start_the_exact_kernel_to_n_70000(monkeypatch):
    # rho_n = n stays exact at both points, so every T_n = 0 is decided on
    # intervals that are points.
    started = []

    def counted(at, L, A):
        started.append(at)
        return _squared_d(at, L, A)

    monkeypatch.setattr(analysis, "_squared_d", counted)
    report = scan_conjecture(GridSpec((0,), (0, -1), 70000))
    assert report.passed and len(report.zero_hits) == 140000
    assert started == []


def test_the_zero_points_hold_two_runs_counted_without_expanding(monkeypatch):
    report = scan_conjecture(GridSpec((0,), (0, -1), 70000))

    def expanded(*args):
        raise AssertionError("the runs were expanded")

    monkeypatch.setattr(ZeroHits, "__iter__", expanded)
    monkeypatch.setattr(ZeroHits, "__getitem__", expanded)
    assert report.zero_hits.runs == ((1, 70000, (0, 0)), (1, 70000, (0, -1)))
    assert len(report.zero_hits) == 140000
    assert (70000, 0, -1) in report.zero_hits and (70001, 0, -1) not in report.zero_hits


def test_signs_agree_off_the_region_and_the_first_negative_is_n_149():
    _assert_signs_agree(POINTS, 400)
    assert all(_handover(at, 400) == 401 for at in POINTS)
    signs = _signs(_turan_signs, POINTS[0], 400)
    assert next(n for n, s in signs if s < 0) == 149


@pytest.mark.parametrize("at", [EvalPoint(Fraction(-1, 2), Fraction(-3, 8)), EvalPoint(-3, Fraction(5, 2))])
def test_points_with_r_at_most_minus_half_stay_exact(at):
    # c_n = n L^2 (n+2r) is <= 0 at some n there, so no interval is used.
    assert list(_turan_signs(at, 300)) == [(n, t) for n, t in _turan_terms(at, 300) if t <= 0]


def test_x_minus_half_where_A_is_zero(monkeypatch):
    # A = 0: D_n vanishes at every odd n, so P_n and T_n do at every other n.
    # Every exact T_n is positive, so the kernel yields nothing.
    points = [EvalPoint(r, Fraction(-1, 2)) for r in (0, Fraction(3, 4), Fraction(37, 61), 4)]
    _assert_signs_agree(points, 600)
    assert all(t > 0 for at in points for _, t in _turan_terms(at, 600))
    # The kernel never runs the exact one there.
    monkeypatch.setattr(analysis, "_turan_terms", None)
    assert all(list(_turan_signs(at, 600)) == [] for at in points)


def _line(grid: GridSpec, skip, terms=_turan_terms) -> str:
    """The report's JSON line; exact-only unless ``terms`` says otherwise."""
    return _scan("turan-conjecture", grid, skip, terms, _turan_margin, lambda point: 1).to_json_line()


def test_small_precision_falls_back_to_identical_reports(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # No bits below the binary point: intervals decide some steps and then
    # cannot, so many points fall back to the exact kernel part way.
    monkeypatch.setattr(analysis, "_RATIO_BITS", 0)
    fell_back = []

    def spy(at, n_max):
        fell_back.append(at)
        return _turan_terms(at, n_max)

    monkeypatch.setattr(analysis, "_turan_terms", spy)

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
    assert any(at.r > Fraction(-1, 2) and at.x != Fraction(-1, 2) for at in fell_back)


def test_violations_from_interval_signs_carry_exact_values():
    grid = GridSpec((Fraction(4),), (Fraction(16, 25),), 200)
    report = _scan("turan-conjecture", grid, lambda point: None, _turan_signs, _turan_margin, lambda point: 1)
    assert report.to_json_line() == _line(grid, lambda point: None)
    assert report.violations[0][0] == 149


# -- broken kernels must disagree with the exact one ------------------------


def _mutant(old: str, new: str):
    """``_turan_signs`` with its one ``old`` text replaced by ``new``,
    compiled against the module's current globals."""
    source = inspect.getsource(analysis._turan_signs)
    assert source.count(old) == 1, old
    namespace = dict(vars(analysis))
    exec(compile(source.replace(old, new), analysis.__file__, "exec"), namespace)
    return namespace["_turan_signs"]


MUTANTS = {
    "inward-rounding": ("base - (-c // lo)", "base + c // lo"),
    "no-sign-flip": ("parity = -parity", "parity = 1"),
    "wrong-ends": ("lo > n * (hi_next - lo)", "hi > n * (lo_next - hi)"),
    # A = 0 yields -1 at every n in place of nothing.
    "A-zero-sign-negated": ("if not A:\n", "if not A:\n            yield from ((n, -1) for n in range(1, n_max + 1))\n"),
    "c-at-n-plus-1": ("c = n * (L2 * n + K)", "c = (n + 1) * (L2 * (n + 1) + K)"),
    "zero-on-one-point-interval": ("lo == hi and lo_next == hi_next", "lo == hi"),
    # The second test's -1 at even n read as +1, and so dropped.
    "even-negative-dropped": ("t = -parity", "t = 1"),
}

# (1/512, 1/1024): T_1 has the sign of (1+2r) - (1+2x)^2 = -2^-18, so at 8
# bits n = 1 is left undecided with rho_1 exact and rho_2 not.
# (-3/8, -39/64): T_2 < 0, decided by the second test.
MUTANT_POINTS = [EvalPoint(Fraction(1, 512), Fraction(1, 1024)), EvalPoint(Fraction(-3, 8), Fraction(-39, 64))]


@pytest.mark.parametrize("old, new", MUTANTS.values(), ids=MUTANTS.keys())
def test_a_broken_interval_kernel_disagrees_with_the_exact_one(monkeypatch, old, new):
    monkeypatch.setattr(analysis, "_RATIO_BITS", 8)
    # At this precision the sound kernel still decides some n on intervals;
    # the A = 0 point at x = -1/2 needs no interval.
    points = POINTS + [EvalPoint(Fraction(3, 4), Fraction(-1, 2))] + MUTANT_POINTS
    _assert_signs_agree(points, 400)
    assert all(_handover(at, 400) > 1 for at in POINTS)
    assert _handover(MUTANT_POINTS[0], 400) == 1 and _handover(MUTANT_POINTS[1], 400) > 2
    broken = _mutant(old, new)
    assert any(_signs(broken, at, 400) != _exact_signs(at, 400) for at in points)
