"""Tests of the integer kernel behind the three exact-sign scans.

No in-region grid produces a violation, so these tests drive the kernel
outside the scanned regions as well: every exact value it can report is
compared with the plain ``Fraction`` formulas, and whole reports are
compared with a ``Fraction`` reference scan written here.
"""

import json
from fractions import Fraction
from math import factorial, gcd, prod

import pytest

from delpoly.analysis import (
    GridSpec,
    _lower_bound_margin,
    _lower_bound_terms,
    _positivity_margin,
    _positivity_terms,
    _scan,
    _turan_margin,
    _turan_signs,
    _turan_terms,
    check_positivity,
    check_product_lower_bound,
    default_conjecture_grid,
    default_inequality_grid,
    scan_conjecture,
    turan_value,
)
from delpoly import analysis, dcore
from delpoly.dcore import _BLOCK, EvalPoint, _scale, _scaled_d, d_eval_sequence
from delpoly.exactnum import binom_gen
from delpoly.reports import ScanReport

MINUS_HALF = Fraction(-1, 2)


# The closed-form positive scale of each claim's numerator, written out
# from L and A = L(1+2x) at the point.  The two quadratic claims' numerators
# come from a state divided by s_n = (m!')^2, with m = _BLOCK * floor((n-1) /
# _BLOCK) and m!' = m! without its primes of L.  As v_p(m!) < m, the part of
# m! made of primes of L is gcd(m!, L^m).


def _reduction(n: int, L: int) -> int:
    m = _BLOCK * ((n - 1) // _BLOCK)
    f = factorial(m)
    return (f // gcd(f, L**m)) ** 2


def _reduced(t: int, n: int, L: int) -> int:
    """t / s_n, which must be exact."""
    quotient, remainder = divmod(t, _reduction(n, L))
    assert remainder == 0
    return quotient


def _turan_ref_scale(n: int, L: int, A: int) -> int:
    return factorial(n + 1) * factorial(n) * L ** (2 * n) // _reduction(n, L)


def _positivity_ref_scale(n: int, L: int, A: int) -> int:
    return factorial(n) * L**n


def _lower_bound_ref_scale(n: int, L: int, A: int) -> int:
    return abs(A) * factorial(n) * factorial(n - 1) * L ** (2 * n - 2) // _reduction(n, L)


def _values(terms, scale, at: EvalPoint) -> dict[int, Fraction]:
    L, A = _scale(at)
    return {n: Fraction(t, scale(n, L, A)) for n, t in terms}


def _positivity_reference(n_max: int, at: EvalPoint) -> dict[int, Fraction]:
    seq = d_eval_sequence(n_max, at)
    if at.x < MINUS_HALF:
        return {n: (-seq[n] if n % 2 else seq[n]) for n in range(n_max + 1)}
    return {
        n: seq[n] - (1 + 2 * at.x) ** n / Fraction(factorial(n)) for n in range(2, n_max + 1)
    }


def _lower_bound_reference(n_max: int, at: EvalPoint) -> dict[int, Fraction]:
    seq = d_eval_sequence(n_max, at)
    out = {}
    for n in range(2, n_max + 1):
        lhs = seq[n] * seq[n - 1] / (1 + 2 * at.x)
        rhs = (binom_gen(2 * at.r + n - 1, n - 1) + seq[n - 1] ** 2) / n
        assert rhs > 0 or at.r <= MINUS_HALF  # the claim's own domain is r > -1/2
        out[n] = lhs - rhs
    return out


def test_kernel_matches_fraction_formulas_at_fixed_points():
    points = [
        EvalPoint(0, 0),
        EvalPoint(Fraction(-7, 3), Fraction(5, 2)),
        EvalPoint(Fraction(-1, 3), Fraction(-9, 4)),
        EvalPoint(Fraction(3, 8), Fraction(-5, 12)),
        EvalPoint(2, -3),
    ]
    for at in points:
        turan = _values(_turan_terms(at, 12), _turan_ref_scale, at)
        assert turan == {n: turan_value(n, at) for n in range(1, 13)}
        positivity = _values(_positivity_terms(at, 12), _positivity_ref_scale, at)
        assert positivity == _positivity_reference(12, at)
        if at.r > MINUS_HALF:
            lower_bound = _values(_lower_bound_terms(at, 12), _lower_bound_ref_scale, at)
            assert lower_bound == _lower_bound_reference(12, at)


def test_kernel_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    rationals = st.fractions(min_value=-4, max_value=4, max_denominator=40)

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(r=rationals, x=rationals, n_max=st.integers(min_value=0, max_value=80))
    def check(r, x, n_max):
        at = EvalPoint(r, x)
        seq = d_eval_sequence(n_max + 1, at)
        turan = _values(_turan_terms(at, n_max), _turan_ref_scale, at)
        assert set(turan) == set(range(1, n_max + 1))
        for n, value in turan.items():
            expected = seq[n] ** 2 - seq[n + 1] * seq[n - 1]
            assert value == (-expected if n % 2 else expected)
        if n_max >= 1:
            assert turan[n_max] == turan_value(n_max, at)
        if x != MINUS_HALF:
            positivity = _values(_positivity_terms(at, n_max), _positivity_ref_scale, at)
            assert positivity == _positivity_reference(n_max, at)
            if r > MINUS_HALF:
                lower_bound = _values(_lower_bound_terms(at, n_max), _lower_bound_ref_scale, at)
                assert lower_bound == _lower_bound_reference(n_max, at)

    check()


# -- deep points against products of consecutive D_n -----------------------


def _turan_by_products(at: EvalPoint, n_max: int) -> list[tuple[int, int]]:
    """The (n, t) pairs with t from (n+1) D_n^2 - n D_{n+1} D_{n-1}, over s_n."""
    L, A = _scale(at)
    D = [value for _, value in zip(range(n_max + 2), _scaled_d(at, L, A))]
    out = []
    for n in range(1, n_max + 1):
        t = _reduced((n + 1) * D[n] * D[n] - n * D[n + 1] * D[n - 1], n, L)
        out.append((n, -t if n % 2 else t))
    return out


def _lower_bound_by_products(at: EvalPoint, n_max: int) -> list[tuple[int, int]]:
    """The (n, t) pairs with t from D_n D_{n-1} - A (T + D_{n-1}^2), over s_n."""
    L, A = _scale(at)
    D = [value for _, value in zip(range(n_max + 1), _scaled_d(at, L, A))]
    twice_a, b = 2 * at.r.numerator, at.r.denominator
    M = L * L // b
    sign = 1 if A > 0 else -1
    out, T = [], (twice_a + b) * M
    for n in range(2, n_max + 1):
        t = D[n] * D[n - 1] - A * (T + D[n - 1] * D[n - 1])
        out.append((n, sign * _reduced(t, n, L)))
        T *= (twice_a + n * b) * n * M
    return out


DEEP_POINTS = [
    EvalPoint(0, 0),
    EvalPoint(0, -1),
    EvalPoint(Fraction(153, 64), Fraction(-59, 64)),
    EvalPoint(Fraction(-7, 3), Fraction(5, 2)),
    EvalPoint(Fraction(1, 3), Fraction(-9, 4)),
]


@pytest.mark.parametrize("at", DEEP_POINTS, ids=lambda at: f"r={at.r},x={at.x}")
@pytest.mark.parametrize("n_max", [0, 1, 2, 400])
def test_squared_state_matches_products_of_consecutive_values(at, n_max):
    assert list(_turan_terms(at, n_max)) == _turan_by_products(at, n_max)
    assert list(_lower_bound_terms(at, n_max)) == _lower_bound_by_products(at, n_max)


@pytest.mark.parametrize(
    "at",
    # L = 1, where all of n! divides out; L = 64, where its odd part does;
    # and L = 67, a prime larger than the block, so in at most one index of it.
    [EvalPoint(2, -3), EvalPoint(Fraction(153, 64), Fraction(-59, 64)), EvalPoint(Fraction(5, 67), Fraction(-20, 67))],
    ids=lambda at: f"r={at.r},x={at.x}",
)
def test_reduced_squared_state_matches_products_at_depth_1000(at):
    test_squared_state_matches_products_of_consecutive_values(at, 1000)


def test_reduced_values_match_products_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    denominators = st.lists(st.sampled_from([2, 3, 5, 7, 37, 67]), max_size=3).map(prod)
    rationals = st.builds(Fraction, st.integers(min_value=-300, max_value=300), denominators)

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(r=rationals, x=rationals, n_max=st.integers(min_value=0, max_value=150))
    def check(r, x, n_max):
        at = EvalPoint(r, x)
        L, A = _scale(at)
        cases = [
            (_turan_terms, _turan_by_products, _turan_ref_scale, _turan_reference),
            (_lower_bound_terms, _lower_bound_by_products, _lower_bound_ref_scale, _lower_bound_reference),
        ]
        for terms, by_products, ref_scale, reference in cases:
            got, want = list(terms(at, n_max)), by_products(at, n_max)
            assert got == want
            if A:  # at x = -1/2 the lower bound's scale |A| n! (n-1)! ... is 0
                assert {n: Fraction(t, ref_scale(n, L, A)) for n, t in got} == reference(n_max, at)

    check()


@pytest.mark.parametrize("at", DEEP_POINTS[2:], ids=lambda at: f"r={at.r},x={at.x}")
def test_squared_state_yields_the_step_coefficient(at):
    # c_n = n L^2 (n+2r), with L and A = L(1+2x) written out here; n <= 200
    # crosses three block divisions.
    L = at.x.denominator * at.r.denominator // gcd(at.x.denominator, at.r.denominator)
    A = L + 2 * at.x.numerator * (L // at.x.denominator)
    assert A == L * (1 + 2 * at.x)
    for n, (*_, c, _) in zip(range(1, 201), dcore._squared_d(at, L, A)):
        assert c == n * L * L * (n + 2 * at.r), n


def _wrong_block_factor(monkeypatch):
    block_factor = dcore._block_factor
    monkeypatch.setattr(dcore, "_block_factor", lambda n, L: 1009 * block_factor(n, L))


def _wrong_divisor_for_T(monkeypatch):
    # The state is divided correctly; only the divisor handed on to the
    # lower bound's T carries the extra prime.
    squared_d = analysis._squared_d

    def patched(at, L, A):
        for *state, g in squared_d(at, L, A):
            yield (*state, g if g == 1 else 1009 * g)

    monkeypatch.setattr(analysis, "_squared_d", patched)


@pytest.mark.parametrize(
    "patch, turan_raises", [(_wrong_block_factor, True), (_wrong_divisor_for_T, False)], ids=["state", "lower-bound-T"]
)
def test_a_block_divisor_that_does_not_divide_raises(monkeypatch, patch, turan_raises):
    # A divisor with one prime too many must stop the scan, not floor the
    # value: 1009 divides no value divided at n = 64 at the first point.
    # The Turán scan runs the squared state only at r <= -1/2, outside its
    # region, so it is run there unrestricted.
    grid = GridSpec((Fraction(0), Fraction(1, 4)), (Fraction(-1), Fraction(-3, 8)), 70)
    exact_grid = GridSpec((Fraction(-3, 4),), (Fraction(-3, 8),), 70)

    def exact_scan():
        return _scan("turan-conjecture", exact_grid, lambda point: None, _turan_signs, _turan_margin, lambda point: 1)

    want = exact_scan().to_json_line()
    patch(monkeypatch)
    with pytest.raises(ArithmeticError):
        check_product_lower_bound(grid)
    if turan_raises:
        with pytest.raises(ArithmeticError):
            exact_scan()
    else:
        assert exact_scan().to_json_line() == want
    assert scan_conjecture(grid).passed


@pytest.mark.parametrize(
    "claim_id, terms, margin, first_n, wrong",
    [
        # (-1)^n d_n changes sign with d; the quadratic Turán value is 0 at d = 0.
        ("positivity", _positivity_terms, _positivity_margin, lambda point: 0, lambda d: (-v for v in d)),
        ("turan-conjecture", _turan_terms, _turan_margin, lambda point: 1, lambda d: (Fraction(0) for _ in d)),
    ],
    ids=["positive", "zero"],
)
def test_a_violation_whose_value_is_not_negative_raises(monkeypatch, claim_id, terms, margin, first_n, wrong):
    d_values = analysis._d_values
    monkeypatch.setattr(analysis, "_d_values", lambda at: wrong(d_values(at)))
    grid = GridSpec((Fraction(-5, 2),), (Fraction(-2),), 6)
    with pytest.raises(ArithmeticError, match=rf"^{claim_id}: .* n=\d+, r=-5/2, x=-2 "):
        _scan(claim_id, grid, lambda point: None, terms, margin, first_n)


# -- a plain Fraction reference scan ----------------------------------------


def _assert_same_line(got: str, want: str) -> None:
    # Parsed first: pytest's diff of two long one-line strings takes minutes.
    assert json.loads(got) == json.loads(want)
    assert got == want


def _reference_scan(claim_id: str, grid: GridSpec, skip_reason, margins) -> str:
    violations, zero_hits, skipped = [], [], []
    for point in grid.points():
        reason = skip_reason(point)
        if reason is not None:
            skipped.append({"r": point.r, "x": point.x, "reason": reason})
            continue
        for n, value in margins(grid.n_max, point).items():
            if value < 0:
                violations.append((n, point.r, point.x, value))
            elif value == 0:
                zero_hits.append((n, point.r, point.x))
    return ScanReport(
        claim_id=claim_id,
        grid=grid.as_dict(),
        violations=tuple(violations),
        zero_hits=tuple(zero_hits),
        skipped=tuple(skipped),
    ).to_json_line()


def _turan_reference(n_max: int, at: EvalPoint) -> dict[int, Fraction]:
    seq = d_eval_sequence(n_max + 1, at)
    out = {}
    for n in range(1, n_max + 1):
        value = seq[n] ** 2 - seq[n + 1] * seq[n - 1]
        out[n] = -value if n % 2 else value
    return out


def _inequality_skip(off_half_reason: str):
    def skip(point):
        if point.r <= MINUS_HALF:
            return "requires r > -1/2"
        if point.x == MINUS_HALF:
            return off_half_reason
        return None

    return skip


def _conjecture_skip(point):
    if point.r < 0 or not (-1 <= point.x <= 0):
        return "outside the conjectured region"
    return None


MIXED_GRID = GridSpec(
    r_values=(Fraction(-1), MINUS_HALF, Fraction(-1, 4), Fraction(0), Fraction(1, 3), Fraction(2)),
    x_values=(
        Fraction(-2),
        Fraction(-1),
        Fraction(-3, 4),
        MINUS_HALF,
        Fraction(-1, 4),
        Fraction(0),
        Fraction(1, 2),
        Fraction(3),
    ),
    n_max=12,
)


@pytest.mark.parametrize(
    "grid",
    [default_conjecture_grid(), default_inequality_grid(), MIXED_GRID],
    ids=["conjecture-grid", "inequality-grid", "mixed-grid"],
)
def test_reports_match_fraction_reference(grid):
    _assert_same_line(
        scan_conjecture(grid).to_json_line(),
        _reference_scan("turan-conjecture", grid, _conjecture_skip, _turan_reference),
    )
    _assert_same_line(
        check_positivity(grid).to_json_line(),
        _reference_scan("positivity", grid, _inequality_skip("claims apply only off x = -1/2"), _positivity_reference),
    )
    _assert_same_line(
        check_product_lower_bound(grid).to_json_line(),
        _reference_scan("product-lower-bound", grid, _inequality_skip("requires x != -1/2"), _lower_bound_reference),
    )


def test_mixed_grid_hits_every_skip_reason():
    reasons = set()
    for scan in (scan_conjecture, check_positivity, check_product_lower_bound):
        reasons |= {entry["reason"] for entry in scan(MIXED_GRID).skipped}
    assert reasons == {
        "outside the conjectured region",
        "requires r > -1/2",
        "requires x != -1/2",
        "claims apply only off x = -1/2",
    }


def _positivity_first_n(point):
    return 0 if point.x < MINUS_HALF else 2


def _unrestricted_reports(n_max: int) -> dict[str, ScanReport]:
    # Scanning the mixed grid without the claims' domain restrictions makes
    # the scan driver itself build and report violations; the product lower
    # bound fails only below its domain, at r = -5/2 and r = -5/4.
    r_values = (Fraction(-5, 2), Fraction(-5, 4)) + MIXED_GRID.r_values
    grid = GridSpec(r_values, tuple(x for x in MIXED_GRID.x_values if x != MINUS_HALF), n_max)

    def no_skip(point):
        return None

    cases = [
        ("turan-conjecture", _turan_terms, _turan_margin, _turan_reference, lambda point: 1),
        ("positivity", _positivity_terms, _positivity_margin, _positivity_reference, _positivity_first_n),
        ("product-lower-bound", _lower_bound_terms, _lower_bound_margin, _lower_bound_reference, lambda point: 2),
    ]
    reports = {}
    for claim_id, terms, margin, reference, first_n in cases:
        report = _scan(claim_id, grid, no_skip, terms, margin, first_n)
        _assert_same_line(report.to_json_line(), _reference_scan(claim_id, grid, no_skip, reference))
        assert report.violations
        reports[claim_id] = report
    return reports


def test_violation_reports_match_fraction_reference():
    _unrestricted_reports(12)


def test_violations_past_block_boundaries_match_fraction_reference():
    # At n_max 150 the Turán and lower-bound values are read off a state
    # divided twice, and reported over the reduced scales.
    reports = _unrestricted_reports(150)
    assert max(n for n, *_ in reports["turan-conjecture"].violations) > 2 * _BLOCK


def test_violation_values_extend_d_only_to_the_last_violation(monkeypatch):
    # At (-3/8, -39/64) T_n is negative at n = 2 alone, so the values stop
    # at d_3 however deep the scan; at (4, 16/25) they stop at d_{n+1} for
    # the last odd n <= 400.  Every value is still the reference's.
    drawn = {}

    def spy(at):
        for n, value in enumerate(d_values(at)):
            drawn[at] = n
            yield value

    def violations(at, n_max):
        grid = GridSpec((at.r,), (at.x,), n_max)
        return _scan("turan-conjecture", grid, lambda point: None, _turan_signs, _turan_margin, lambda point: 1).violations

    d_values = analysis._d_values
    monkeypatch.setattr(analysis, "_d_values", spy)
    at = EvalPoint(Fraction(-3, 8), Fraction(-39, 64))
    assert [n for n, *_ in violations(at, 3000)] == [2] and drawn[at] == 3
    at = EvalPoint(4, Fraction(16, 25))
    found = violations(at, 400)
    last = found[-1][0]
    assert found[0][0] == 149 and drawn[at] == last + 1
    seq = d_eval_sequence(last + 1, at)
    assert [value for *_, value in found] == [_turan_margin(seq, n, at) for n, *_ in found]
