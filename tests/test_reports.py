"""Tests of the report records' JSON form.

``json_line`` hands the values to the C encoder with a hook for Fraction;
these tests hold it to the recursive conversion it replaced (every Fraction
as ``format_rational`` text, every tuple a list, then ``json.dumps`` with
sorted keys), byte for byte, on values drawn with nested dicts, lists and
tuples and with negative, integer-valued and large Fractions.
"""

import json
from fractions import Fraction

import pytest

from delpoly.exactnum import format_rational
from delpoly.reports import Mode, ScanReport, VerifyReport, json_line


def _old_json_safe(value):
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return {k: _old_json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_old_json_safe(v) for v in value]
    return value


def _old_verify_dict(report: VerifyReport) -> dict:
    out = {
        "id": report.identity_id,
        "mode": report.mode.value,
        "range": report.range,
        "passed": report.passed,
        "skipped": _old_json_safe(list(report.skipped)),
    }
    if report.counterexample is not None:
        out["counterexample"] = _old_json_safe(report.counterexample)
    if report.degree_bound is not None:
        out["degree_bound"] = report.degree_bound
    if report.sample_count is not None:
        out["samples"] = report.sample_count
    return out


def _old_scan_dict(report: ScanReport) -> dict:
    return {
        "id": report.claim_id,
        "grid": _old_json_safe(report.grid),
        "passed": report.passed,
        "violations": _old_json_safe(list(report.violations)),
        "zero_hits": _old_json_safe(list(report.zero_hits)),
        "skipped": _old_json_safe(list(report.skipped)),
    }


def _assert_same_as_the_old_form(report, old_dict) -> None:
    old = old_dict(report)
    assert report.to_json_line() == json.dumps(old, sort_keys=True)
    assert report.as_dict() == old


def test_reports_match_the_recursive_conversion():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    fractions = st.one_of(
        st.fractions(),
        st.integers().map(Fraction),
        # Past 4300 digits, where str(int) needs the interpreter's limit lifted.
        st.builds(
            lambda p, k, q: Fraction(p * 7**k, q), st.integers(-9, 9), st.integers(0, 6000), st.integers(1, 10**40)
        ),
    )
    leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=6), fractions)
    values = st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(st.text(max_size=4), inner, max_size=4),
        ),
        max_leaves=16,
    )
    dicts = st.dictionaries(st.text(max_size=4), values, max_size=4)
    tuples = st.lists(values, max_size=4).map(tuple)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(
        value=values, counterexample=st.none() | dicts, skipped=tuples, bound=st.none() | st.integers(0, 9)
    )
    def check_verify(value, counterexample, skipped, bound):
        assert json_line(value) == json.dumps(_old_json_safe(value), sort_keys=True)
        report = VerifyReport(
            identity_id="family",
            mode=Mode.POINT_GRID,
            range="n <= 5",
            passed=counterexample is None,
            counterexample=counterexample,
            skipped=skipped,
            degree_bound=bound,
            sample_count=None if bound is None else bound + 1,
        )
        _assert_same_as_the_old_form(report, _old_verify_dict)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(grid=dicts, violations=tuples, zero_hits=tuples, skipped=tuples)
    def check_scan(grid, violations, zero_hits, skipped):
        report = ScanReport("claim", grid, violations, zero_hits, skipped)
        _assert_same_as_the_old_form(report, _old_scan_dict)

    check_verify()
    check_scan()


def test_a_violation_keeps_its_negative_large_value():
    value = -Fraction(3**9000, 7)
    report = ScanReport("claim", {"n_max": 3}, ((3, Fraction(1, 2), Fraction(-1), value),))
    _assert_same_as_the_old_form(report, _old_scan_dict)
    assert report.as_dict()["violations"] == [[3, "1/2", "-1", format_rational(value)]]


@pytest.mark.parametrize(
    "report",
    [
        ScanReport("claim", {"n_max": 3}, zero_hits=((1, {Fraction(1)}),)),
        VerifyReport("family", Mode.POINT_GRID, "n <= 1", False, counterexample={"lhs": {1, 2}}),
    ],
    ids=["scan", "verify"],
)
def test_an_unsupported_value_is_a_type_error(report):
    with pytest.raises(TypeError):
        report.to_json_line()
    with pytest.raises(TypeError):
        json_line([Fraction(1), frozenset()])


def test_repeated_and_equal_fractions_keep_their_text():
    # One Fraction object repeated, as a scan's zero hits repeat a point,
    # beside equal but distinct objects and unequal ones, each formatted as
    # the recursive conversion does.
    half, also_half, big = Fraction(1, 2), Fraction(2, 4), Fraction(-(3**5000), 7)
    hits = tuple((n, half, big if n % 2 else also_half) for n in range(40)) + ((40, Fraction(1, 2), -big),)
    report = ScanReport("claim", {"n_max": 40, "r": [half, also_half, Fraction(1, 3)]}, zero_hits=hits)
    _assert_same_as_the_old_form(report, _old_scan_dict)
    value = [half, also_half, half, [big, {"x": also_half, "y": -big}], Fraction(-1, 2)]
    assert json_line(value) == json.dumps(_old_json_safe(value), sort_keys=True)
    assert json.loads(json_line(value)) == ["1/2", "1/2", "1/2", [format_rational(big), {"x": "1/2", "y": format_rational(-big)}], "-1/2"]
