"""Tests for terminating hypergeometric evaluation and the product identity."""

import random
from fractions import Fraction
from math import factorial

import pytest

from delpoly.dcore import EvalPoint, d_eval, meixner_eval
from delpoly.hyper import (
    _x_series,
    clausen_product_sides,
    d_via_hyper,
    d_via_hyper_companion,
    hyper2f1,
    hyper_eval,
)
from delpoly.verify import verify_clausen_product
from oracles import rising


def hyper_sum_oracle(nums, dens, z) -> Fraction:
    """Independent oracle: literal term-by-term rising-product quotients."""
    stop = min(-int(a) for a in nums if Fraction(a).denominator == 1 and a <= 0)
    total = Fraction(0)
    for k in range(stop + 1):
        term = Fraction(z) ** k / factorial(k)
        for a in nums:
            term *= rising(a, k)
        for b in dens:
            term /= rising(b, k)
        total += term
    return total


def test_two_term_sum():
    # 2F1(-1, b; c; z) = 1 - bz/c
    assert hyper2f1(-1, 1, 2, 2) == 0
    for b, c, z in [(Fraction(3), Fraction(7), Fraction(1, 2)), (Fraction(-5, 2), Fraction(1, 3), Fraction(4))]:
        assert hyper2f1(-1, b, c, z) == 1 - b * z / c


def test_zero_argument():
    assert hyper_eval((Fraction(-4), Fraction(1, 3)), (Fraction(5, 7),), Fraction(0)) == 1


def test_termination_index():
    # the sum stops at the smaller stop, k = 3, so a pole at k = 5 from the
    # denominator -4 never enters it
    nums = (Fraction(-3), Fraction(-7), Fraction(2))
    for dens in [(Fraction(1),), (Fraction(-4),)]:
        assert hyper_eval(nums, dens, Fraction(1)) == hyper_sum_oracle(nums, dens, Fraction(1))


def test_hyper_eval_matches_oracle():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(0, 8)
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
        c = Fraction(rng.randint(1, 20), rng.randint(1, 6))
        z = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        assert hyper_eval((-n, b), (c,), z) == hyper_sum_oracle([Fraction(-n), b], [c], z)


def test_spec_requires_termination():
    with pytest.raises(ValueError, match="does not terminate"):
        hyper_eval((Fraction(1, 2), Fraction(3)), (Fraction(1),), Fraction(1))


def test_spec_rejects_pole_before_termination():
    with pytest.raises(ValueError, match="pole in denominator parameter -2 before termination at k=5"):
        hyper_eval((Fraction(-5),), (Fraction(-2),), Fraction(1))
    # a pole exactly at the termination cutoff is fine: (b)_k != 0 for k <= 5
    assert hyper_eval((-5,), (-5,), 1) == hyper_sum_oracle([-5], [-5], 1)


def test_spec_pole_check_matches_pochhammer_oracle():
    # The series must be rejected exactly when some term up to the stop has
    # a zero denominator, judged by sympy's rising factorial: a pole before
    # termination is an error, a pole after an early stop is not.
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=120, deadline=None)
    @hypothesis.given(
        stops=st.lists(st.integers(0, 8), min_size=1, max_size=2),
        other=st.fractions(min_value=-4, max_value=4, max_denominator=5),
        b=st.integers(-10, 3),
    )
    def check(stops, other, b):
        nums = tuple(Fraction(-m) for m in stops) + (other,)
        stop = min(-a for a in nums if a.denominator == 1 and a <= 0)
        has_pole = any(sympy.rf(b, k) == 0 for k in range(int(stop) + 1))
        if has_pole:
            with pytest.raises(ValueError, match="pole"):
                hyper_eval(nums, (b,), Fraction(1, 3))
        else:
            assert hyper_eval(nums, (b,), Fraction(1, 3)) == hyper_sum_oracle(nums, (b,), Fraction(1, 3))

    check()
    # the series behind meixner_eval(3, 1, -2, -1): 2F1(-3, -1; -2; 2) stops
    # at k = 1, before its pole at k = 3, so the kernel sums it; meixner_eval
    # itself rejects the pole, which lies within n
    assert hyper_eval((-3, -1), (-2,), 2) == hyper_sum_oracle([-3, -1], [-2], 2) == -2
    with pytest.raises(ValueError, match="pole"):
        meixner_eval(3, 1, -2, -1)


def test_x_series_at_an_integer_x_is_the_scalar_series():
    # Each x-parameter s*x + c, with x put in, as a scalar parameter of
    # hyper_eval; where one becomes a non-positive integer the scalar series
    # stops early, and the symbolic one's later terms vanish there.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    params = st.fractions(min_value=-4, max_value=4, max_denominator=4)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        n=st.integers(0, 6),
        nums=st.lists(params, max_size=2),
        x_nums=st.lists(st.tuples(st.sampled_from((-1, 1)), params), min_size=1, max_size=2),
        dens=st.lists(params.filter(lambda b: b.denominator != 1 or b > 0), max_size=3),
        z=params,
        x=st.integers(-6, 6),
    )
    def check(n, nums, x_nums, dens, z, x):
        coeffs, den = _x_series(
            [(-n, 1)] + [(a.numerator, a.denominator) for a in nums],
            [(s, c.numerator, c.denominator) for s, c in x_nums],
            [(b.numerator, b.denominator) for b in dens],
            z,
        )
        stop = min([n] + [int(-a) for a in nums if a.denominator == 1 and a <= 0])
        assert den > 0 and len(coeffs) == stop * len(x_nums) + 1
        value = Fraction(sum(c * x**e for e, c in enumerate(coeffs)), den)
        assert value == hyper_eval([-n, *nums, *(s * x + c for s, c in x_nums)], dens, z)

    check()


def test_x_series_rejects_a_pole_before_the_stop():
    # parametric-square's rhs with (1+a)/2 in place of (1-a)/2 at a = -1:
    # the parameter 0 is a pole at k = 1, before the stop at k = 2
    with pytest.raises(ValueError, match="^pole in denominator parameter 0 before termination at k=2$"):
        _x_series([(-2, 1), (3, 1)], [(-1, 0, 1), (1, 1, 1)], [(1, 1), (1, 2), (0, 1)], 1)
    with pytest.raises(ValueError, match="^pole in denominator parameter -1 before termination at k=3$"):
        _x_series([(-3, 1)], [(-1, 0, 1)], [(-1, 1)], 2)
    # a pole exactly at the stop is fine, as for the scalar kernel
    assert _x_series([(-1, 1)], [(1, 0, 1)], [(-1, 1)], 1) == ([1, 1], 1)
    with pytest.raises(ValueError, match="does not terminate"):
        _x_series([(1, 2)], [(-1, 0, 1)], [(1, 1)], 1)


@pytest.mark.parametrize("bridge", [d_via_hyper, d_via_hyper_companion])
@pytest.mark.parametrize("bad", [-1, 2.0, True, "2"], ids=repr)
def test_bridges_reject_a_bad_n_first(bridge, bad):
    # "2" used to reach n % 2 in the mirror bridge and raise a TypeError
    with pytest.raises(ValueError, match=f"^n must be a natural number, got {bad!r}$"):
        bridge(bad, 1, 0)


def test_bridge_example():
    # prefactor form at n=2, r=1, x=0 gives the closed-form value 2
    assert d_via_hyper(2, 1, 0) == 2
    assert d_via_hyper_companion(2, 1, 0) == 2


def test_bridge_matches_scalar_evaluator():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(0, 10)
        r = Fraction(2 * rng.randint(-5, 20) + 1, 8)  # never an excluded half-integer
        x = Fraction(rng.randint(-15, 15), rng.randint(1, 7))
        expected = d_eval(n, EvalPoint(r, x))
        assert d_via_hyper(n, r, x) == expected
        assert d_via_hyper_companion(n, r, x) == expected


@pytest.mark.parametrize(
    "bridge, n, r, x, pole",
    [
        (d_via_hyper, 3, Fraction(-3, 2), 0, -2),
        (d_via_hyper_companion, 3, Fraction(-3, 2), Fraction(1, 3), -2),
        (d_via_hyper, 1, Fraction(-1, 2), 0, 0),
        (d_via_hyper_companion, 1, Fraction(-1, 2), 0, 0),
    ],
)
def test_bridge_pole_messages(bridge, n, r, x, pole):
    # 2r+1 is built as the pair (2p+q, q), here (2*pole, 2): only reduced
    # does the pole test see the integer pole instead of dividing by zero
    with pytest.raises(ValueError, match=f"^pole in denominator parameter {pole} before termination at k={n}$"):
        bridge(n, r, x)


@pytest.mark.parametrize(
    "values, forms",
    [
        ((3, -7, 2, -2), (int, Fraction, str)),
        ((Fraction(5, 3), Fraction(-7, 2), Fraction(3, 4), Fraction(-2, 9)), (Fraction, str)),
    ],
)
def test_int_fraction_and_string_arguments_agree(values, forms):
    # An int or a Fraction is read through .numerator and .denominator, a
    # "p/q" string is parsed; each form gives the oracle's value.
    b, c, z, x = map(Fraction, values)
    expected = [
        hyper_sum_oracle([-4, b], [c], z),
        hyper_sum_oracle([-3, b], [c], z),
        hyper_sum_oracle([-5, -x], [b], 1 - 1 / z),
    ]
    for form in forms:
        bf, cf, zf, xf = map(form, values)
        assert [hyper_eval((form(-4), bf), (cf,), zf), hyper2f1(-3, bf, cf, zf), meixner_eval(5, xf, bf, zf)] == expected


def test_clausen_product_trivial_and_small():
    lhs, rhs = clausen_product_sides(0, Fraction(1, 3), Fraction(5, 2), Fraction(7))
    assert lhs == rhs == 1

    lhs, rhs = clausen_product_sides(1, 2, 3, 2)
    assert lhs == rhs == Fraction(-1, 9)


def test_clausen_product_square_formula_parameters():
    # the (b, c, z) = (r+1+x, 2r+1, 2) specialization behind the square formula
    for r, x in [(Fraction(1), Fraction(0)), (Fraction(7, 3), Fraction(1, 5)), (Fraction(1, 2), Fraction(-2, 5))]:
        lhs, rhs = clausen_product_sides(2, r + 1 + x, 2 * r + 1, 2)
        assert lhs == rhs


def test_clausen_product_rejects_z_one():
    with pytest.raises(ValueError):
        clausen_product_sides(2, Fraction(1), Fraction(3), Fraction(1))


def test_clausen_report_counterexample_shape():
    lhs, rhs = clausen_product_sides(3, Fraction(-3, 2), Fraction(1, 2), Fraction(3))
    assert lhs == rhs
    report = verify_clausen_product(1, fault_index=0)
    assert report.identity_id == "clausen-product"
    ce = report.counterexample
    assert ce["instance"] == "n=0"
    assert ce["params"] == {"n": 0, "b": Fraction(-3, 2), "c": Fraction(1, 2), "z": Fraction(-1)}
    assert ce["rhs"] == ce["lhs"] + 1


@pytest.mark.parametrize("bad", [-1, True, 2.5])
def test_clausen_product_sides_rejects_non_natural_n(bad):
    with pytest.raises(ValueError, match="n must be a natural number"):
        clausen_product_sides(bad, 2, 1, 3)
