"""Property tests of the k-indexed series kernels.

``hyper_eval`` sums its series on plain ints through an integer term ratio;
``meixner_eval`` is that kernel applied to 2F1(-n, -x; b; 1 - 1/c), behind
its own pole check; and ``binom_row`` builds each binomial coefficient from
the previous one.  Each is compared with the textbook formula, written out
in plain ``Fraction`` arithmetic in this file and in ``oracles.py``;
``binom_row`` is also checked against sympy.
"""

from fractions import Fraction
from math import factorial

import pytest

from delpoly.bipoly import BiPoly, binom_poly, binom_row
from delpoly.dcore import meixner_eval
from delpoly.hyper import hyper_eval
from oracles import rising

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

X = BiPoly.x()
R = BiPoly.r()

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)


def hyper_reference(nums, dens, z) -> Fraction:
    """Term-by-term sum of prod(a)_k / prod(b)_k * z^k / k!, each term from
    scratch; a zero (b)_k up to the stop raises ZeroDivisionError."""
    stop = min(-int(a) for a in nums if a.denominator == 1 and a <= 0)
    total = Fraction(0)
    for k in range(stop + 1):
        term = z**k / factorial(k)
        for a in nums:
            term *= rising(a, k)
        for b in dens:
            term /= rising(b, k)
        total += term
    return total


def meixner_reference(n: int, x: Fraction, b: Fraction, c: Fraction) -> Fraction:
    z = 1 - 1 / c
    return sum(
        (rising(Fraction(-n), k) * rising(-x, k) / (rising(b, k) * factorial(k)) * z**k for k in range(n + 1)),
        Fraction(0),
    )


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(
    stop=st.integers(min_value=0, max_value=12),
    extra_nums=st.lists(rationals, max_size=3),
    dens=st.lists(rationals, max_size=3),
    z=rationals,
)
def test_hyper_eval_matches_term_by_term_sum(stop, extra_nums, dens, z):
    nums = (Fraction(-stop), *extra_nums)
    try:
        expected = hyper_reference(nums, dens, z)
    except ZeroDivisionError:  # a pole before the stop
        with pytest.raises(ValueError, match="pole"):
            hyper_eval(nums, dens, z)
    else:
        assert hyper_eval(nums, dens, z) == expected


@pytest.mark.parametrize(
    "nums, dens, z",
    [
        ((0, Fraction(5, 3)), (Fraction(-7, 2),), Fraction(9)),  # stops at k = 0
        ((-6, Fraction(-1, 3)), (Fraction(2, 5), Fraction(-9, 4)), Fraction(0)),  # z = 0
        ((-9, Fraction(-5, 2), 4), (Fraction(-11, 3),), Fraction(-7, 4)),  # negative z
        ((-8, -3, Fraction(1, 2)), (Fraction(-13, 2),), Fraction(3)),  # an earlier stop
        ((-10, Fraction(3, 7)), (Fraction(-21, 2), 12), Fraction(-1)),  # negative denominators
    ],
)
def test_hyper_eval_fixed_cases(nums, dens, z):
    expected = hyper_reference(tuple(map(Fraction, nums)), tuple(map(Fraction, dens)), Fraction(z))
    assert hyper_eval(nums, dens, z) == expected


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(n=st.integers(min_value=0, max_value=14), x=rationals, b=rationals, c=rationals)
def test_meixner_eval_matches_pochhammer_sum(n, x, b, c):
    hypothesis.assume(c != 0)
    hypothesis.assume(not (b.denominator == 1 and -(n - 1) <= b <= 0))
    assert meixner_eval(n, x, b, c) == meixner_reference(n, x, b, c)


@pytest.mark.parametrize("n", [1, 4, 9])
def test_meixner_eval_natural_x_below_n(n):
    # (-x)_k vanishes for k > x, so the sum stops early
    for x in range(n):
        for b, c in [(Fraction(1), Fraction(-1)), (Fraction(5, 2), Fraction(3, 7)), (Fraction(-3, 2), Fraction(-4))]:
            assert meixner_eval(n, x, b, c) == meixner_reference(n, Fraction(x), b, c)
    assert meixner_eval(n, 0, 3, 2) == 1


def falling_over_factorial(linear: BiPoly, k: int) -> BiPoly:
    prod = BiPoly.one()
    for j in range(k):
        prod = prod * (linear - j)
    return prod / factorial(k)


affine = st.builds(lambda a, b, c: a * X + b * R + c, rationals, rationals, rationals)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(linear=affine, k=st.integers(min_value=0, max_value=10))
def test_binom_row_matches_falling_product(linear, k):
    row = binom_row(linear, k)
    assert len(row) == k + 1
    for j, entry in enumerate(row):
        assert entry == falling_over_factorial(linear, j)
    assert binom_poly(linear, k) == row[k]


def test_binom_row_rejects_bad_input():
    with pytest.raises(ValueError, match="affine"):
        binom_row(X * R, 2)
    for bad in (-1, True, 2.5):
        with pytest.raises(ValueError, match="lower index must be a natural number"):
            binom_row(X, bad)


@pytest.mark.parametrize(
    "a, b, c",
    [(1, 0, 0), (1, -1, 0), (1, 1, 3), (-1, -1, -2), (Fraction(1, 2), -3, Fraction(7, 3)), (0, Fraction(-5, 4), 2)],
)
def test_binom_row_matches_sympy(a, b, c):
    sympy = pytest.importorskip("sympy")
    x, r = sympy.symbols("x r")
    a, b, c = map(Fraction, (a, b, c))

    def q(f: Fraction):
        return sympy.Rational(f.numerator, f.denominator)

    top = q(a) * x + q(b) * r + q(c)
    for j, entry in enumerate(binom_row(a * X + b * R + c, 8)):
        ours = sum((q(coef) * x**dx * r**dr for (dx, dr), coef in entry.terms()), sympy.Integer(0))
        assert sympy.expand(ours - sympy.expand_func(sympy.binomial(top, j))) == 0
