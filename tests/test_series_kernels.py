"""Property tests of the k-indexed series kernels.

``hyper_eval`` sums its series on plain ints through an integer term ratio;
``meixner_eval`` is that kernel applied to 2F1(-n, -x; b; 1 - 1/c), behind
its own pole check; the bridges and the Clausen product feed the kernel
parameters they derive as reduced int pairs; and ``binom_row`` builds every
binomial coefficient of a row from one integer falling product in the top's
linear part.  Each is compared with the textbook formula, written out in
plain ``Fraction`` arithmetic in this file and in ``oracles.py``;
``binom_row`` is also checked against sympy.
"""

from fractions import Fraction
from math import factorial

import pytest

import delpoly.verify
from delpoly.bipoly import BiPoly, binom_poly, binom_row
from delpoly.dcore import meixner_eval
from delpoly.exactnum import reduced
from delpoly.hyper import clausen_product_sides, d_via_hyper, d_via_hyper_companion, hyper_eval
from delpoly.verify import verify_parametric_square
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


# Values whose derived parameters reduce: 2r+1 is an integer at r = m/2;
# c/2 and (c+1)/2 share a factor 2 with an even-numerator or half-integer c;
# c-b shares a denominator over sixths; z^2 / (4(z-1)) loses a factor 4 when
# z's numerator is even, and its denominator is negative for z < 1.
halves = st.integers(min_value=-9, max_value=9).map(lambda m: Fraction(m, 2))
sixths = st.integers(min_value=-24, max_value=24).map(lambda m: Fraction(m, 6))
evens = st.builds(lambda m, q: Fraction(2 * m, q), st.integers(min_value=-6, max_value=6), st.sampled_from([1, 3, 5]))


def bridge_reference(n: int, r: Fraction, b: Fraction) -> Fraction:
    """(2r+1)_n / n! * 2F1(-n, b; 2r+1; 2) from rising factorials."""
    return rising(2 * r + 1, n) / factorial(n) * hyper_reference((Fraction(-n), b), (2 * r + 1,), Fraction(2))


def clausen_reference(n: int, b: Fraction, c: Fraction, z: Fraction) -> tuple[Fraction, Fraction]:
    left = hyper_reference((Fraction(-n), b), (c,), z) * hyper_reference((Fraction(-n), c - b), (c,), z)
    four_f_three = hyper_reference((Fraction(-n), b, c + n, c - b), (c, c / 2, (c + 1) / 2), z * z / (4 * (z - 1)))
    return left, (1 - z) ** n * four_f_three


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(
    n=st.integers(min_value=0, max_value=10), r=st.one_of(halves, rationals), x=st.one_of(halves, sixths, rationals)
)
def test_bridges_match_rising_sums(n, r, x):
    for bridge, b, sign in ((d_via_hyper, r - x, 1), (d_via_hyper_companion, r + 1 + x, (-1) ** n)):
        try:
            expected = sign * bridge_reference(n, r, b)
        except ZeroDivisionError:  # 2r+1 is a pole before the stop
            with pytest.raises(ValueError, match="pole"):
                bridge(n, r, x)
        else:
            assert bridge(n, r, x) == expected


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(
    n=st.integers(min_value=0, max_value=8),
    b=st.one_of(sixths, rationals),
    c=st.one_of(evens, halves, sixths),
    z=st.one_of(evens, rationals),
)
def test_clausen_product_sides_match_rising_sums(n, b, c, z):
    hypothesis.assume(z != 1)
    try:
        expected = clausen_reference(n, b, c, z)
    except ZeroDivisionError:  # c is a pole before the stop; c+n keeps c/2 and (c+1)/2 from one
        with pytest.raises(ValueError, match="pole"):
            clausen_product_sides(n, b, c, z)
    else:
        assert clausen_product_sides(n, b, c, z) == expected


@hypothesis.given(p=st.integers(), q=st.integers().filter(bool))
def test_reduced_is_lowest_terms_with_positive_denominator(p, q):
    # A negative denominator would only scale a series argument, so no value
    # above shows it; the pair is checked against Fraction's own reduction.
    f = Fraction(p, q)
    assert reduced(p, q) == (f.numerator, f.denominator)


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


@pytest.mark.parametrize(
    "linear",
    [
        2 * R + 15,  # no x: every x^a r^b with a > 0 drops out
        -X - Fraction(3, 2),  # no r
        BiPoly.const(Fraction(7, 3)),  # a constant
        (X - 3 * R + 7) / 6,  # a denominator above 1, both variables
        BiPoly.const(11),  # binom(11, j) is 0 past j = 11
    ],
    ids=["alpha-0", "beta-0", "constant", "denominator-6", "crosses-zero"],
)
def test_binom_row_edges_match_falling_product(linear):
    row = binom_row(linear, 30)
    for j, entry in enumerate(row):
        assert entry == falling_over_factorial(linear, j), j
        assert binom_poly(linear, j) == entry, j


def test_binomial_rows_and_parametric_square_sides_multiply_no_polynomials(monkeypatch):
    # binom_row works on int coefficient lists, and parametric-square builds
    # its sides in x alone as int lists: neither reaches BiPoly.__mul__,
    # and parametric-square reads no binomial row and no sum of products.
    calls = []

    def counted(self, other):
        calls.append(other)
        return product(self, other)

    def refuse(*args):
        raise AssertionError("parametric-square built a side from BiPoly rows")

    product, top = BiPoly.__mul__, X - R
    monkeypatch.setattr(BiPoly, "__mul__", counted)
    monkeypatch.setattr(BiPoly, "__rmul__", counted)
    assert len(binom_row(top, 15)) == 16
    monkeypatch.setattr(delpoly.verify, "binom_row", refuse)
    monkeypatch.setattr(delpoly.verify, "sum_products", refuse)
    assert verify_parametric_square(4).passed
    assert calls == []


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
