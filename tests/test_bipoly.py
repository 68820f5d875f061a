"""Tests for the exact bivariate polynomial algebra."""

import random
import re
import sys
import threading
from fractions import Fraction
from math import comb, gcd

import pytest

from delpoly.bipoly import BiPoly, _Slots, binom_poly, sum_products
from delpoly.dcore import Route, clear_caches, d_sequence
from oracles import is_decoded

X = BiPoly.x()
R = BiPoly.r()


def scalars(st):
    """Hypothesis scalars: ints, 0 and negatives included, and Fractions."""
    return st.integers(-40, 40) | st.fractions(min_value=-40, max_value=40, max_denominator=15)


def random_poly(rng, max_deg=3, max_terms=5) -> BiPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        terms[key] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return BiPoly(terms)


def test_construction_drops_zero_coefficients():
    p = BiPoly({(2, 0): 0, (1, 1): Fraction(0), (0, 0): 3})
    assert p == BiPoly.const(3)
    assert list(p.terms()) == [((0, 0), Fraction(3))]
    assert BiPoly({}).is_zero
    assert (X - X).is_zero


def test_basic_products():
    assert X * X == BiPoly({(2, 0): 1})
    assert (1 + 2 * X) ** 2 == 1 + 4 * X + 4 * X**2
    assert (X - R) * (X + R) == X**2 - R**2


def test_scalar_mixing():
    p = Fraction(1, 2) * X + 1
    assert p * 2 == X + 2
    assert (p - 1) * 2 == X
    assert (3 - p) == 2 - Fraction(1, 2) * X
    assert p / Fraction(1, 2) == X + 2


def test_eval():
    assert (1 + 2 * X).eval(0, 1) == 3
    d2 = 2 * X**2 + 2 * X + 1 + R
    assert d2.eval(0, 2) == 13
    assert (X - R).eval(Fraction(1, 2), Fraction(1, 2)) == 0
    assert d2.eval(Fraction(-2, 3), Fraction(1, 5)) == Fraction(2, 25) + Fraction(2, 5) + 1 - Fraction(2, 3)


def test_subst_neg_x():
    assert (1 + 2 * X).subst_neg_x() == 1 - 2 * X
    assert (X**2).subst_neg_x() == X**2
    d2 = 2 * X**2 + 2 * X + 1 + R
    assert d2.subst_neg_x() == 2 * X**2 - 2 * X + 1 + R


def test_subst_affine_x():
    assert X.subst_affine_x(Fraction(-1, 2)) == X - Fraction(1, 2)
    assert (X**2).subst_affine_x(1, negate=True) == 1 - 2 * X + X**2
    assert (1 + 2 * X).subst_affine_x(1, negate=True) == 3 - 2 * X


def test_subst_affine_r():
    assert R.subst_affine_r(Fraction(1, 2)) == R + Fraction(1, 2)
    assert (R**2).subst_affine_r(Fraction(-1, 2)) == R**2 - R + Fraction(1, 4)
    assert (1 + R).subst_affine_r(Fraction(1, 2)) == Fraction(3, 2) + R


def test_subst_value_pins_one_variable():
    p = 2 * X**2 + 3 * X * R + R**2 + 5
    q = p.subst_x_value(Fraction(1, 2))
    assert q.deg_x == 0
    assert q == Fraction(1, 2) + Fraction(3, 2) * R + R**2 + 5
    w = p.subst_r_value(2)
    assert w.deg_r == 0
    assert w == 2 * X**2 + 6 * X + 9


def test_substitution_evaluation_commute():
    rng = random.Random(42)
    for _ in range(50):
        p = random_poly(rng)
        r0 = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        x0 = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        assert p.subst_neg_x().eval(r0, x0) == p.eval(r0, -x0)
        shift = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        assert p.subst_affine_x(shift, negate=True).eval(r0, x0) == p.eval(r0, -x0 + shift)
        assert p.subst_affine_r(shift).eval(r0, x0) == p.eval(r0 + shift, x0)
        assert p.subst_x_value(x0).eval(r0, 0) == p.eval(r0, x0)


def weight_table_subst(p: BiPoly, axis: int, sign: int, shift: Fraction) -> BiPoly:
    """v -> sign*v + shift on ``axis`` (0: x, 1: r) by the binomial
    expansion, the reference for ``_subst``'s Taylor shift: each term c * v^d
    spread over d + 1 keys, weighted C(d, j) * sign^j * a^(d-j) * b^(D-d+j)
    over b^D for shift a/b."""
    a, b = shift.numerator, shift.denominator
    top = max((key[axis] for key, _ in p.terms()), default=0)
    out = {}
    for key, c in p.terms():
        d, other = key[axis], key[1 - axis]
        for j in range(d + 1):
            k = (j, other) if axis == 0 else (other, j)
            out[k] = out.get(k, 0) + c * comb(d, j) * sign**j * a ** (d - j) * b ** (top - d + j)
    return BiPoly({k: c / b**top for k, c in out.items()})


def test_taylor_shift_matches_the_weight_table():
    # Both axes and both signs, through _subst itself, since the public
    # methods shift r with sign +1 only.  Shifts run from zero to 40-digit
    # numerators and denominators, whose (|p| + q)^D, not q^D, sizes the
    # slots.  An undecoded sum is shifted as it is, and used afterwards as
    # a sum_products operand, which must not see anything the shift left.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    coefficient = st.integers(-(2**200), 2**200) | st.fractions(max_denominator=10**6)
    poly = st.dictionaries(st.tuples(st.integers(0, 9), st.integers(0, 9)), coefficient, max_size=16).map(BiPoly)
    big = 10**40
    shifts = st.one_of(
        st.just(Fraction(0)),
        st.integers(-big, big).map(Fraction),
        st.fractions(max_denominator=15),
        st.builds(Fraction, st.integers(-big, big), st.integers(1, big)),
    )

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(p=poly, step=poly, axis=st.sampled_from((0, 1)), sign=st.sampled_from((1, -1)), shift=shifts)
    @hypothesis.example(p=BiPoly.zero(), step=X, axis=0, sign=-1, shift=Fraction(3))
    @hypothesis.example(p=BiPoly.const(Fraction(-7, 3)), step=R, axis=1, sign=-1, shift=Fraction(-big, 7))
    @hypothesis.example(p=(X - 2 * R + 1) ** 5, step=X - R, axis=1, sign=1, shift=Fraction(-(big - 1), big))
    def check(p, step, axis, sign, shift):
        assert p._subst(axis, sign, shift) == weight_table_subst(p, axis, sign, shift)
        undecoded, want = sum_products([(p, step)]), schoolbook_sum([(p, step)])
        assert undecoded._subst(axis, sign, shift) == weight_table_subst(want, axis, sign, shift)
        assert sum_products([(undecoded, step)]) == schoolbook_sum([(want, step)])

    check()


@pytest.mark.parametrize("shift", [Fraction(1, 2), Fraction(-1, 2), Fraction(-(10**30), 7)])
@pytest.mark.parametrize("n", [0, 1, 9, 24])
def test_taylor_shift_of_a_cached_three_term_entry(n, shift):
    # The route cache holds d_n undecoded; shifting it, and then feeding it
    # to sum_products, both agree with a decoded copy.
    clear_caches()
    d = d_sequence(Route.THREE_TERM, n).polys[n]
    assert n < 2 or not is_decoded(d)
    copy = BiPoly({key: c for key, c in d.terms()})
    for axis, sign in ((0, 1), (0, -1), (1, 1), (1, -1)):
        assert d._subst(axis, sign, shift) == weight_table_subst(copy, axis, sign, shift)
    assert sum_products([(d, X - R)]) == copy * (X - R)


def test_ring_axioms_on_random_triples():
    rng = random.Random(2024)
    for _ in range(40):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_degrees_and_affine_flag():
    assert (X + R + 2).is_affine
    assert not (X * R).is_affine
    p = 3 * X**4 * R + R**2
    assert p.deg_x == 4
    assert p.deg_r == 2
    assert p.total_degree == 5


def test_binom_poly():
    assert binom_poly(X - R, 1) == X - R
    assert binom_poly(X - R, 2) == (X - R) * (X - R - 1) / 2
    expected = ((X + R) ** 2 + 3 * (X + R) + 2) / 2
    assert binom_poly(X + R + 2, 2) == expected
    assert binom_poly(X, 0) == BiPoly.one()


def test_binom_poly_rejects_non_affine():
    with pytest.raises(ValueError):
        binom_poly(X * R, 2)
    with pytest.raises(ValueError):
        binom_poly(X**2, 1)


@pytest.mark.parametrize("bad", [-1, True, 2.5])
def test_binom_poly_rejects_non_natural_index(bad):
    with pytest.raises(ValueError, match="lower index must be a natural number"):
        binom_poly(X + R, bad)


@pytest.mark.parametrize("bad", [-1, True, 2.5])
def test_pow_rejects_non_natural_exponent(bad):
    # X ** True used to return X
    with pytest.raises(ValueError, match="exponent must be a natural number"):
        X**bad


@pytest.mark.parametrize(
    "key, name",
    [((-1, 0), "degree in x"), ((0.5, 0), "degree in x"), ((True, 0), "degree in x"), ((0, -2), "degree in r")],
    ids=["negative", "float", "bool", "negative-r"],
)
def test_construction_rejects_non_natural_degrees(key, name):
    # BiPoly({(-1, 0): 1}) used to print x^-1 and fail in eval with an
    # IndexError, {(0.5, 0): 1} to print x^0.5, and a True degree to pass.
    with pytest.raises(ValueError, match=f"{name} must be a natural number"):
        BiPoly({key: 1})


def test_a_bool_equals_no_polynomial_and_is_no_scalar():
    # X == True used to raise ValueError, and so did a list search for True.
    one = BiPoly.one()
    assert (X == True) is False  # noqa: E712
    assert (one == True) is False  # noqa: E712
    assert (X != False) is True  # noqa: E712
    assert True not in [X, one]
    assert [X, one].count(True) == 0
    assert one == 1 and X != Fraction(3, 2) and (X == 1.5) is False
    for op in (lambda p: p * True, lambda p: True * p, lambda p: p / True, lambda p: p + True, lambda p: p - True):
        with pytest.raises(ValueError, match="not an exact rational"):
            op(X)


@pytest.mark.parametrize("zero", [0, Fraction(0)])
def test_division_by_zero_scalar_raises(zero):
    with pytest.raises(ZeroDivisionError, match="division of BiPoly by zero scalar"):
        (X + R) / zero


def test_canonical_text_form():
    assert BiPoly.zero().to_text() == "0"
    assert BiPoly.one().to_text() == "1"
    d2 = 2 * X**2 + 2 * X + R + 1
    assert d2.to_text() == "2*x^2 + 2*x + r + 1"
    assert (X - R).to_text() == "x - r"
    assert (-X + Fraction(3, 8) * R**2).to_text() == "-x + 3/8*r^2"
    assert (Fraction(1, 2) * X * R).to_text() == "1/2*x*r"
    assert (X**2 * R - 1).to_text() == "x^2*r - 1"


@pytest.mark.parametrize(
    "poly, text",
    [
        (-X, "-x"),
        (-R, "-r"),
        (BiPoly.const(-1), "-1"),
        (BiPoly.const(Fraction(-2, 4)), "-1/2"),
        (X - X, "0"),
        (X**2 - Fraction(1, 2) * X * R, "x^2 - 1/2*x*r"),
        (-Fraction(1, 2) * X * R + X, "-1/2*x*r + x"),
        (X**2 - Fraction(1, 2) * X * R - 1, "x^2 - 1/2*x*r - 1"),
        (X**2 * R + X**2 + X * R**3 + R + 1, "x^2*r + x^2 + x*r^3 + r + 1"),
        (R**2 - R + 1, "r^2 - r + 1"),
        (Fraction(4, 6) * X + Fraction(-5, 10), "2/3*x - 1/2"),
        (BiPoly.const(3) * X * R**2 / 3, "x*r^2"),
        (-(10**5000) * X, f"-1{'0' * 5000}*x"),  # past CPython's 4300-digit str(int) limit
    ],
)
def test_canonical_text_edge_cases(poly, text):
    assert poly.to_text() == text == str(poly)


# One term of the canonical form: a reduced coefficient and "*" before a
# monomial, or a bare monomial, or a constant.  A power of degree 1 is
# written bare, a factor of degree 0 is left out, and no number is 0 or
# starts with 0.
_COEFF = r"[1-9][0-9]*(?:/[1-9][0-9]*)?"
_POWER = r"(?:\^(?:[2-9]|[1-9][0-9]+))?"
_MONO = rf"(?:x{_POWER}(?:\*r{_POWER})?|r{_POWER})"
_TERM = rf"(?:{_COEFF}\*)?{_MONO}|{_COEFF}"
_CANONICAL = re.compile(rf"0|-?(?:{_TERM})(?: [-+] (?:{_TERM}))*")


def test_text_form_matches_sympy():
    # An outside oracle for the renderer: sympy parses the text, and the
    # polynomial it reads must be the one terms() describes.
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    x, r = sympy.symbols("x r")

    coefficient = st.one_of(
        st.sampled_from([Fraction(1), Fraction(-1)]),
        st.integers(min_value=-(10**40), max_value=10**40).map(Fraction),
        st.fractions(max_denominator=10**6),
    )
    poly = st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)), coefficient, max_size=10
    ).map(BiPoly)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(p=poly)
    @hypothesis.example(p=BiPoly.zero())
    @hypothesis.example(p=BiPoly.const(-1))
    @hypothesis.example(p=BiPoly.const(Fraction(7, 3)))
    @hypothesis.example(p=-(R**3) + R)
    @hypothesis.example(p=-X - Fraction(1, 2) * X * R)
    def check(p):
        text = p.to_text()
        assert _CANONICAL.fullmatch(text), text
        assert not re.search(r"(?:^|[ -])1\*", text), text  # a unit coefficient is dropped
        for num, den in re.findall(r"([0-9]+)/([0-9]+)", text):
            assert int(den) > 1 and gcd(int(num), int(den)) == 1, text
        read = sympy.parse_expr(text.replace("^", "**"), local_dict={"x": x, "r": r})
        want = sum(
            (sympy.Rational(c.numerator, c.denominator) * x**dx * r**dr for (dx, dr), c in p.terms()),
            sympy.Integer(0),
        )
        assert sympy.expand(read - want) == 0

    check()


def test_text_form_is_stable_under_reconstruction():
    rng = random.Random(5)
    for _ in range(30):
        p = random_poly(rng)
        q = BiPoly({key: coeff for key, coeff in p.terms()})
        assert p == q
        assert p.to_text() == q.to_text()


def schoolbook_sum(pairs) -> BiPoly:
    total = BiPoly.zero()
    for a, b in pairs:
        total = total + a * b
    return total


WIDE = 2**63 - 1  # the largest |coefficient| an 8-byte slot holds

SUM_CASES = {
    "no pairs": [],
    "negative coefficients": [(X - 3 * R + R**2 - 5, -2 * X + R - 7), (-(X**2) * R, R - X - 1)],
    "products cancel to zero": [(X + R, X - R), (-X - R, X - R)],
    "terms cancel across pairs": [(X, R + 1), (-R, X), (X, BiPoly.const(-1)), (BiPoly.one(), X * R - 2)],
    "rows with gaps in r": [(R**5 - 3 + X * R**3, 2 * R**4 + X**2 - R), (X * R**7, R**2 - X**3 * R**6)],
    "constant and affine operands": [
        (BiPoly.const(Fraction(-7, 3)), X + R + 2),
        (1 + 2 * X, (X + R + 1) ** 3),
        (BiPoly.const(5), BiPoly.const(Fraction(1, 5))),
        (2 * R + 3, BiPoly.one()),
    ],
    "unequal denominators": [
        (X / 3 + R / 5, X / 7 - Fraction(1, 11)),
        (R / 4, X / 6 + Fraction(5, 12)),
        (BiPoly.const(Fraction(1, 9)), R**2 / 2),
    ],
    "zero operands": [(BiPoly.zero(), X + 1), (X - R, R), (R**2, BiPoly.zero())],
    "only zero operands": [(BiPoly.zero(), BiPoly.zero()), (BiPoly.zero(), X)],
    "huge coefficient beside tiny ones": [
        (2**400 * X * R + 1 - R, X + R**2 - 3),
        (X - Fraction(1, 2**200), R / 3 + 2**150),
    ],
    # The r-coefficient 2 * 2^126 = 2^127 is the bound itself: it sums two
    # term products, so it needs the term-count factor of the slot width.
    "slot bound met exactly": [(2**63 * (1 + R), 2**63 * (1 + R))],
    "negative slot bound met exactly": [(2**63 * (1 + R), -(2**63) * (1 + R))],
    "widest coefficients of one slot": [(WIDE * (1 - X * R**2), BiPoly.one())],
    "d_n recurrence step": [((1 + 2 * X) / 3, 2 * X**2 + 2 * X + R + 1), ((1 + 2 * R) / 3, 1 + 2 * X)],
    # Slot bounds of bit length 63, 64, 127 and 128, each met by an output
    # coefficient: a bound of b bits needs b + 1 with the sign, so 63 and 127
    # fill whole 8-byte words and 64 and 128 need one word more.
    "63-bit slot bound": [(BiPoly.const(WIDE), X - R)],
    "64-bit slot bound": [(WIDE * X, -R), (WIDE * R, -X)],
    "127-bit slot bound": [(BiPoly.const(-(2**127 - 1)), X - R)],
    "128-bit slot bound": [((2**127 - 1) * X, R), ((2**127 - 1) * R, X)],
}


@pytest.mark.parametrize("pairs", SUM_CASES.values(), ids=SUM_CASES.keys())
def test_sum_products_matches_schoolbook_chain(pairs):
    got = sum_products(pairs)
    want = schoolbook_sum(pairs)
    assert got == want
    assert got.to_text() == want.to_text()
    assert sum_products(iter(pairs)) == want  # any iterable of pairs


@pytest.mark.parametrize(
    "pairs, bad",
    [
        ([(X, 3)], "int 3"),
        ([(Fraction(1, 2), X)], "Fraction Fraction(1, 2)"),
        ([(BiPoly.zero(), 3)], "int 3"),  # rejected even beside a zero operand
        ([(X, R), (X, "x")], "str 'x'"),
    ],
    ids=["int", "fraction", "beside-zero", "str-in-second-pair"],
)
def test_sum_products_rejects_non_bipoly_operand(pairs, bad):
    with pytest.raises(TypeError, match=f"BiPoly operands, got {re.escape(bad)}$"):
        sum_products(pairs)


@pytest.mark.parametrize("name", SUM_CASES.keys())
def test_sum_products_matches_sympy(name):
    sympy = pytest.importorskip("sympy")
    x, r = sympy.symbols("x r")

    def to_sympy(p: BiPoly):
        terms = {(dx, dr): sympy.Rational(c.numerator, c.denominator) for (dx, dr), c in p.terms()}
        return sympy.Poly.from_dict(terms, x, r, domain=sympy.QQ)

    pairs = SUM_CASES[name]
    want = sympy.Poly(0, x, r, domain=sympy.QQ)
    for a, b in pairs:
        want = want + to_sympy(a) * to_sympy(b)
    assert to_sympy(sum_products(pairs)) == want


def test_sum_products_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    coefficient = st.one_of(
        st.integers(min_value=-(2**300), max_value=2**300),
        st.fractions(max_denominator=10**6),
    )
    poly = st.dictionaries(
        st.tuples(st.integers(0, 7), st.integers(0, 9)), coefficient, max_size=14
    ).map(BiPoly)

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(pairs=st.lists(st.tuples(poly, poly), max_size=5))
    def check(pairs):
        assert sum_products(pairs) == schoolbook_sum(pairs)

    check()


def rows_decode_to_coefficients(p: BiPoly) -> bool:
    """Whether the packed form held on ``p``, if any, describes its value.

    The rows, decoded over their own denominator, must give the same
    fractions as the coefficient dict, and carried bounds (held only while
    ``p`` is undecoded) must bound the rows' max and sum of |c|.  The
    snapshot is taken before the dict is read, since reading it decodes an
    undecoded ``p`` and replaces its packed form.
    """
    if p._packed is None:
        return True
    coeffs, den = packed_value(p)
    return same_value(coeffs, den, p)


def packed_value(p: BiPoly) -> tuple[dict, int]:
    """(numerators, denominator) of ``p`` read from its packed form alone,
    so an undecoded ``p`` stays undecoded, after checking that the carried
    bounds, if any, bound the numerators."""
    width, rows, den, bounds = p._packed
    slots, coeffs = _Slots(width), {}
    for x, row in rows.items():
        slots.unpack(x, row, coeffs)
    if bounds is not None:
        values = [abs(c) for c in coeffs.values()]
        assert max(values, default=0) <= bounds[0] and sum(values) <= bounds[1]
    return coeffs, den


def same_value(coeffs: dict, den: int, want: BiPoly) -> bool:
    """Whether ``coeffs`` over ``den`` are the coefficients of ``want``."""
    want_coeffs, want_den = want._coeffs, want._den
    return coeffs.keys() == want_coeffs.keys() and all(
        c * want_den == want_coeffs[k] * den for k, c in coeffs.items()
    )


def test_packed_rows_follow_the_call_width():
    # One operand in a narrow call, then a wide one, then narrow again: its
    # cached rows are replaced at each change of width, and every sum stays
    # exact.
    p = (X + R - 3) ** 4
    narrow = [(p, X - 2 * R), (R, p)]
    wide = [(p, 2**300 * X + 1)]
    widths = []
    for pairs in (narrow, wide, narrow):
        got, want = sum_products(pairs), schoolbook_sum(pairs)
        assert got == want
        assert got.to_text() == want.to_text()
        assert rows_decode_to_coefficients(p) and rows_decode_to_coefficients(got)
        widths.append(p._packed[0])
    assert widths[0] == widths[2] == 8 < widths[1]


def test_undecoded_operand_reslots_wider_then_narrower():
    # An undecoded sum used in a wide call and then in a narrow one: its
    # rows are re-slotted from 8 bytes to 40 and back to 8, the second move
    # dropping each slot's top bytes, and both sums stay exact.
    p, step = (X + R - 3) ** 4, X - 2 * R + 5
    u, want_u = sum_products([(p, step)]), schoolbook_sum([(p, step)])
    widths = [u._packed[0]]
    for other in (BiPoly.const(2**300), X + 1):
        assert sum_products([(u, other)]) == schoolbook_sum([(want_u, other)])
        assert not is_decoded(u) and same_value(*packed_value(u), want_u)
        widths.append(u._packed[0])
    assert widths == [8, 40, 8]


def test_only_an_undecoded_mirror_carries_rows():
    # The mirror of an undecoded sum is undecoded, its rows mirrored; the
    # mirror of a decoded polynomial, packed or not, holds no rows.
    p, step = (X + R - 3) ** 4, X - 2 * R + 5
    u, want = sum_products([(p, step)]), (p * step).subst_affine_x(0, negate=True)
    mirror = u.subst_neg_x()
    assert not is_decoded(mirror) and same_value(*packed_value(mirror), want)
    assert u.to_text() and u._packed is not None  # decoded, its rows still cached
    for q in (u, p):
        assert q._packed is not None
        assert q.subst_neg_x()._packed is None
    assert u.subst_neg_x() == want


@pytest.mark.parametrize("width", [1, 8, 16, 24])
def test_slot_count_is_read_off_the_bit_length(width):
    # A packed row stores no degree in r: with every |c| < 2^(8*width - 1),
    # the bit length of a row whose top nonzero slot is t lies in
    # [8*width*t, 8*width*(t+1)).  The tightest rows put a top slot of +-1
    # over lower slots of the largest opposite magnitude.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    big = 2 ** (8 * width - 1) - 1  # the largest |c| a slot holds
    slot = st.one_of(st.integers(-big, big), st.sampled_from([-big, -1, 0, 1, big]))
    top = st.one_of(st.integers(-big, big).filter(bool), st.sampled_from([-big, -1, 1, big]))

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(lower=st.lists(slot, max_size=10), last=top)
    @hypothesis.example(lower=[-big] * 4, last=1)
    @hypothesis.example(lower=[big] * 4, last=-1)
    @hypothesis.example(lower=[big, -big, 0], last=big)
    @hypothesis.example(lower=[-big, 0, big], last=-big)
    @hypothesis.example(lower=[], last=1)
    @hypothesis.example(lower=[], last=-big)
    def check(lower, last):
        values = lower + [last]
        packed = sum(c << (8 * width * j) for j, c in enumerate(values))
        slots, out = _Slots(width), {}
        slots.unpack(5, packed, out)
        assert out == {(5, j): c for j, c in enumerate(values) if c}
        assert len(slots._to_bytes(packed)) == len(values) * width

    check()


def test_chained_recurrence_steps_match_plain_ring_ops():
    # 40 three-term and 40 two-term steps, each result fed back as an
    # operand, so later calls reuse the rows earlier calls left on their
    # results (or on the mirror of one) while the slot width grows by whole
    # words.  The reference is the same chain on __mul__ and __add__, with
    # the mirror from the generic substitution kernel.
    prev, cur = BiPoly.one(), 1 + 2 * X
    want_prev, want_cur = prev, cur
    for m in range(1, 41):
        n = m + 1
        prev, cur = cur, sum_products((((1 + 2 * X) / n, cur), ((m + 2 * R) / n, prev)))
        want_prev, want_cur = want_cur, (1 + 2 * X) / n * want_cur + (m + 2 * R) / n * want_prev
        assert cur == want_cur, m
        assert rows_decode_to_coefficients(cur)
    assert cur._packed[0] >= 24  # three words or more by d_41

    plain = mirror = want = BiPoly.one()
    for n in range(1, 41):
        sign = 1 if n % 2 else -1
        plain = sum_products((((X + R + n) / n, plain), (sign * (X - R) / n, mirror)))
        mirror = plain.subst_neg_x()
        want = (X + R + n) / n * want + sign * (X - R) / n * want.subst_affine_x(0, negate=True)
        assert plain == want, n
        assert mirror == want.subst_affine_x(0, negate=True), n
        assert rows_decode_to_coefficients(plain) and rows_decode_to_coefficients(mirror)
    assert plain == prev  # both are d_40


def test_sum_products_over_a_shared_operand_pool():
    # Calls draw their operands from one pool, and each result (or its
    # mirror) joins the pool, so operands meet calls of other widths with
    # rows cached by a pack, by an earlier result or by subst_neg_x.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    coefficient = st.one_of(
        st.integers(min_value=-(2**200), max_value=2**200),
        st.fractions(max_denominator=10**4),
    )
    poly = st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)), coefficient, max_size=8
    ).map(BiPoly)
    pick = st.integers(0, 20)
    call = st.tuples(st.lists(st.tuples(pick, pick), max_size=4), st.booleans())

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(pool=st.lists(poly, min_size=1, max_size=5), calls=st.lists(call, max_size=6))
    def check(pool, calls):
        for picks, mirrored in calls:
            pairs = [(pool[i % len(pool)], pool[j % len(pool)]) for i, j in picks]
            got = sum_products(pairs)
            assert got == schoolbook_sum(pairs)
            pool.append(got.subst_neg_x() if mirrored else got)
            assert all(rows_decode_to_coefficients(p) for p in pool)

    check()


def test_sum_products_with_affine_operands():
    # Operands of at most three terms (step factors, constants, X - R with
    # its zero r^0 slot in row x^0) go in term by term beside dense and
    # undecoded ones.  Coefficients up to 2^140 move the width across word
    # boundaries, and each result's carried bounds must hold its values.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    coefficient = st.one_of(
        st.integers(min_value=-(2**140), max_value=2**140),
        st.fractions(min_value=-(2**70), max_value=2**70, max_denominator=10**5),
    )
    key = st.tuples(st.integers(0, 4), st.integers(0, 4))
    few = st.one_of(
        st.sampled_from([X - R, R - X, (X + R + 7) / 7, -(X - R) / 3, BiPoly.one(), BiPoly.const(-1)]),
        st.builds(BiPoly.const, coefficient),
        st.dictionaries(key, coefficient, min_size=1, max_size=3).map(BiPoly),
    )
    dense = st.dictionaries(key, coefficient, min_size=4, max_size=12).map(BiPoly)
    undecoded = st.one_of(few, dense).map(lambda p: sum_products([(p, BiPoly.one())]))
    operand = st.one_of(few, dense, undecoded)

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(pairs=st.lists(st.tuples(operand, operand), max_size=5))
    @hypothesis.example(pairs=[(X - R, (X + R + 1) ** 3)])
    @hypothesis.example(pairs=[((1 + 2 * X) / 3, BiPoly.const(WIDE)), (-(X - R), (1 + R) * WIDE)])
    def check(pairs):
        want = schoolbook_sum(pairs)
        got = sum_products(pairs)
        if got._packed is not None:
            packed_value(got)  # asserts that the carried bounds hold every value
        assert got == want
        assert got.to_text() == want.to_text()

    check()


def test_affine_operand_is_not_packed():
    step, dense = (X + R + 5) / 5, (X - 2 * R + 1) ** 4
    assert sum_products([(step, dense)]) == step * dense
    assert step._packed is None and dense._packed is not None


def run_undecoded_chain(steps) -> BiPoly:
    """Run cur <- a*cur + b*other (- (a - 1/7)*cur if cancel) over ``steps``
    of (a, b, mirrored, cancel), other being prev or, if mirrored, prev at
    -x, on undecoded sum_products results and on __mul__/__add__; compare
    every step and return the last result."""
    prev, cur = BiPoly.one(), sum_products([(1 + 2 * X - R, BiPoly.one())])
    want_prev, want_cur = prev, 1 + 2 * X - R
    for a, b, mirrored, cancel in steps:
        other, want_other = prev, want_prev
        if mirrored:
            other = prev.subst_neg_x()
            want_other = BiPoly({k: -c if k[0] % 2 else c for k, c in want_prev.terms()})
        pairs = [(a, cur), (b, other)] + [(Fraction(1, 7) - a, cur)] * cancel
        want_pairs = [(a, want_cur), (b, want_other)] + [(Fraction(1, 7) - a, want_cur)] * cancel
        prev, cur = cur, sum_products(pairs)
        want_prev, want_cur = want_cur, schoolbook_sum(want_pairs)
        if cur._packed is None:
            assert cur == want_cur  # every pair had a zero factor
            continue
        assert cur._packed[3] is not None  # carried bounds, checked below
        assert same_value(*packed_value(cur), want_cur)
        assert not is_decoded(cur)
    return cur


def test_carried_bounds_never_overflow_a_slot():
    # Undecoded results go back in as operands, so each call sizes its
    # slots from the bounds carried over the chain for them.
    # Cancelling pairs push those bounds far above the true coefficients,
    # and the coefficient growth moves the width across word boundaries.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    coefficient = st.one_of(
        st.integers(min_value=-(2**16), max_value=2**16),
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
    )
    slope = st.one_of(st.just(0), coefficient)  # zero often, so degrees grow slower
    factor = st.builds(lambda c, cx, cr: BiPoly({(0, 0): c, (1, 0): cx, (0, 1): cr}), coefficient, slope, slope)
    step = st.tuples(factor, factor, st.booleans(), st.booleans())

    @hypothesis.settings(max_examples=6, deadline=None)
    @hypothesis.given(steps=st.lists(step, min_size=60, max_size=60))
    def check(steps):
        run_undecoded_chain(steps)

    check()


def test_carried_bounds_far_above_the_true_coefficients():
    # A pinned chain where every step cancels: by the end the carried bound
    # is more than 2^64 times the largest coefficient, so the slots are
    # sized from bounds that are nothing like the values, and still hold them.
    steps = [((-(2**20) + 3 * X) / 5, (1 - R) * Fraction(1, 3), bool(i % 2), True) for i in range(60)]
    last = run_undecoded_chain(steps)
    coeffs, _ = packed_value(last)
    width, _, _, (b_inf, _) = last._packed
    assert b_inf > 2**64 * max(map(abs, coeffs.values())) and width >= 16


def test_concurrent_decode_gives_one_value():
    # Four threads read one undecoded polynomial at once; whichever decode
    # lands last, every reader sees the same coefficients.
    base = (X - 2 * R + Fraction(1, 3)) ** 6
    pairs = [(base, (X + R + 1) ** 5), (-base, X**3 - R / 7)]
    want = schoolbook_sum(pairs)
    text, value = want.to_text(), want.eval(Fraction(2, 3), Fraction(-5, 4))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            p = sum_products(pairs)
            assert not is_decoded(p)
            barrier = threading.Barrier(4)
            seen = []

            def read(kind):
                barrier.wait(timeout=10)
                if kind == 0:
                    seen.append(p.to_text() == text)
                elif kind == 1:
                    seen.append(p == want)
                else:
                    seen.append(p.eval(Fraction(2, 3), Fraction(-5, 4)) == value)

            threads = [threading.Thread(target=read, args=(i % 3,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert seen == [True] * 4
            assert rows_decode_to_coefficients(p)
    finally:
        sys.setswitchinterval(interval)


def test_ring_ops_and_substitutions_match_sympy():
    # An outside oracle for the ring, the five substitutions and eval: each
    # result is compared with the same operation done by sympy on sympy.Poly.
    # Degrees up to 5 in each variable give the substitution kernel mixed
    # top degrees, so its q^D denominators are exercised.
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    x, r = sympy.symbols("x r")

    def to_sympy(p: BiPoly):
        terms = {(dx, dr): sympy.Rational(c.numerator, c.denominator) for (dx, dr), c in p.terms()}
        return sympy.Poly.from_dict(terms, x, r, domain=sympy.QQ)

    def poly_of(expr):
        return sympy.Poly(sympy.expand(expr), x, r, domain=sympy.QQ)

    coefficient = st.fractions(min_value=-20, max_value=20, max_denominator=9)
    poly = st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5)), coefficient, max_size=5
    ).map(BiPoly)
    value = st.fractions(min_value=-5, max_value=5, max_denominator=7)

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(a=poly, b=poly, s=scalars(st), k=st.integers(0, 3), u=value, v=value, negate=st.booleans())
    def check(a, b, s, k, u, v, negate):
        sa, sb, sv = to_sympy(a), to_sympy(b), sympy.Rational(v.numerator, v.denominator)
        su, ss = sympy.Rational(u.numerator, u.denominator), sympy.Rational(s.numerator, s.denominator)
        ea = sa.as_expr()
        assert to_sympy(a * b) == sa * sb
        assert to_sympy(a + b) == sa + sb
        assert to_sympy(a - b) == sa - sb
        assert to_sympy(-a) == -sa
        assert to_sympy(a * s) == to_sympy(s * a) == sa * ss
        assert to_sympy(a - s) == sa - ss and to_sympy(s - a) == ss - sa
        if s:
            assert to_sympy(a / s) == poly_of(ea / ss)
        assert to_sympy(a**k) == sa**k
        assert to_sympy(a.subst_neg_x()) == poly_of(ea.subs(x, -x))
        assert to_sympy(a.subst_affine_x(v, negate=negate)) == poly_of(
            ea.subs(x, (-x if negate else x) + sv)
        )
        assert to_sympy(a.subst_affine_r(v)) == poly_of(ea.subs(r, r + sv))
        assert to_sympy(a.subst_x_value(v)) == poly_of(ea.subs(x, sv))
        assert to_sympy(a.subst_r_value(v)) == poly_of(ea.subs(r, sv))
        assert a.eval(u, v) == Fraction(str(ea.subs({r: su, x: sv})))

    check()


def is_canonical(p: BiPoly) -> bool:
    """Integer numerators with no zero over a positive denominator, gcd 1."""
    coeffs, den = p._coeffs, p._den
    return den > 0 and gcd(den, *coeffs.values()) == 1 and all(coeffs.values())


def test_every_ring_op_and_substitution_returns_a_canonical_polynomial():
    # A scalar product takes its reduction from gcd(den, p) and gcd(q,
    # content), a sum from the gcd of the two denominators alone; both
    # rest on the operands being canonical, so each result is checked
    # for it, a decoded sum of products included.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    coefficient = st.fractions(min_value=-30, max_value=30, max_denominator=12)
    poly = st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)), coefficient, max_size=6
    ).map(BiPoly)
    value = st.fractions(min_value=-5, max_value=5, max_denominator=7)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(a=poly, b=poly, s=scalars(st), k=st.integers(0, 3), v=value, negate=st.booleans())
    def check(a, b, s, k, v, negate):
        results = [
            a * s, s * a, a + s, s - a, a + b, a - b, a - a, -a, a**k,
            a.subst_neg_x(), a.subst_affine_x(v, negate=negate), a.subst_affine_r(v),
            a.subst_x_value(v), a.subst_r_value(v),
            sum_products([(a, b), (b * s, a - b)]),
        ]
        if s:
            results.append(a / s)
        for p in results:
            assert is_canonical(p), p

    check()


def test_reflected_operators_are_the_same_functions():
    # A tracer that wraps __add__ and __mul__ finds __radd__ and __rmul__
    # by identity.
    assert BiPoly.__radd__ is BiPoly.__add__
    assert BiPoly.__rmul__ is BiPoly.__mul__
