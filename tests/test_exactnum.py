"""Tests for the exact combinatorial primitives."""

import random
import re
import sys
from fractions import Fraction
from math import comb, factorial

import pytest

from delpoly.analysis import GridSpec
from delpoly.bipoly import BiPoly
from delpoly.dcore import EvalPoint, meixner_eval
from delpoly.exactnum import (
    binom_gen,
    check_natural,
    format_rational,
    int_to_decimal,
    parse_rational,
    pochhammer,
)
from delpoly.hyper import clausen_product_sides, d_via_hyper, hyper2f1, hyper_eval
from oracles import rising


def falling_product_oracle(z: Fraction, k: int) -> Fraction:
    """Independent oracle: the literal falling-factorial product over k!."""
    prod = Fraction(1)
    for i in range(k):
        prod *= Fraction(z) - i
    return prod / factorial(k)


def pascal_triangle_oracle(n: int, k: int) -> int:
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k] if 0 <= k <= n else 0


def test_binom_gen_ordinary():
    assert binom_gen(5, 2) == 10
    assert binom_gen(Fraction(5), 0) == 1
    assert binom_gen(0, 0) == 1
    assert binom_gen(20, 10) == 184756
    for n in range(12):
        for k in range(15):
            assert binom_gen(n, k) == pascal_triangle_oracle(n, k)


def test_binom_gen_integer_top_crossing_zero():
    assert binom_gen(3, 5) == 0
    assert binom_gen(0, 1) == 0
    assert binom_gen(2, 7) == 0


def test_binom_gen_negative_half():
    # binom(-1/2, k) = binom(2k, k) * (-4)^(-k)
    assert binom_gen(Fraction(-1, 2), 2) == Fraction(3, 8)
    for k in range(10):
        expected = Fraction(comb(2 * k, k), (-4) ** k)
        assert binom_gen(Fraction(-1, 2), k) == expected


def test_binom_gen_three_halves_is_not_zero():
    # frozen from the falling-product oracle: (3/2)(1/2)(-1/2)(-3/2)(-5/2)/120
    assert binom_gen(Fraction(3, 2), 5) == Fraction(-3, 256)
    assert binom_gen(Fraction(3, 2), 5) == falling_product_oracle(Fraction(3, 2), 5)


def test_binom_gen_matches_oracle_on_random_rationals():
    rng = random.Random(20260811)
    for _ in range(200):
        z = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        k = rng.randint(0, 25)
        assert binom_gen(z, k) == falling_product_oracle(z, k)


def test_binom_gen_pascal_recurrence():
    rng = random.Random(7)
    for _ in range(100):
        z = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        k = rng.randint(1, 20)
        assert binom_gen(z, k) == binom_gen(z - 1, k) + binom_gen(z - 1, k - 1)


def test_binom_gen_rejects_negative_k():
    with pytest.raises(ValueError):
        binom_gen(Fraction(1, 2), -1)


def test_check_natural():
    assert check_natural(0, "k") == 0
    assert check_natural(7, "k") == 7
    for bad in (-1, True, False, 2.5, "3", Fraction(2)):
        with pytest.raises(ValueError, match=re.escape(f"k must be a natural number, got {bad!r}")):
            check_natural(bad, "k")


def test_pochhammer_basics():
    assert pochhammer(1, 4) == 24
    assert pochhammer(-3, 5) == 0
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
    assert pochhammer(Fraction(1, 2), 3) == rising(Fraction(1, 2), 3)
    assert pochhammer(Fraction(7, 3), 0) == 1


def test_pochhammer_binomial_bridge():
    # (a)_k = (-1)^k * binom(-a, k) * k! for every k up to 50
    rng = random.Random(99)
    for _ in range(12):
        a = Fraction(rng.randint(-25, 25), rng.randint(1, 10))
        for k in range(51):
            assert pochhammer(a, k) == (-1) ** k * binom_gen(-a, k) * factorial(k)


def test_parse_and_format_rational():
    assert parse_rational("3/7") == Fraction(3, 7)
    assert parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational("5") == 5
    assert parse_rational(" 10/4 ") == Fraction(5, 2)
    assert parse_rational("1_000/3") == Fraction(1000, 3)  # Fraction's own integer grammar
    assert parse_rational("-3 / 7") == Fraction(-3, 7)
    assert parse_rational("+12/\t4") == 3
    assert parse_rational("\u0663/\u0667") == Fraction(3, 7)  # Arabic-Indic digits, as int() reads them
    assert format_rational(Fraction(5, 2)) == "5/2"
    assert format_rational(Fraction(-3)) == "-3"
    assert format_rational(Fraction(0)) == "0"


def test_format_then_parse_round_trips():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    rational = st.one_of(
        st.fractions(),
        st.fractions(max_denominator=10**40),
        st.integers(min_value=-(10**60), max_value=10**60).map(Fraction),
    )

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(q=rational)
    def check(q):
        assert parse_rational(format_rational(q)) == q

    check()


def _digit_limit() -> int:
    """The interpreter's int/str digit limit; 0 where it has none (before 3.11)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _repeated(block: str, times: int) -> int:
    """The int whose decimal text is ``block * times``, built by arithmetic."""
    width = len(block)
    return int(block) * (10 ** (width * times) - 1) // (10**width - 1)


# Ints whose decimal text is known by construction, around and past the
# default 4300-digit limit, with zeros inside and on both signs.
LONG_INTS = [
    (0, "0"),
    (-1, "-1"),
    (10**4300 - 1, "9" * 4300),
    (10**4300, "1" + "0" * 4300),
    (7 * 10**4299, "7" + "0" * 4299),
    (-(10**5000 + 12345), "-1" + "0" * 4995 + "12345"),
    (_repeated("1234567890", 600), "1234567890" * 600),
    (-_repeated("9876543210", 800), "-" + "9876543210" * 800),
]


@pytest.mark.parametrize(("n", "text"), LONG_INTS, ids=[f"{len(t)}-chars-{t[:2]}" for _, t in LONG_INTS])
def test_decimal_conversion_has_no_digit_limit(n, text):
    limit = _digit_limit()
    assert int_to_decimal(n) == text
    assert parse_rational(text) == n
    assert parse_rational(f"{text}/7") == Fraction(n, 7)
    if n:
        assert parse_rational(f"-3/{text.lstrip('-')}") == Fraction(-3, abs(n))
    assert _digit_limit() == limit  # the interpreter's limit is left as it was


def test_long_rationals_round_trip_under_the_digit_limit():
    q = Fraction(3**9000, 7**6000)  # 4295 and 5071 digits
    if _digit_limit():
        with pytest.raises(ValueError):
            str(q.denominator)
    for value in (q, -q, 1 / q):
        text = format_rational(value)
        assert text.count("/") == 1 and len(text) > 9000
        assert parse_rational(text) == value
    assert parse_rational(f" +{format_rational(q)} ") == q
    grouped = "_".join(int_to_decimal(q.denominator))  # every digit its own group
    assert parse_rational(f"1 / {grouped}") == Fraction(1, q.denominator)



@pytest.mark.parametrize(
    "bad",
    ["0.5", "1e3", "a/b", "1/0", "", "-", "1/", "/2", "1//2", "--1", "1/000",
     "1__0", "_1", "1_", "1/_2", "1 2", "- 1", ".5", "1/2/3"],
)
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


# Every rational entry point coerces through as_rational or as_exact, so a
# float, a decimal string or a bool must fail there instead of running on a
# binary fraction or on 1.
RATIONAL_ENTRY_POINTS = {
    "EvalPoint": lambda v: EvalPoint(v, 0),
    "GridSpec": lambda v: GridSpec((v,), (0,), 3),
    "binom_gen": lambda v: binom_gen(v, 2),
    "hyper2f1": lambda v: hyper2f1(-2, v, 1, 2),
    "hyper_eval-numerator": lambda v: hyper_eval((-2, v), (1,), 2),
    "hyper_eval-denominator": lambda v: hyper_eval((-2, 1), (v,), 2),
    "hyper_eval-argument": lambda v: hyper_eval((-2, 1), (1,), v),
    "meixner_eval-x": lambda v: meixner_eval(2, v, 1, -1),
    "meixner_eval-b": lambda v: meixner_eval(2, 0, v, -1),
    "meixner_eval-c": lambda v: meixner_eval(2, 0, 1, v),
    "d_via_hyper": lambda v: d_via_hyper(2, v, 0),
    "clausen_product_sides": lambda v: clausen_product_sides(2, 1, 1, v),
    "BiPoly.eval": lambda v: BiPoly.x().eval(0, v),
}


@pytest.mark.parametrize("bad", [0.5, "0.5", True], ids=["float", "decimal-string", "bool"])
@pytest.mark.parametrize("entry", sorted(RATIONAL_ENTRY_POINTS))
def test_rational_entry_points_reject_inexact_values(entry, bad):
    with pytest.raises(ValueError):
        RATIONAL_ENTRY_POINTS[entry](bad)
