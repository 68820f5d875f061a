"""Exact rational arithmetic and generalized combinatorial primitives.

Everything downstream is built from two functions: the generalized
binomial coefficient (falling-factorial product over k!) and the Pochhammer
symbol (rising factorial).  All values are ``fractions.Fraction``
instances; there is no floating point anywhere in this package.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from math import factorial, gcd

RationalLike = Fraction | int | str

# Fraction's own integer and ratio grammar: "_" digit groups, whitespace
# around "/"; no decimal point and no exponent.
_RATIONAL = re.compile(r"([-+]?)(\d+(?:_\d+)*)(?:\s*/\s*(\d+(?:_\d+)*))?")


def as_rational(value: RationalLike) -> Fraction:
    """Coerce a Fraction, an int (not a bool) or a "p/q" string to an exact
    rational; raise ValueError on anything else, a float included."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise ValueError(f"not an exact rational (use an int, Fraction or p/q string): {value!r}")


def as_exact(value: RationalLike) -> int | Fraction:
    """``as_rational``, but an int is returned as it is: either result has
    ``.numerator`` and ``.denominator``, and no Fraction is built for an int."""
    return value if isinstance(value, int) and not isinstance(value, bool) else as_rational(value)


def reduced(p: int, q: int) -> tuple[int, int]:
    """p/q (q != 0) in lowest terms with q > 0, as an int pair."""
    g = gcd(p, q) if q > 0 else -gcd(p, q)
    return p // g, q // g


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational from a "p/q" or integer string.

    Decimal notation is rejected on purpose: values cross every boundary of
    this package exactly, never rounded.
    """
    match = _RATIONAL.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"not an exact rational (use p/q form): {text!r}")
    sign, num, den = match.groups()
    try:
        value = Fraction(_digits_to_int(num), _digits_to_int(den or "1"))
    except ZeroDivisionError as exc:
        raise ValueError(f"not an exact rational: {text!r}") from exc
    return -value if sign == "-" else value


def format_rational(value: Fraction) -> str:
    """Render a rational as "p/q", or just "p" when the denominator is 1."""
    value = as_rational(value)
    if value.denominator == 1:
        return int_to_decimal(value.numerator)
    return f"{int_to_decimal(value.numerator)}/{int_to_decimal(value.denominator)}"


# CPython 3.11+ refuses ``str(int)`` and ``int(str)`` past a digit limit
# (4300 by default).  Exact values can be longer, so past it the two
# conversions below go through ``Decimal``, which has no such limit; the
# limit itself is left as the interpreter has it.
def int_to_decimal(n: int) -> str:
    """``str(n)`` for an int of any length, whatever the digit limit."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def _digits_to_int(digits: str) -> int:
    """``int(digits)`` for decimal digits of any length, whatever the limit."""
    try:
        return int(digits)
    except ValueError:
        return int(Decimal(digits))


def check_natural(value: int, name: str) -> int:
    """Return ``value`` if it is a natural number (an ``int`` >= 0, not a
    ``bool``); raise ValueError naming ``name`` otherwise.

    This is the one index and depth check of the package: library entry
    points and the CLI both use it, so bad input fails the same way at
    either boundary instead of being coerced or silently reinterpreted.
    """
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a natural number, got {value!r}")
    return value


def binom_gen(z: RationalLike, k: int) -> Fraction:
    """Generalized binomial coefficient z(z-1)...(z-k+1) / k!.

    The top argument may be any rational; for an integer z with 0 <= z < k
    the product crosses zero and the result is 0.  The product is
    accumulated over a common denominator and reduced exactly once.
    """
    check_natural(k, "lower index")
    num, den = _product(as_rational(z), k, -1)
    return Fraction(num, den * factorial(k))


def pochhammer(a: RationalLike, k: int) -> Fraction:
    """Rising factorial (a)_k = a(a+1)...(a+k-1), with (a)_0 = 1."""
    check_natural(k, "lower index")
    return Fraction(*_product(as_rational(a), k, 1))


def _product(a: Fraction, k: int, step: int) -> tuple[int, int]:
    """(num, den), unreduced, with num/den = a(a + step)...(a + (k-1)*step)."""
    num = 1
    p, q = a.numerator, a.denominator
    for i in range(k):
        num *= p + i * step * q
        if num == 0:
            return 0, 1
    return num, q**k
