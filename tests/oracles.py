"""Reference helpers shared by the test modules, written without the package
code they check."""

from fractions import Fraction

from delpoly.bipoly import BiPoly


def rising(a, k: int) -> Fraction:
    """The literal rising product a(a+1)...(a+k-1), with (a)_0 = 1."""
    out = Fraction(1)
    for i in range(k):
        out *= Fraction(a) + i
    return out


def is_decoded(p: BiPoly) -> bool:
    """Whether ``p`` holds its coefficient dict, found without decoding it."""
    try:
        object.__getattribute__(p, "_coeffs")  # BiPoly's __getattr__ is not called
    except AttributeError:
        return False
    return True
