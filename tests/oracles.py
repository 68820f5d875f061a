"""Reference helpers shared by the test modules, written without the package
code they check."""

from fractions import Fraction
from functools import cache

from delpoly.bipoly import BiPoly


def rising(a, k: int) -> Fraction:
    """The literal rising product a(a+1)...(a+k-1), with (a)_0 = 1."""
    out = Fraction(1)
    for i in range(k):
        out *= Fraction(a) + i
    return out


def falling_binom(top, k: int) -> Fraction:
    """binom(top, k) as the literal falling product top(top-1)...(top-k+1) / k!."""
    out = Fraction(1)
    for i in range(k):
        out *= Fraction(top) - i
    for i in range(2, k + 1):
        out /= i
    return out


@cache
def d_defining_sum(n: int, r: Fraction, x: Fraction) -> Fraction:
    """d_n(x) with parameter r from its defining sum
    sum_k binom(x+r+k, k) binom(x-r, n-k); 0 for n < 0."""
    return sum((falling_binom(x + r + k, k) * falling_binom(x - r, n - k) for k in range(n + 1)), Fraction(0))


class FractionAlg:
    """The algebra bundle of ``delpoly.verify``'s symbolic instance
    generators at one rational point (r, x), in plain ``Fraction``s: every
    binomial is a falling product and every d_n a defining sum, so a
    generator run over it checks its identity with none of the package's
    polynomial or scalar kernels."""

    def __init__(self, r, x):
        self.r, self.x = Fraction(r), Fraction(x)

    def binom(self, top, k: int) -> Fraction:
        return falling_binom(top, k)

    def binom_row(self, top, k: int) -> list[Fraction]:
        return [falling_binom(top, j) for j in range(k + 1)]

    def sum(self, pairs) -> Fraction:
        return sum((a * b for a, b in pairs), Fraction(0))

    def d(self, n: int) -> Fraction:
        return d_defining_sum(n, self.r, self.x)

    def d_subst(self, n: int, r_shift=0, x_shift=0, x_negate: bool = False) -> Fraction:
        return d_defining_sum(n, self.r + r_shift, (-self.x if x_negate else self.x) + x_shift)

    def d_at_x(self, n: int, x_value) -> Fraction:
        return d_defining_sum(n, self.r, Fraction(x_value))


def is_decoded(p: BiPoly) -> bool:
    """Whether ``p`` holds its coefficient dict, found without decoding it."""
    try:
        object.__getattribute__(p, "_coeffs")  # BiPoly's __getattr__ is not called
    except AttributeError:
        return False
    return True
