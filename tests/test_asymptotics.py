"""The large-n law of the Turán expression against exact values.

Singularity analysis of the generating function
(1-t)^-(1+x+r) (1+t)^(x-r) gives, for -3/2 < x < 1/2,

    T_n = (-1)^n (d_n^2 - d_{n+1} d_{n-1}) ~ L * n^(2r-1),
    L = 2^(1-2r) / (Gamma(1+x+r) Gamma(r-x)),

with a relative error O(1/n).  T_n is exact, from ``d_eval_sequence``; only
the comparison with L runs in floating point, in mpmath, so the package
itself computes no float.
"""

from fractions import Fraction

import pytest

from delpoly.dcore import EvalPoint, d_eval_sequence

mpmath = pytest.importorskip("mpmath")

NS = (25, 50, 100, 200, 400, 800)

# (r, x) -> C with n * |T_n n^(1-2r) / L - 1| <= C at every n in NS.  The
# largest values measured at these n were 0.375, 0.627, 0.133, 2.0, 8.05
# and 52.6, in this order; C leaves about a fifth above each.  The points
# have r >= 0 and -3/2 < x < 1/2, away from (0, 0) and (0, -1), where a
# 1/Gamma factor of L vanishes.
BOUNDS = {
    (Fraction(1, 4), Fraction(-1, 2)): 0.45,
    (Fraction(3, 4), Fraction(-3, 8)): 0.75,
    (Fraction(3, 7), Fraction(-11, 25)): 0.16,
    (Fraction(1), Fraction(-1)): 2.5,
    (Fraction(2), Fraction(-7, 8)): 10,
    (Fraction(4), Fraction(-1, 8)): 64,
}


def _mp(value: Fraction):
    return mpmath.mpf(value.numerator) / value.denominator


@pytest.mark.parametrize("point, bound", BOUNDS.items(), ids=[f"r={r},x={x}" for r, x in BOUNDS])
def test_turan_expression_follows_its_large_n_law(point, bound):
    r, x = point
    d = d_eval_sequence(max(NS) + 1, EvalPoint(r, x))
    with mpmath.workdps(40):
        law = mpmath.mpf(2) ** (1 - 2 * _mp(r)) / (mpmath.gamma(1 + _mp(x + r)) * mpmath.gamma(_mp(r - x)))
        assert law > 0
        for n in NS:
            t = (-1) ** n * (d[n] ** 2 - d[n + 1] * d[n - 1])
            ratio = _mp(t) * mpmath.mpf(n) ** (1 - 2 * _mp(r)) / law
            assert n * abs(ratio - 1) <= bound, (n, float(ratio))
