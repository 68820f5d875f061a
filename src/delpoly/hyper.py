"""Exact evaluation of terminating hypergeometric series.

A series rFs(a_1..a_r; b_1..b_s | z) terminates when some numerator
parameter is a non-positive integer; everything here insists on that, so
every value is a finite exact sum.  The module also evaluates both sides
of the product identity that turns a product of two terminating 2F1 values
into a single terminating 4F3.  Every series is summed on reduced (p, q)
int pairs, derived parameters (2r+1, c/2, ...) are built as such pairs,
and one ``Fraction`` is built per value returned; a series symbolic in x
is an int coefficient list over one int.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from typing import Iterable

from .exactnum import RationalLike, as_exact, check_natural, pochhammer, reduced


def hyper_eval(
    numerator_params: Iterable[RationalLike],
    denominator_params: Iterable[RationalLike],
    argument: RationalLike,
) -> Fraction:
    """Exact value of the terminating series sum_k prod(a_i)_k / prod(b_j)_k * z^k / k!.

    A series that does not terminate, or has a pole before it stops, is a
    ValueError (see ``_stop``).  An int or a Fraction is read through its
    numerator and denominator, a "p/q" string is parsed, and the one
    Fraction built is the value.
    """
    nums = [(a.numerator, a.denominator) for a in map(as_exact, numerator_params)]
    dens = [(b.numerator, b.denominator) for b in map(as_exact, denominator_params)]
    z = as_exact(argument)
    return Fraction(*_hyper_sum(nums, dens, z.numerator, z.denominator))


def _stop(nums: list[tuple[int, int]], dens: list[tuple[int, int]]) -> int:
    """The last term index: the smallest -p over the non-positive-integer
    numerator parameters p/q.  With none of them the series does not
    terminate, and a denominator parameter in {0, -1, ...} with its pole
    before that stop leaves a term undefined: both are a ValueError."""
    stops = [-p for p, q in nums if q == 1 and p <= 0]
    if not stops:
        raise ValueError("series does not terminate: no non-positive-integer numerator parameter")
    stop = min(stops)
    for u, v in dens:
        if v == 1 and -(stop - 1) <= u <= 0:
            raise ValueError(f"pole in denominator parameter {u} before termination at k={stop}")
    return stop


def _hyper_sum(nums: list[tuple[int, int]], dens: list[tuple[int, int]], zn: int, zd: int) -> tuple[int, int]:
    """The series value as the unreduced ints (total, den); nothing is coerced.

    a_i = p_i/q_i, b_j = u_j/v_j and z = zn/zd come as reduced pairs with
    positive denominators, which the stop and pole tests rely on (an integer
    has q == 1, a sign is the numerator's).  The term ratio t_{k+1}/t_k is

        prod(p_i + k*q_i) * prod(v_j) * zn  /  (prod(q_i) * prod(u_j + k*v_j) * zd * (k+1)),

    so the term numerator is streamed and the running total is kept over
    the current term's denominator (``total = total*fd + num``).
    """
    stop = _stop(nums, dens)
    num_scale, den_scale = zn, zd
    for _, v in dens:
        num_scale *= v
    for _, q in nums:
        den_scale *= q
    term = total = den = 1
    for k in range(stop):
        fn = num_scale
        for p, q in nums:
            fn *= p + k * q
        fd = den_scale * (k + 1)
        for u, v in dens:
            fd *= u + k * v
        term *= fn
        total = total * fd + term
        den *= fd
    return total, den


def _x_series(
    nums: list[tuple[int, int]], x_nums: list[tuple[int, int, int]], dens: list[tuple[int, int]], z: int | Fraction
) -> tuple[list[int], int]:
    """``_hyper_sum`` with the numerator parameters s*x + p/q, s = +-1, given
    as ``x_nums`` triples (s, p, q): the value symbolic in x as an int
    coefficient list, low degree first, over an int den > 0.  Such a
    parameter's factor s*x + p/q + k is the linear (p + k*q) + s*q*x over q,
    and only ``nums`` can stop the series."""
    stop = _stop(nums, dens)
    num_scale = z.numerator * prod(v for _, v in dens)
    den_scale = z.denominator * prod(q for _, q in nums) * prod(q for _, _, q in x_nums)
    # term k is scale * x_term, x_term being the product of the x-parameters' linear factors
    x_term, scale, total, den = [1], 1, [1], 1
    for k in range(stop):
        fn = num_scale
        for p, q in nums:
            fn *= p + k * q
        fd = den_scale * (k + 1)
        for u, v in dens:
            fd *= u + k * v
        scale *= fn
        for s, p, q in x_nums:
            a, b = s * q, p + k * q
            x_term = [b * lo + a * hi for lo, hi in zip(x_term + [0], [0] + x_term)]
        total = [fd * c + scale * t for c, t in zip(total + [0] * len(x_nums), x_term)]
        den *= fd
    return (total, den) if den > 0 else ([-c for c in total], -den)


def hyper2f1(a: RationalLike, b: RationalLike, c: RationalLike, z: RationalLike) -> Fraction:
    """Terminating 2F1(a, b; c; z)."""
    return hyper_eval((a, b), (c,), z)


def d_via_hyper(n: int, r: RationalLike, x: RationalLike) -> Fraction:
    """d_n(x) through the hypergeometric bridge (2r+1)_n / n! * 2F1(-n, r-x; 2r+1; 2).

    Requires r outside {-1/2, -1, -3/2, ...}, where the 2r+1 denominator
    parameter degenerates.
    """
    check_natural(n, "n")
    return _bridge(n, as_exact(r), as_exact(x), False)


def d_via_hyper_companion(n: int, r: RationalLike, x: RationalLike) -> Fraction:
    """The mirror bridge (-1)^n (2r+1)_n / n! * 2F1(-n, r+1+x; 2r+1; 2)."""
    check_natural(n, "n")
    return _bridge(n, as_exact(r), as_exact(x), True)


def _bridge(n: int, r: int | Fraction, x: int | Fraction, mirror: bool) -> Fraction:
    """The (mirror) bridge as one ``Fraction``, b and 2r + 1 as reduced int pairs."""
    rp, rq, xp, xq = r.numerator, r.denominator, x.numerator, x.denominator
    b = reduced((rp + rq) * xq + xp * rq if mirror else rp * xq - xp * rq, rq * xq)
    c = reduced(2 * rp + rq, rq)
    scale = pochhammer(Fraction(*c), n)
    total, den = _hyper_sum([(-n, 1), b], [c], 2, 1)
    return Fraction((-1 if mirror and n % 2 else 1) * scale.numerator * total, scale.denominator * factorial(n) * den)


def clausen_product_sides(
    n: int, b: RationalLike, c: RationalLike, z: RationalLike
) -> tuple[Fraction, Fraction]:
    """Both sides of the terminating product identity

    2F1(-n, b; c; z) * 2F1(-n, c-b; c; z)
        = (1-z)^n * 4F3(-n, b, c+n, c-b; c, c/2, (c+1)/2; z^2 / (4(z-1)))

    evaluated exactly as finite sums.
    """
    check_natural(n, "n")
    b, c, z = as_exact(b), as_exact(c), as_exact(z)
    bp, bq, cp, cq, zp, zq = b.numerator, b.denominator, c.numerator, c.denominator, z.numerator, z.denominator
    if zp == zq:
        raise ValueError("z = 1 is outside the identity's domain")
    c_minus_b = reduced(cp * bq - bp * cq, cq * bq)
    left, left_den = _hyper_sum([(-n, 1), (bp, bq)], [(cp, cq)], zp, zq)
    right, right_den = _hyper_sum([(-n, 1), c_minus_b], [(cp, cq)], zp, zq)
    nums = [(-n, 1), (bp, bq), reduced(cp + n * cq, cq), c_minus_b]
    dens = [(cp, cq), reduced(cp, 2 * cq), reduced(cp + cq, 2 * cq)]
    total, den = _hyper_sum(nums, dens, *reduced(zp * zp, 4 * zq * (zp - zq)))  # z^2 / (4(z-1))
    # 1 - z = (zq - zp)/zq is already in lowest terms
    return Fraction(left * right, left_den * right_den), Fraction((zq - zp) ** n * total, zq**n * den)
