"""Construction and evaluation of the generalized Delannoy polynomials.

The central family d_n(x) (with parameter r) is built by five independent
routes -- the defining binomial sum, an alternative closed-form sum, the
three-term recurrence, a two-term recurrence coupling d_n(x) with d_n(-x),
and coefficient extraction from the generating function
(1+t)^(x-r) / (1-t)^(x+r+1).  Cross-route equality of the resulting exact
polynomials is the package's strongest self-check.

Also provided: a fast scalar evaluator, the classical Delannoy number DP
(the r=0, integer-x specialization), and exact Jacobi/Meixner evaluators
used by the connection-formula verifiers.

The scalar evaluator and the exact-sign scans share one gcd-free integer
kernel.  At a point x = p/q, r = a/b, with L = lcm(q, b), the scaled values
D_n = n! L^n d_n(x) are plain integers obeying

    D_0 = 1,  D_1 = A,  D_{n+1} = A D_n + n L^2 (n+2r) D_{n-1},  A = L(1+2x),

so d_n is the integer D_n over the known positive scale n! L^n, and a
``Fraction`` is built (and reduced) only where a value is read.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import factorial, lcm

from .bipoly import BiPoly, binom_row, sum_products
from .exactnum import RationalLike, as_rational, check_natural

_X = BiPoly.x()
_R = BiPoly.r()


class Route(enum.Enum):
    """The five independent ways of constructing the polynomial family."""

    DIRECT = "direct"
    NEWFORM = "newform"
    THREE_TERM = "three-term"
    TWO_TERM = "two-term"
    SERIES = "series"


@dataclass(frozen=True)
class EvalPoint:
    """A rational parameter/argument pair (r, x)."""

    r: Fraction
    x: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", as_rational(self.r))
        object.__setattr__(self, "x", as_rational(self.x))

    def r_is_excluded_half_integer(self) -> bool:
        """True when r lies in {-1/2, -1, -3/2, ...}, i.e. 2r is a negative integer.

        Several connection and inversion formulas degenerate on that set;
        verifiers consult this single predicate instead of re-encoding it.
        """
        twice = 2 * self.r
        return twice.denominator == 1 and twice <= -1


@dataclass(frozen=True)
class DSequence:
    """Polynomials d_0 .. d_n produced by one construction route."""

    route: Route
    polys: tuple[BiPoly, ...]

    def __post_init__(self):
        if self.polys:
            if self.polys[0] != BiPoly.one():
                raise ValueError("sequence must start at d_0 = 1")
            if len(self.polys) > 1 and self.polys[1] != 1 + 2 * _X:
                raise ValueError("d_1 must equal 1 + 2x")

    @property
    def n_max(self) -> int:
        return len(self.polys) - 1


def d_direct(n: int) -> BiPoly:
    """d_n via the defining sum over binom(x+r+k, k) * binom(x-r, n-k)."""
    return _cached_prefix(Route.DIRECT, n)[n]


def d_newform(n: int) -> BiPoly:
    """d_n via the closed form sum over binom(n+2r, n-k) * binom(x-r, k) * 2^k."""
    return _cached_prefix(Route.NEWFORM, n)[n]


def d_threeterm(n_max: int) -> DSequence:
    """Sequence from the three-term recurrence
    (n+1) d_{n+1} = (1+2x) d_n + (n+2r) d_{n-1}."""
    return DSequence(Route.THREE_TERM, tuple(_cached_prefix(Route.THREE_TERM, n_max)[: n_max + 1]))


def d_twoterm(n_max: int) -> DSequence:
    """Sequence from the two-term recurrence
    (n+1) d_{n+1}(x) = (x+r+n+1) d_n(x) + (-1)^n (x-r) d_n(-x)."""
    return DSequence(Route.TWO_TERM, tuple(_cached_prefix(Route.TWO_TERM, n_max)[: n_max + 1]))


def d_series(n_max: int) -> DSequence:
    """Sequence from the t^n coefficients of (1+t)^(x-r) / (1-t)^(x+r+1)."""
    return DSequence(Route.SERIES, tuple(_cached_prefix(Route.SERIES, n_max)[: n_max + 1]))


def d_sequence(route: Route, n_max: int) -> DSequence:
    """Sequence d_0..d_n_max from the given route (memoized per route)."""
    return DSequence(route, tuple(_cached_prefix(route, n_max)[: n_max + 1]))


# One growing polynomial list per route; verifiers share prefixes heavily,
# so sequences are extended in place (under a lock) rather than rebuilt.
# _aux holds per-route working state: the two n-independent binomial rows of
# the defining-sum route, the n-independent row 2^k binom(x-r, k) of the
# new-form route, the mirror sequence d_n(-x) for the two-term route, and
# the two factor coefficient lists for the series route.
_cache: dict[Route, list[BiPoly]] = {}
_aux: dict[Route, list] = {}
_cache_lock = threading.Lock()


def clear_caches() -> None:
    """Drop all memoized sequences (used by timing-sensitive tests)."""
    with _cache_lock:
        _cache.clear()
        _aux.clear()


def _cached_prefix(route: Route, n_max: int) -> list[BiPoly]:
    # Validate before touching the cache: a negative index would otherwise
    # read (or slice) whatever prefix an earlier call happened to build.
    check_natural(n_max, "n_max")
    with _cache_lock:
        polys = _cache.setdefault(route, [])
        while len(polys) <= n_max:
            _extend(route, polys)
        return polys


def _extend(route: Route, polys: list[BiPoly]) -> None:
    n = len(polys)
    if route is Route.DIRECT:
        # uppers[k] = binom(x+r+k, k) and lowers[j] = binom(x-r, j) do not
        # depend on n; each grows by one factor per new n:
        # binom(x+r+n, n) = binom(x+r+n-1, n-1) * (x+r+n) / n.
        uppers, lowers = _aux.setdefault(route, [[BiPoly.one()], [BiPoly.one()]])
        if n:
            uppers.append(uppers[n - 1] * ((_X + _R + n) / n))
            lowers.append(lowers[n - 1] * ((_X - _R - (n - 1)) / n))
        polys.append(sum_products((uppers[k], lowers[n - k]) for k in range(n + 1)))
    elif route is Route.NEWFORM:
        # lowers[k] = 2^k binom(x-r, k) does not depend on n and grows by
        # one factor per new n, as DIRECT's rows do; the row binom(n+2r, j)
        # depends on n and is taken afresh.
        uppers = binom_row(n + 2 * _R, n)
        lowers = _aux.setdefault(route, [BiPoly.one()])
        if n:
            lowers.append(lowers[n - 1] * (_X - _R - (n - 1)) * Fraction(2, n))
        polys.append(sum_products((uppers[n - k], lowers[k]) for k in range(n + 1)))
    elif route is Route.THREE_TERM:
        if n == 0:
            polys.append(BiPoly.one())
        elif n == 1:
            polys.append(1 + 2 * _X)
        else:
            m = n - 1
            polys.append(
                sum_products((((1 + 2 * _X) / n, polys[m]), ((m + 2 * _R) / n, polys[m - 1])))
            )
    elif route is Route.TWO_TERM:
        # d_n(x) and its mirror d_n(-x) advance together: each step packs
        # d_m and its mirror once to build d_{m+1}, whose mirror is then the
        # one-pass sign flip of its odd-in-x terms.
        mirror = _aux.setdefault(route, [])
        if n == 0:
            polys.append(BiPoly.one())
            mirror.append(BiPoly.one())
        else:
            m = n - 1
            sign = 1 if m % 2 == 0 else -1
            plain_next = sum_products(
                (((_X + _R + n) / n, polys[m]), (sign * (_X - _R) / n, mirror[m]))
            )
            polys.append(plain_next)
            mirror.append(plain_next.subst_neg_x())
    elif route is Route.SERIES:
        # The factor coefficients binom_poly(E, k) * sign^k do not depend on
        # the truncation order, so both factors and the Cauchy product all
        # extend one coefficient at a time.
        factors = _aux.setdefault(route, [[BiPoly.one()], [BiPoly.one()]])
        left, right = factors
        while len(left) <= n:
            k = len(left) - 1
            left.append(left[k] * (_X - _R - k) / (k + 1))
            right.append(right[k] * (-(_X + _R + 1) - k) * Fraction(-1, k + 1))
        polys.append(sum_products((left[k], right[n - k]) for k in range(n + 1)))
    else:  # pragma: no cover - exhaustive enum
        raise AssertionError(route)


def d_eval(n: int, at: EvalPoint) -> Fraction:
    """Exact scalar d_n(x) at rational (r, x), via the three-term recurrence.

    No symbolic algebra is involved, so this scales to n in the thousands:
    the integer kernel runs to D_n and one ``Fraction`` D_n / (n! L^n) is
    built.
    """
    check_natural(n, "n")
    L, A = _scale(at)
    return Fraction(next(islice(_scaled_d(at, L, A), n, None)), factorial(n) * L**n)


def d_eval_sequence(n_max: int, at: EvalPoint) -> list[Fraction]:
    """Exact scalar values d_0 .. d_n_max at one point, each D_n / (n! L^n)."""
    check_natural(n_max, "n_max")
    L, A = _scale(at)
    out = []
    scale = 1
    for n, D in zip(range(n_max + 1), _scaled_d(at, L, A)):
        out.append(Fraction(D, scale))
        scale *= (n + 1) * L
    return out


def _scale(at: EvalPoint) -> tuple[int, int]:
    """(L, A): the common denominator L of x and r, and A = L(1+2x)."""
    L = lcm(at.x.denominator, at.r.denominator)
    return L, L + 2 * at.x.numerator * (L // at.x.denominator)


def _twice_r(at: EvalPoint, L: int) -> int:
    """L^2 * 2r, an integer because the denominator of r divides L."""
    return 2 * at.r.numerator * (L // at.r.denominator) * L


def _scaled_d(at: EvalPoint, L: int, A: int):
    """Yield D_0, D_1, D_2, ... with D_n = n! L^n d_n(x) at ``at``, forever.

    Only the last two values are kept; each is a plain ``int``.
    """
    L2, K = L * L, _twice_r(at, L)
    yield 1
    prev, cur = 1, A
    n = 1
    while True:
        yield cur
        prev, cur = cur, A * cur + n * (L2 * n + K) * prev
        n += 1


def delannoy_dp(n: int, m: int) -> int:
    """Delannoy number D(n, m) by dynamic programming.

    Counts lattice paths from (0,0) to (m,n) with east, north, and diagonal
    unit steps; equals d_n(m) at r = 0 for integer m.
    """
    check_natural(n, "n")
    check_natural(m, "m")
    row = [1] * (m + 1)
    for _ in range(n):
        new = [1] * (m + 1)
        for j in range(1, m + 1):
            new[j] = new[j - 1] + row[j] + row[j - 1]
        row = new
    return row[m]


def jacobi_eval(n: int, alpha: BiPoly, beta: BiPoly, point: RationalLike) -> BiPoly:
    """Jacobi polynomial P_n^(alpha, beta) at a rational point.

    alpha and beta may be affine in x and r (that is how the connection
    formulas use them), so the result is again a BiPoly.
    """
    check_natural(n, "n")
    if not (alpha.is_affine and beta.is_affine):
        raise ValueError("jacobi_eval requires affine alpha and beta")
    t = as_rational(point)
    alphas = binom_row(n + alpha, n)
    betas = binom_row(n + beta, n)
    total = sum_products(
        (alphas[k], betas[n - k] * ((t + 1) ** k * (t - 1) ** (n - k))) for k in range(n + 1)
    )
    return total / Fraction(2**n)


def meixner_eval(n: int, x: RationalLike, b: RationalLike, c: RationalLike) -> Fraction:
    """Meixner polynomial M_n(x; b, c), evaluated exactly.

    Defined by sum_k (-n)_k (-x)_k / ((b)_k k!) * (1 - 1/c)^k; requires
    c != 0 and (b)_k != 0 for k <= n.

    With x = xn/xd, b = bn/bd and z = 1 - 1/c = zn/zd, the term ratio
    t_{k+1}/t_k is the integer quotient

        (k - n)(k*xd - xn) * bd * zn  /  (xd * (bn + k*bd) * (k+1) * zd),

    so the sum runs on plain ints over a running denominator and one
    ``Fraction`` is built at the end.  The sum stops early where a factor
    vanishes (k = n, or a natural x below n).
    """
    check_natural(n, "n")
    xv, bv, cv = as_rational(x), as_rational(b), as_rational(c)
    if cv == 0:
        raise ValueError("meixner_eval requires c != 0")
    if bv.denominator == 1 and -(n - 1) <= bv <= 0:
        raise ValueError(f"pole in (b)_k for b = {bv} with n = {n}")
    z = 1 - 1 / cv
    xn, xd = xv.numerator, xv.denominator
    bn, bd = bv.numerator, bv.denominator
    num_scale = bd * z.numerator
    den_scale = xd * z.denominator
    term = total = den = 1
    for k in range(n):
        fn = (k - n) * (k * xd - xn) * num_scale
        if fn == 0:
            break
        fd = (bn + k * bd) * (k + 1) * den_scale
        term *= fn
        total = total * fd + term
        den *= fd
    return Fraction(total, den)
