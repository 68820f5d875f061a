"""Construction and evaluation of the generalized Delannoy polynomials.

The central family d_n(x) (with parameter r) is built by five independent
routes -- the defining binomial sum, an alternative closed-form sum, the
three-term recurrence, a two-term recurrence coupling d_n(x) with d_n(-x),
and coefficient extraction from the generating function
G = (1+t)^(x-r) / (1-t)^(x+r+1) through the recurrence its logarithmic
derivative gives (G' = G * (log G)').  Cross-route equality of the
resulting exact polynomials is the package's strongest self-check.

Also provided: a fast scalar evaluator, the classical Delannoy number DP
(the r=0, integer-x specialization), and exact Jacobi/Meixner evaluators
used by the connection-formula verifiers.

The scalar evaluator and the exact-sign scans share one gcd-free integer
kernel.  At a point x = p/q, r = a/b, with L = lcm(q, b), the scaled values
D_n = n! L^n d_n(x) are plain integers obeying

    D_0 = 1,  D_1 = A,  D_{n+1} = A D_n + n L^2 (n+2r) D_{n-1},  A = L(1+2x),

so d_n is the integer D_n over the known positive scale n! L^n, and a
``Fraction`` is built (and reduced) only where a value is read.

The Turán and product-lower-bound numerators are quadratic in D, so those
two scans carry the symmetric square of the recurrence instead of D itself:
with c_n = n L^2 (n+2r), P_m = D_m^2, Q_n = D_n D_{n-1} and
E_n = D_{n+1} D_{n-1},

    E_n = A Q_n + c_n P_{n-1},  Q_{n+1} = A P_n + c_n Q_n,
    P_{n+1} = A Q_{n+1} + c_n E_n,

from P_0 = 1, Q_1 = A, P_1 = A^2.  Every product there has one factor of
O(log n) bits (A or c_n), so no step multiplies two values of D's size.
Every _BLOCK steps the state is also divided exactly by the square of the
prime-to-L part of the block's indices (see ``_squared_d``).
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from math import comb, factorial, gcd, lcm, perm
from typing import Iterator

from .bipoly import R, X, BiPoly, _affine, _Lazy, _product_rows, _Slots, binom_row, sum_products
from .exactnum import RationalLike, as_exact, as_rational, check_natural, reduced
from .hyper import hyper2f1


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


@dataclass(frozen=True)
class DSequence:
    """Polynomials d_0 .. d_n produced by one construction route."""

    route: Route
    polys: tuple[BiPoly, ...]

    def __post_init__(self):
        if self.polys:
            if self.polys[0] != BiPoly.one():
                raise ValueError("sequence must start at d_0 = 1")
            if len(self.polys) > 1 and self.polys[1] != 1 + 2 * X:
                raise ValueError("d_1 must equal 1 + 2x")


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


# One lazily extended prefix per route, next to the generator that extends
# it; verifiers share prefixes heavily, so sequences are extended in place
# (under a lock) rather than rebuilt.  Each generator keeps its own working
# state in locals.  The prefix holds the generator's own objects: a d_n
# built by ``sum_products`` is held as its packed rows alone until
# something reads its coefficients, so a deep build that prints only d_n
# decodes only d_n, and an unread entry holds no coefficient dict.  DIRECT
# and NEWFORM entries are deferred (see ``bipoly._Lazy``): d_n is built on
# its first read, by its own integer sum in two linear forms of (x, r)
# mapped to (x, r) once (``_forms_to_xr``), with no state shared across n.
_cache: dict[Route, tuple[Iterator[BiPoly], list[BiPoly]]] = {}
_cache_lock = threading.Lock()


def clear_caches() -> None:
    """Drop all memoized sequences (used by timing-sensitive tests)."""
    with _cache_lock:
        _cache.clear()


def _cached_prefix(route: Route, n_max: int) -> list[BiPoly]:
    # Validate before touching the cache: a negative index would otherwise
    # read (or slice) whatever prefix an earlier call happened to build.
    if not isinstance(route, Route):
        names = ", ".join(f"Route.{r.name}" for r in Route)
        raise ValueError(f"not a Route: {route!r}; the routes are {names}")
    check_natural(n_max, "n_max")
    with _cache_lock:
        if route not in _cache:
            _cache[route] = (_GENERATORS[route](), [])
        generator, polys = _cache[route]
        try:
            polys.extend(islice(generator, max(0, n_max + 1 - len(polys))))
        except BaseException:
            # An interrupted generator cannot resume; start the route afresh.
            del _cache[route]
            raise
        return polys


def _deferred(build) -> Iterator[BiPoly]:
    for n in count():
        yield _Lazy(build=lambda n=n: build(n))


def _direct_sum(n: int) -> BiPoly:
    # n! binom(x+r+k, k) binom(x-r, n-k) is C(n, k) times the rising
    # product (u+1)...(u+k) in u = x+r times the falling product of n-k
    # factors in v = x-r.
    rising = _product_rows((1, k) for k in range(1, n + 1))
    return _sum_in_forms(n, (1, 1), ((comb(n, k), rising[k], n - k) for k in range(n + 1)))


def _newform_sum(n: int) -> BiPoly:
    # n! binom(n+2r, n-k) binom(x-r, k) 2^k is C(n, k) 2^k times
    # (2r+k+1)...(2r+n) in r, the product of the top n-k factors, times
    # the falling product of k factors in v = x-r.
    tops = _product_rows((2, m) for m in range(n, 0, -1))
    return _sum_in_forms(n, (0, 1), ((comb(n, k) << k, tops[n - k], k) for k in range(n + 1)))


def _sum_in_forms(n: int, f: tuple[int, int], terms) -> BiPoly:
    """The sum over the (w, a, j) of ``terms`` of w * a(f) * v(v-1)...(v-j+1)
    / n!, with v = x-r, f a linear form as in ``_forms_to_xr`` and a an int
    coefficient list of degree at most n-j: each term's outer product of
    coefficients is added into one (n+1) x (n+1) matrix, mapped once."""
    falling = _product_rows((1, -j) for j in range(n))
    m = [[0] * (n + 1) for _ in range(n + 1)]
    for w, a, j in terms:
        for i, ai in enumerate(a):
            if ai:
                row, wa = m[i], w * ai
                for k, c in enumerate(falling[j]):
                    row[k] += wa * c
    return _forms_to_xr(m, f, (1, -1), factorial(n))


def _forms_to_xr(m: list[list[int]], f: tuple[int, int], g: tuple[int, int], den: int) -> BiPoly:
    """The sum of m[i][j] * f^i * g^j / den over i + j < len(m), as a BiPoly
    in (x, r), for the linear forms f = f[0]*x + f[1]*r and g likewise.

    f^i g^j is homogeneous of degree s = i + j, so the degree-s part is
    read off at r = 1: Horner over the anti-diagonal,
    H <- H*f(x, 1) + m[s-t][t]*g(x, 1)^t for t = 0..s, leaves it as a
    polynomial in x whose x^e coefficient is that of x^e r^(s-e).  H is
    held at x = 2^(8*width), one ``width``-byte slot per power of x (see
    ``bipoly._Slots``), so each step is one big-int multiply-add.  Every
    coefficient of H is at most max|m| * len(m) * max(|f|_1, |g|_1)^s in
    size, which sizes the slots; the result is reduced once.
    """
    (fa, fb), (ga, gb) = f, g
    top = len(m) - 1
    big = max(abs(c) for row in m for c in row)
    width = (big * (top + 1) * max(abs(fa) + abs(fb), abs(ga) + abs(gb), 1) ** top).bit_length() // 8 + 1
    shift = 8 * width
    powers = [1]  # g(x, 1)^t at x = 2^shift
    for _ in range(top):
        powers.append(powers[-1] * (gb + (ga << shift)))
    slots, from_bytes = _Slots(width), int.from_bytes
    coeffs: dict[tuple[int, int], int] = {}
    for s in range(top + 1):
        h = 0
        for t in range(s + 1):
            h = (h * fa << shift) + h * fb + m[s - t][t] * powers[t]
        data = slots._to_bytes(h)
        for e, start in enumerate(range(0, len(data), width)):
            c = from_bytes(data[start : start + width], "little", signed=True)
            if c:
                coeffs[(e, s - e)] = c
    return BiPoly._raw(coeffs, den)


def _three_term() -> Iterator[BiPoly]:
    prev, cur = BiPoly.one(), 1 + 2 * X
    yield prev
    for m in count(1):
        yield cur
        n = m + 1
        prev, cur = cur, sum_products((((1 + 2 * X) / n, cur), ((m + 2 * R) / n, prev)))


def _two_term() -> Iterator[BiPoly]:
    # d_n(x) and its mirror d_n(-x) advance together: d_{m+1} is the
    # packed rows of the step that built it, and its mirror is the
    # one-pass sign flip of its odd-in-x rows, so neither is decoded, and
    # neither is re-slotted until the slot width grows.
    plain = mirror = BiPoly.one()
    for n in count(1):
        yield plain
        sign = 1 if n % 2 else -1
        plain = sum_products((((X + R + n) / n, plain), (sign * (X - R) / n, mirror)))
        mirror = plain.subst_neg_x()


def _series() -> Iterator[BiPoly]:
    # G = (1+t)^(x-r) (1-t)^-(x+r+1) has G'/G = sum_j c_j t^j with c_j = 1+2x
    # for even j and 1+2r for odd j, so the t^(n-1) coefficient of G' = G G'/G
    # reads n d_n = (1+2x) E_{n-1} + (1+2r) E_{n-2}, E_m = d_m + E_{m-2}.
    # The sum E_m is one more call, so it stays packed as d_m does.
    one = BiPoly.one()
    older, old = BiPoly.zero(), one  # E_{n-2}, E_{n-1}
    yield old
    for n in count(1):
        d = sum_products((((1 + 2 * X) / n, old), ((1 + 2 * R) / n, older)))
        yield d
        older, old = old, sum_products(((one, d), (one, older)))


_GENERATORS = {
    Route.DIRECT: lambda: _deferred(_direct_sum),
    Route.NEWFORM: lambda: _deferred(_newform_sum),
    Route.THREE_TERM: _three_term,
    Route.TWO_TERM: _two_term,
    Route.SERIES: _series,
}


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


# Steps per division of the squared state.  Timed with Python 3.11 on a
# 2-vCPU VM: on a 3x4 grid at n 800, blocks of 32, 48 and 64 were within 2%
# of each other and 16 was 4% slower; on a 14x12 grid at n 120, 32 was 1%
# slower than no division and 64 was not.
_BLOCK = 64


def _block_factor(n: int, L: int) -> int:
    """The product of n - _BLOCK + 1 .. n with every prime of L divided out."""
    f = perm(n, _BLOCK)
    g = gcd(f, L)
    while g > 1:  # a prime of L left in f divides g, so also gcd(f, g^2)
        f //= g
        g = gcd(f, g * g)
    return f


def _divide_exactly(values, d: int) -> list[int]:
    """Each of ``values`` over d; an ArithmeticError if one has a remainder."""
    out = []
    for v in values:
        quotient, remainder = divmod(v, d)
        if remainder:
            raise ArithmeticError(f"{d} does not divide a scan value exactly")
        out.append(quotient)
    return out


def _squared_d(at: EvalPoint, L: int, A: int):
    """Yield (P_{n-1}, Q_n, P_n, E_n, c_n, g) for n = 1, 2, 3, ..., forever:
    P_m = D_m^2, Q_n = D_n D_{n-1} and E_n = D_{n+1} D_{n-1}, each divided by
    every block factor so far, and g is what the state was divided by since
    the previous yield: 1, or f^2 right after a block.

    Each step multiplies the state only by A or c_n = n L^2 (n+2r), never
    one big value by another; the state is three plain ``int``s.  After
    every _BLOCK steps it is divided by f^2, f = _block_factor(n, L).  d_n
    is a sum of products of binomials with tops in x and r, so it is
    p-integral for every prime p not dividing L: n!' divides D_n, and
    (n!')^2 divides P_n, Q_{n+1} and P_{n+1}.
    """
    L2, K = L * L, _twice_r(at, L)
    p_prev, q, p = 1, A, A * A
    g = 1
    for end in count(_BLOCK, _BLOCK):
        for n in range(end - _BLOCK + 1, end + 1):
            c = n * (L2 * n + K)
            e = A * q + c * p_prev
            yield p_prev, q, p, e, c, g
            g = 1
            q = A * p + c * q
            p_prev, p = p, A * q + c * e
        g = _block_factor(end, L) ** 2
        p_prev, q, p = _divide_exactly((p_prev, q, p), g)


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


def jacobi_eval(
    n: int, alpha: BiPoly | int | Fraction, beta: BiPoly | int | Fraction, point: RationalLike
) -> BiPoly:
    """Jacobi polynomial P_n^(alpha, beta) at a rational point, by
    ``_jacobi_sum``; alpha and beta may be affine in x and r (an int or
    ``Fraction`` is a constant), so the result is again a BiPoly."""
    check_natural(n, "n")
    message = "jacobi_eval requires affine alpha and beta"
    alpha, beta = _affine(alpha, message), _affine(beta, message)
    return _jacobi_sum(sum_products, n, binom_row(n + alpha, n), binom_row(n + beta, n), as_rational(point))


def _jacobi_sum(total, n: int, a_row, b_row, t: Fraction):
    """P_n^(alpha, beta)(t) = sum_k a_row[k] b_row[n-k] ((t+1)/2)^k ((t-1)/2)^(n-k)
    for a_row = binom(n+alpha, .), b_row = binom(n+beta, .) (Szegő, Orthogonal
    Polynomials, §4.3), with ``total`` summing pairs' products in any algebra."""
    return total((a_row[k], b_row[n - k] * (((t + 1) / 2) ** k * ((t - 1) / 2) ** (n - k))) for k in range(n + 1))


def meixner_eval(n: int, x: RationalLike, b: RationalLike, c: RationalLike) -> Fraction:
    """Meixner polynomial M_n(x; b, c) = 2F1(-n, -x; b; 1 - 1/c), evaluated
    exactly by ``hyper``'s terminating-series kernel.

    Requires c != 0 and (b)_k != 0 for k <= n.  The pole check is made here
    for every k <= n, not only up to the kernel's stop: ``hyper_eval``
    accepts a pole that lies after an early stop (a natural x below n).
    """
    check_natural(n, "n")
    xv, bv, cv = as_exact(x), as_exact(b), as_exact(c)
    if cv == 0:
        raise ValueError("meixner_eval requires c != 0")
    if bv.denominator == 1 and -(n - 1) <= bv <= 0:
        raise ValueError(f"pole in (b)_k for b = {bv} with n = {n}")
    zn, zd = reduced(cv.numerator - cv.denominator, cv.numerator)  # 1 - 1/c
    return hyper2f1(-n, -xv, bv, zn if zd == 1 else Fraction(zn, zd))
