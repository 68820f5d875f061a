"""One verifier per identity family, each producing an exact verdict.

Two modes prove the identity for every n up to the depth:

* SymbolicPoly -- both sides constructed as BiPoly and compared exactly;
* ClearedDenominator -- parameter-dependent denominators are first absorbed
  into polynomial cofactors (the quotients are exact polynomials), then the
  cleared sides are compared as BiPoly.

The other two are not shown to be proofs (ROADMAP item 2 makes them so):

* InterpolationGrid (meixner, parametric-square) -- per n the identity is
  checked on a grid of parameter values, against a degree bound and sample
  count written into the verifier.  The report's check that the samples
  exceed the bound compares, for meixner, (n+1)^2 grid points with n, a
  bound on one axis, so it would pass a grid too small to prove anything;
* PointGrid (hyper-bridge, clausen-product) -- scalar sides at fixed
  points.  hyper-bridge's first 45 points, a triangular lattice, prove its
  identity only for n <= 8; clausen-product's 83 (b, c, z) triples per n
  cover its sides, of degree 2n in each of b, c and z, only for n <= 1.

Every identity is an instance generator yielding (label, params, lhs, rhs)
cases, and all of them run through one compare loop.  The SymbolicPoly and
ClearedDenominator generators are written once over an algebra bundle that
supplies binomials, binomial rows, sums of products and the values d_n.
Over ``_SymbolicAlg`` the sides are BiPoly and each sum is one
``sum_products`` call; the tests run the same generators over plain
``Fraction``s at random points, a cross-check from outside the package.
parametric-square is not written over an algebra bundle: its sides have no
r, and ``hyper``'s series kernel sums each as an int coefficient list in x,
made a BiPoly once, and it checks each (n, a) once.  A run that checks no
case is a ValueError rather than a vacuous pass.

Each statement is checked once.  A form that restates checked cases is left
to the tests: linearization at m > n, inversion's scaled form and odd part,
Jacobi's swapped form, the combined recurrence and shift, Meixner's
re-parameterized form, and parametric-square's values at x = -1 and its
squared-sum form; each verifier's docstring says why it follows.

For fault-sensitivity testing every verifier accepts ``fault_index``; the
reference side of that case (counted over every case checked) is perturbed
by +1, which must flip the verdict and produce a concrete counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache
from itertools import islice
from math import comb
from typing import Callable, Iterable, Iterator

from .bipoly import R, X, BiPoly, binom_poly, binom_row, sum_products
from .dcore import (
    EvalPoint,
    Route,
    _jacobi_sum,
    d_eval_sequence,
    d_sequence,
    meixner_eval,
)
from .exactnum import as_rational, check_natural, reduced
from .hyper import _x_series, clausen_product_sides, d_via_hyper, d_via_hyper_companion
from .reports import Mode, VerifyReport


# ---------------------------------------------------------------------------
# The algebra bundle the symbolic identity generators run over.
# ---------------------------------------------------------------------------


class _SymbolicAlg:
    """Identity sides as exact polynomials in x and r."""

    def __init__(self, polys: tuple[BiPoly, ...]):
        self._polys = polys
        self.r = R
        self.x = X

    def binom(self, top, k: int):
        return binom_poly(top, k)

    def binom_row(self, top, k: int):
        return binom_row(top, k)

    def sum(self, pairs):
        return sum_products(pairs)

    def d(self, n: int):
        return BiPoly.zero() if n < 0 else self._polys[n]

    def d_subst(self, n: int, r_shift=0, x_shift=0, x_negate: bool = False):
        p = self.d(n)
        r_shift, x_shift = as_rational(r_shift), as_rational(x_shift)
        if r_shift:
            p = p.subst_affine_r(r_shift)
        if x_negate and not x_shift:
            return p.subst_neg_x()
        if x_negate or x_shift:
            p = p.subst_affine_x(x_shift, negate=x_negate)
        return p

    def d_at_x(self, n: int, x_value):
        return self.d(n).subst_x_value(x_value)


# ---------------------------------------------------------------------------
# Deterministic rational points for hyper-bridge.
# ---------------------------------------------------------------------------


def deterministic_points(count: int) -> tuple[EvalPoint, ...]:
    """Fixed non-excluded rational (r, x) points: cell (i, j) is r = (2i-7)/8,
    x = (15j-50)/7, walked over the diagonals i + j = 0, 1, 2, ... in turn.

    2r is never an integer, so no point lands in the degenerate half-integer
    set.  The first 45 points are the lattice i + j <= 8, on which only the
    zero polynomial of total degree <= 8 vanishes.
    """
    check_natural(count, "count")
    cells = ((i, s - i) for s in range(count) for i in range(s + 1))
    return tuple(EvalPoint(Fraction(2 * i - 7, 8), Fraction(15 * j - 50, 7)) for i, j in islice(cells, count))


# ---------------------------------------------------------------------------
# Identity instance generators.  Each yields (label, params, lhs, rhs); the
# sides of those written over an algebra bundle are whatever it computes in.
# ---------------------------------------------------------------------------


def _cofactor_row(alg, n: int) -> list:
    """binom(2r+n, n) / binom(2r+k, k) = binom(2r+n, n-k) / binom(n, k), k = 0..n.

    Entry k is the polynomial (k!/n!) * prod_{j=k+1..n} (2r+j).
    """
    row = alg.binom_row(2 * alg.r + n, n)
    return [row[n - k] / comb(n, k) for k in range(n + 1)]


def _square_instances(alg, n_max: int) -> Iterator:
    # After absorbing the binom(2r+k, k) denominators, the k-th term picks
    # up the cofactor binom(2r+n, n) / binom(2r+k, k).  Its x-dependent
    # factor binom(x-r, k) binom(x+r+k, k) 4^k does not depend on n, and
    # binom(x+r+k, k) = (-1)^k binom(-1-x-r, k).
    lower = alg.binom_row(alg.x - alg.r, n_max)
    upper = alg.binom_row(-1 - alg.x - alg.r, n_max)
    outer = [alg.sum([(lower[k], upper[k] * (-4) ** k)]) for k in range(n_max + 1)]
    for n in range(n_max + 1):
        cof = _cofactor_row(alg, n)
        rhs = alg.sum(
            (outer[k], alg.binom(n + 2 * alg.r + k, n - k) * cof[k]) for k in range(n + 1)
        )
        yield f"n={n}", {"n": n}, alg.d(n) * alg.d(n), rhs


def _linearization_instances(alg, n_max: int) -> Iterator:
    for m in range(n_max + 1):
        for n in range(m, n_max + 1):
            rhs = alg.sum(
                (
                    alg.binom(2 * alg.r + m + n - k, k) * (comb(m + n - 2 * k, m - k) * (-1) ** k),
                    alg.d(m + n - 2 * k),
                )
                for k in range(m + 1)
            )
            yield f"m={m},n={n}", {"m": m, "n": n}, alg.d(m) * alg.d(n), rhs


def _inversion_instances(alg, n_max: int) -> Iterator:
    # The inversion of the scaled alternative form and its even part, both
    # multiplied through by binom(-2r-1, n).  The k-th term then carries
    # binom(-2r-1, n) / binom(-2r-1, k), which is (-1)^(n-k) times the
    # cofactor row.  The scaled form itself is left out: these cases decide it.
    lower = alg.binom_row(alg.x - alg.r, n_max)
    mirror = alg.binom_row(-1 - alg.x - alg.r, n_max)
    for n in range(n_max + 1):
        cof = _cofactor_row(alg, n)
        even, odd = (
            alg.sum(
                (alg.d(k) * (comb(n, k) * (-1) ** (n - k)), cof[k])
                for k in range(parity, n + 1, 2)
            )
            for parity in (0, 1)
        )
        half_power = Fraction(2) ** (n - 1)
        yield f"inversion n={n}", {"n": n}, even + odd, Fraction(2) ** n * lower[n]
        yield f"even-part n={n}", {"n": n}, even, (lower[n] + mirror[n]) * half_power


def _jacobi_instances(alg, n_max: int) -> Iterator:
    # With a or b equal to 2r, x-r-n or -1-x-r-n, ``_jacobi_sum`` reads only
    # the rows binom(2r+n, .), binom(x-r, .) and binom(-1-x-r, .) for
    # P_n^(a, b)(t); the form at 3 is the NEWFORM sum itself.
    lower = alg.binom_row(alg.x - alg.r, n_max)
    mirror = alg.binom_row(-1 - alg.x - alg.r, n_max)
    for n in range(n_max + 1):
        d, two_r = alg.d(n), alg.binom_row(2 * alg.r + n, n)
        yield f"alpha=x-r-n at 3, n={n}", {"n": n}, d, _jacobi_sum(alg.sum, n, lower, two_r, Fraction(3))
        yield f"reflected at -3, n={n}", {"n": n}, d, _jacobi_sum(alg.sum, n, two_r, mirror, Fraction(-3))


def _recurrence_instances(alg, n_max: int) -> Iterator:
    for n in range(n_max + 1):
        sign = -1 if n % 2 else 1
        mirror = alg.d_subst(n, x_negate=True)
        yield (
            f"three-term n={n}",
            {"n": n},
            (n + 1) * alg.d(n + 1),
            alg.sum([(1 + 2 * alg.x, alg.d(n)), (n + 2 * alg.r, alg.d(n - 1))]),
        )
        yield (
            f"two-term n={n}",
            {"n": n},
            (n + 1) * alg.d(n + 1),
            alg.sum([(alg.x + alg.r + n + 1, alg.d(n)), (sign * (alg.x - alg.r), mirror)]),
        )


def _special_value_instances(alg, n_max: int) -> Iterator:
    # Every closed form reads one of three rows with an n-independent top:
    # binom(-r-1/2, m), binom(-r-1, m) = (-1)^m binom(r+m, m) and
    # binom(-r-3/2, m) = (-1)^m binom(r+1/2+m, m).
    half = Fraction(1, 2)
    neg_half = alg.binom_row(-alg.r - half, n_max // 2)
    neg_one = alg.binom_row(-alg.r - 1, n_max // 2)
    neg_three_halves = alg.binom_row(-alg.r - Fraction(3, 2), n_max // 2)
    for n in range(n_max + 1):
        m = n // 2
        sign = -1 if n % 2 else 1
        central = (-1) ** m * neg_one[m]  # binom(r+m, m)
        yield (
            f"x=-1/2 n={n}",
            {"n": n, "x": "-1/2"},
            alg.d_at_x(n, -half),
            0 * alg.r if n % 2 else (-1) ** m * neg_half[m],
        )
        yield f"x=0 n={n}", {"n": n, "x": "0"}, alg.d_at_x(n, 0), central
        yield f"x=-1 n={n}", {"n": n, "x": "-1"}, alg.d_at_x(n, -1), sign * central
        if n >= 1:
            if n % 2:
                h = (n - 1) // 2
                rhs = 2 * (-1) ** h * neg_three_halves[h]
            else:
                h = n // 2 - 1
                rhs = (-1) ** h * neg_three_halves[h] * (2 * n + 2 * alg.r + 1) * Fraction(1, n)
            yield f"x=1/2 n={n}", {"n": n, "x": "1/2"}, alg.d_at_x(n, half), rhs
        yield (
            f"x=1 cleared n={n}",
            {"n": n, "x": "1"},
            (alg.r + 1) * alg.d_at_x(n, 1),
            (2 * n + 1 + (2 - sign) * alg.r) * central,
        )
        if n >= 1:
            m1 = (n + 1) // 2
            m2 = (n - 1) // 2
            lhs = 6 * m1 * (2 * alg.r + 3) * alg.d_at_x(n, Fraction(3, 2))
            rhs = (
                (n + 1) * (4 * n + 6 + (2 + sign) * (2 * alg.r - 1)) * (2 * alg.r + 3)
                - (2 * alg.r - 3) * (4 * n - 2 + (2 + sign) * (2 * alg.r + 1)) * 2 * m1
            ) * ((-1) ** m2 * neg_three_halves[m2])
            yield f"x=3/2 cleared n={n}", {"n": n, "x": "3/2"}, lhs, rhs
        yield (
            f"x=2 cleared n={n}",
            {"n": n, "x": "2"},
            (alg.r + 1) * (alg.r + 2) * alg.d_at_x(n, 2),
            (
                (3 - 2 * sign) * alg.r * alg.r
                + (4 - sign) * (2 * n + 1) * alg.r
                + (4 * n * n + 4 * n + 2)
            )
            * central,
        )


def _shift_instances(alg, n_max: int) -> Iterator:
    half = Fraction(1, 2)
    for n in range(n_max + 1):
        sign = -1 if n % 2 else 1
        mirror = alg.d_subst(n, x_negate=True)
        up = alg.d_subst(n - 1, r_shift=half, x_shift=-half) if n >= 1 else None
        down = alg.d_subst(n + 1, r_shift=-half, x_shift=-half)
        if n >= 1:
            yield (
                f"difference-shift n={n}",
                {"n": n},
                2 * up,
                alg.d(n) - sign * mirror,
            )
            yield (
                f"sum-shift n={n}",
                {"n": n},
                (n + 1) * down,
                (alg.x + alg.r) * alg.d(n) + (alg.x - alg.r) * sign * mirror,
            )
        yield (
            f"reflection-swap n={n}",
            {"n": n},
            (alg.x - alg.r - 1) * alg.d_subst(n, x_shift=1, x_negate=True),
            (alg.x + alg.r) * sign * alg.d(n) - (2 * n + 2 * alg.r + 1) * mirror,
        )


def _weighted_square_sum_instances(alg, n_max: int) -> Iterator:
    # The weight prod_{j=k+1..n} (2r+j)/j of d_k^2 is entry k of the
    # cofactor row.
    squares = [alg.sum([(alg.d(k), alg.d(k))]) for k in range(n_max)]
    for n in range(1, n_max + 1):
        cof = _cofactor_row(alg, n)
        total = alg.sum((cof[k], squares[k]) for k in range(n))
        yield (
            f"n={n}",
            {"n": n},
            alg.sum([(1 + 2 * alg.x, total)]),
            alg.sum([(n + 2 * alg.r, alg.sum([(alg.d(n), alg.d(n - 1))]))]),
        )


def _hyper_bridge_instances(n_max: int, reached: list[EvalPoint]) -> Iterator:
    # Appends each point to ``reached`` before its first case.
    for point in deterministic_points(50):
        reached.append(point)
        r, x = point.r, point.x
        seq = d_eval_sequence(n_max, point)
        for n in range(n_max + 1):
            yield f"bridge n={n}", {"n": n, "r": r, "x": x}, seq[n], d_via_hyper(n, r, x)
            yield f"mirror-bridge n={n}", {"n": n, "r": r, "x": x}, seq[n], d_via_hyper_companion(n, r, x)


def _meixner_instances(n_max: int) -> Iterator:
    # The same integer (r, x) points recur for every larger n, so each
    # point's whole scalar sequence is built once and indexed.
    sequence_at = cache(lambda r, x: d_eval_sequence(n_max, EvalPoint(r, x)))

    for n in range(n_max + 1):
        for rv in range(1, n + 2):
            for xv in range(n + 1):
                yield (
                    f"connection n={n}",
                    {"n": n, "r": rv, "x": xv},
                    sequence_at(rv, xv)[n],
                    comb(2 * rv + n, n) * meixner_eval(n, xv - rv, 2 * rv + 1, -1),
                )


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """The int coefficient list of the product of two, low degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _x_poly(coeffs: list[int], den: int) -> BiPoly:
    """sum_e coeffs[e] * x^e / den, for a positive int ``den``."""
    return BiPoly._raw({(e, 0): c for e, c in enumerate(coeffs)}, den)


def _square_sides(n: int, a: Fraction) -> tuple[tuple[list[int], int], tuple[list[int], int]]:
    """lhs = 2F1(-n, -x; -a; 2) and rhs = 4F3(-n, n-a, -x, x-a; -a, -a/2, (1-a)/2; 1)
    at a = p/q < 0, as ``_x_series`` sums them.  lhs^2 = rhs is the Clausen
    product at b = -x, c = -a, z = 2, whose two 2F1 factors are equal up to
    (-1)^n there by Pfaff's transformation."""
    p, q = a.numerator, a.denominator
    lhs = _x_series([(-n, 1)], [(-1, 0, 1)], [(-p, q)], 2)
    rhs = _x_series(
        [(-n, 1), (n * q - p, q)], [(-1, 0, 1), (1, -p, q)], [(-p, q), reduced(-p, 2 * q), reduced(q - p, 2 * q)], 1
    )
    return lhs, rhs


def _parametric_square_instances(n_max: int) -> Iterator:
    for n in range(n_max + 1):
        a_grid = [Fraction(-j) for j in range(1, n + 2)]
        a_grid += [Fraction(-(2 * j - 1), 2) for j in range(1, n + 2)]
        for a in a_grid:
            (lhs, d), (rhs, e) = _square_sides(n, a)
            square = _x_poly(_convolve(lhs, lhs), d * d)
            yield f"free-parameter square n={n}", {"n": n, "a": a}, square, _x_poly(rhs, e)


_CLAUSEN_B = (Fraction(-3, 2), Fraction(-1), Fraction(1, 3), Fraction(2), Fraction(7, 2))
_CLAUSEN_C = (Fraction(1, 2), Fraction(1), Fraction(5, 2), Fraction(4))
_CLAUSEN_Z = (Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(3))
_CLAUSEN_RX = ((Fraction(1), Fraction(1, 3)), (Fraction(7, 3), Fraction(1, 5)), (Fraction(1, 2), Fraction(-2, 5)))


def _clausen_instances(n_max: int) -> Iterator:
    triples = [(b, c, z) for b in _CLAUSEN_B for c in _CLAUSEN_C for z in _CLAUSEN_Z]
    triples += [(r + 1 + x, 2 * r + 1, Fraction(2)) for (r, x) in _CLAUSEN_RX]
    for n in range(n_max + 1):
        for b, c, z in triples:
            yield (f"n={n}", {"n": n, "b": b, "c": c, "z": z}, *clausen_product_sides(n, b, c, z))


# ---------------------------------------------------------------------------
# Generic driver.
# ---------------------------------------------------------------------------


def _witness_point(diff: BiPoly, axes: tuple[str, ...]) -> EvalPoint:
    """A point where a non-zero ``diff`` provably does not vanish; r is 0 unless in ``axes``.

    With x alone it tries x = -1, -2, ..., where no binom(x, k) vanishes.
    """
    with_r = "r" in axes
    for rv in range(1, diff.deg_r + 2) if with_r else (0,):
        for xv in range(diff.deg_x + 1) if with_r else range(-1, -diff.deg_x - 2, -1):
            if diff.eval(rv, xv) != 0:
                return EvalPoint(Fraction(rv), Fraction(xv))
    raise AssertionError("non-zero polynomial vanished on its witness grid")


def _first_counterexample(
    identity_id: str, cases: Iterable, fault_index: int | None, axes: tuple[str, ...]
) -> dict | None:
    """The first case whose sides differ, as a counterexample, or None.

    Case ``fault_index`` gets rhs + 1; an index never reached, like a run
    with no case at all, is a ValueError rather than a pass.  BiPoly sides
    are reported at a witness point on ``axes``.
    """
    count = 0
    for count, (label, params, lhs, rhs) in enumerate(cases, 1):
        if count - 1 == fault_index:
            rhs = rhs + 1
        if lhs != rhs:
            if isinstance(lhs, BiPoly):
                at = _witness_point(lhs - rhs, axes)
                params = {**params, **{axis: getattr(at, axis) for axis in axes}}
                lhs, rhs = lhs.eval(at.r, at.x), rhs.eval(at.r, at.x)
            return {"instance": label, "params": params, "lhs": lhs, "rhs": rhs}
    if not count:
        raise ValueError(f"{identity_id}: no case checked, so nothing is verified")
    if fault_index is not None:
        raise ValueError(f"fault index {fault_index!r} is not among the {count} checked cases")
    return None


def _run_identity(
    identity_id: str,
    mode: Mode,
    depth: int,
    instances: Callable[[object], Iterator],
    *,
    n_high: int | None = None,
    range_desc: str | None = None,
    route: Route | None = Route.THREE_TERM,
    fault_index: int | None = None,
    skipped: tuple = (),
    witness_axes: tuple[str, ...] = ("r", "x"),
    **grid,
) -> VerifyReport:
    """Report on the cases ``instances(alg)`` yields over exact polynomials
    d_0..d_{n_high} (n_high defaults to depth) from ``route``; with no route
    the generator gets no algebra."""
    check_natural(depth, "depth")
    if fault_index is not None:
        check_natural(fault_index, "fault index")
    n_high = depth if n_high is None else n_high
    cases = instances(None if route is None else _SymbolicAlg(d_sequence(route, n_high).polys))
    counterexample = _first_counterexample(identity_id, cases, fault_index, witness_axes)
    return VerifyReport(
        identity_id=identity_id,
        mode=mode,
        range=range_desc or f"n<={depth}",
        passed=counterexample is None,
        counterexample=counterexample,
        skipped=tuple(skipped),
        **grid,
    )


_EXCLUDED_HALF_INT = {
    "r": "{-1/2, -1, -3/2, ...}",
    "reason": "statement excludes the half-integer set; cleared form holds identically",
}


def verify_square(
    n_max: int,
    *,
    fault_index: int | None = None,
) -> VerifyReport:
    """Closed form for d_n(x)^2 as a single binomial sum."""
    return _run_identity(
        "square",
        Mode.CLEARED_DENOMINATOR,
        n_max,
        lambda alg: _square_instances(alg, n_max),
        fault_index=fault_index,
        skipped=(_EXCLUDED_HALF_INT,),
    )


def verify_linearization(
    n_max: int,
    *,
    fault_index: int | None = None,
) -> VerifyReport:
    """Product d_m * d_n as a signed combination of single d_k, for m <= n:
    the rhs is symmetric, as C(m+n-2k, m-k) = C(m+n-2k, n-k), so (n, m) is
    the same identity, and the range covers both orders.  The m = 0 row,
    d_0 d_n = d_n, only restates d_0 = 1; it stays so that depth 0 checks a
    case rather than none."""
    return _run_identity(
        "linearization",
        Mode.SYMBOLIC_POLY,
        n_max,
        lambda alg: _linearization_instances(alg, n_max),
        n_high=2 * n_max,
        range_desc=f"m<={n_max}, n<={n_max}",
        fault_index=fault_index,
    )


def verify_newform_consequences(
    n_max: int,
    *,
    fault_index: int | None = None,
) -> VerifyReport:
    """Binomial-inversion consequences of the alternative closed form: its
    inversion and the inversion's even part.  The odd part is the inversion
    minus the even part, so it is not checked apart.  Neither is the scaled
    form d_n = sum_k C(n,k) 2^k binom(x-r, k) binom(2r+n, n-k) / binom(n, k):
    its right side is the NEWFORM sum that Jacobi's form at 3 checks, and
    by binomial inversion its lhs - rhs is sum_k C(n,k) cof_n[k] times the
    inversion case k's lhs - rhs, cof_n the cofactor row."""
    return _run_identity(
        "inversion",
        Mode.CLEARED_DENOMINATOR,
        n_max,
        lambda alg: _inversion_instances(alg, n_max),
        fault_index=fault_index,
        skipped=(_EXCLUDED_HALF_INT,),
    )


def verify_jacobi(
    n_max: int,
    *,
    fault_index: int | None = None,
) -> VerifyReport:
    """Two Jacobi-polynomial representations of d_n: P_n^(x-r-n, 2r)(3) and
    P_n^(2r, -1-x-r-n)(-3).  The third, (-1)^n P_n^(2r, x-r-n)(-3), follows
    from the first by Jacobi's symmetry P_n^(a,b)(-t) = (-1)^n P_n^(b,a)(t):
    its sum is the first one's with k -> n-k, term for term."""
    return _run_identity(
        "jacobi",
        Mode.SYMBOLIC_POLY,
        n_max,
        lambda alg: _jacobi_instances(alg, n_max),
        fault_index=fault_index,
    )


def verify_recurrences(
    n_max: int,
    *,
    fault_index: int | None = None,
) -> VerifyReport:
    """Three-term and two-term recurrences.

    Both take d_n from the defining sum, so the recurrences are genuinely
    being proven about independently constructed objects.  Their combination
    (n+2r) d_{n-1} = (n+r-x) d_n + (-1)^n (x-r) d_n(-x) is not checked
    apart: its rhs - lhs is the two-term rhs minus the three-term rhs.
    """
    return _run_identity(
        "recurrences",
        Mode.SYMBOLIC_POLY,
        n_max,
        lambda alg: _recurrence_instances(alg, n_max),
        n_high=n_max + 1,
        route=Route.DIRECT,
        fault_index=fault_index,
    )


def verify_special_values(
    n_max: int,
    *,
    fault_index: int | None = None,
) -> VerifyReport:
    """Closed forms of d_n at x in {-1/2, 0, -1, 1/2, 1, 3/2, 2}."""
    return _run_identity(
        "special-values",
        Mode.CLEARED_DENOMINATOR,
        n_max,
        lambda alg: _special_value_instances(alg, n_max),
        fault_index=fault_index,
        skipped=(
            {"r": "-1", "reason": "excluded for x=1 and x=3/2 closed forms"},
            {"r": "-3/2", "reason": "factor 2r+3 in the x=3/2 form; skipped rather than resolved"},
            {"r": "{-1, -2}", "reason": "excluded for the x=2 closed form"},
        ),
    )


def verify_shift_identities(
    n_max: int,
    *,
    fault_index: int | None = None,
) -> VerifyReport:
    """Half-step parameter/argument shift identities and the x -> 1-x swap.
    The combined shift, (x-r) times the difference shift plus the sum
    shift, is not checked apart."""
    return _run_identity(
        "shift-identities",
        Mode.SYMBOLIC_POLY,
        n_max,
        lambda alg: _shift_instances(alg, n_max),
        n_high=n_max + 1,
        fault_index=fault_index,
    )


def verify_weighted_square_sum(
    n_max: int,
    *,
    fault_index: int | None = None,
) -> VerifyReport:
    """(1+2x) * sum of weighted d_k^2 equals (n+2r) d_n d_{n-1}."""
    return _run_identity(
        "weighted-square-sum",
        Mode.SYMBOLIC_POLY,
        n_max,
        lambda alg: _weighted_square_sum_instances(alg, n_max),
        fault_index=fault_index,
    )


def verify_meixner(n_max: int, *, fault_index: int | None = None) -> VerifyReport:
    """Meixner connection d_n = (2r+1)_n / n! * M_n(x-r; 2r+1, -1).

    Both sides have degree <= n in x and in r, so exact agreement on an
    (n+1) x (n+1) product grid proves the identity for each n.  The
    re-parameterized form d_n(x+r) = (b)_n / n! * M_n(x; b, -1) with
    b = 2r+1 is this identity at x+r, so it is not checked apart.
    """
    return _run_identity(
        "meixner",
        Mode.INTERPOLATION_GRID,
        n_max,
        lambda _: _meixner_instances(n_max),
        route=None,
        range_desc=f"n<={n_max}, per-n grid (n+1)^2 points in (r, x)",
        fault_index=fault_index,
        skipped=(_EXCLUDED_HALF_INT,),
        degree_bound=n_max,
        sample_count=(n_max + 1) ** 2,
    )


def verify_parametric_square(n_max: int, *, fault_index: int | None = None) -> VerifyReport:
    """Clausen's product at z = 2, 2F1(-n, -x; -a; 2)^2 = 4F3(-n, n-a, -x, x-a;
    -a, -a/2, (1-a)/2; 1), symbolic in x for the 2n+2 values
    a = -1..-(n+1), -1/2..-(2n+1)/2.  Cleared termwise by (-a)_n^2, the 4F3's
    term k is (-n)_k (-x)_k (x-a)_k 4^k / k! * (k-a)_{n-k} (2k-a)_{n-k}, of
    degree 2n-k in a, and the squared 2F1 side has degree <= 2n, so 2n+1
    values of a are a proof.  The tests check what these cases decide: the
    values at x = -1, the squared-sum form (a = -b, b = n+2..2n+2), the
    Meixner tie (2F1(-n, -x; b; 2) is M_n(x; b, -1)) and the central-binomial
    form (x = -1 at a = -1/2).  A symbolic counterexample is reported at a
    negative integer x.
    """
    return _run_identity(
        "parametric-square",
        Mode.INTERPOLATION_GRID,
        n_max,
        lambda _: _parametric_square_instances(n_max),
        route=None,
        range_desc=f"n<={n_max}, 2n+2 parameter values per n, symbolic in x",
        fault_index=fault_index,
        skipped=({"a": "{0, 1, 2, ...}", "reason": "excluded by the statement"},),
        witness_axes=("x",),
        degree_bound=2 * n_max,
        sample_count=2 * n_max + 2,
    )


def verify_hyper_bridge(
    n_max: int,
    *,
    fault_index: int | None = None,
) -> VerifyReport:
    """Terminating-2F1 bridge and its mirror match the scalar evaluator at
    the 50 ``deterministic_points``; the range counts the points reached."""
    reached: list[EvalPoint] = []
    report = _run_identity(
        "hyper-bridge",
        Mode.POINT_GRID,
        n_max,
        lambda _: _hyper_bridge_instances(n_max, reached),
        route=None,
        fault_index=fault_index,
    )
    return replace(report, range=f"{report.range} at {len(reached)} points")


def verify_clausen_product(n_max: int, *, fault_index: int | None = None) -> VerifyReport:
    """Terminating 2F1-product identity over a deterministic grid.

    The grid keeps c positive so no denominator parameter of the 4F3 hits a
    pole before termination; the parameterization (b, c) = (r+1+x, 2r+1)
    used by the square-formula derivation is also sampled.
    """
    return _run_identity(
        "clausen-product",
        Mode.POINT_GRID,
        n_max,
        lambda _: _clausen_instances(n_max),
        route=None,
        range_desc=f"n<={n_max}, {len(_CLAUSEN_B) * len(_CLAUSEN_C) * len(_CLAUSEN_Z) + len(_CLAUSEN_RX)} parameter triples per n",
        fault_index=fault_index,
    )


# ---------------------------------------------------------------------------
# Suite runner.
# ---------------------------------------------------------------------------


def _suite() -> dict[str, tuple[int, Callable[..., VerifyReport]]]:
    """id -> (default depth, verifier), in suite order.  Built per call so
    each verifier is looked up by its module-global name when the suite runs."""
    return {
        "square": (12, verify_square),
        "linearization": (8, verify_linearization),
        "inversion": (15, verify_newform_consequences),
        "jacobi": (12, verify_jacobi),
        "meixner": (12, verify_meixner),
        "recurrences": (25, verify_recurrences),
        "special-values": (25, verify_special_values),
        "shift-identities": (20, verify_shift_identities),
        "parametric-square": (10, verify_parametric_square),
        "weighted-square-sum": (15, verify_weighted_square_sum),
        "hyper-bridge": (15, verify_hyper_bridge),
        "clausen-product": (15, verify_clausen_product),
    }


DEFAULT_DEPTHS: dict[str, int] = {identity_id: depth for identity_id, (depth, _) in _suite().items()}

SUITE_IDS: tuple[str, ...] = tuple(DEFAULT_DEPTHS)


@dataclass(frozen=True)
class SuiteConfig:
    """Which verifiers to run, how deep, and optional fault injection."""

    depths: dict = field(default_factory=dict)
    selection: tuple[str, ...] | None = None
    fault: tuple[str, int] | None = None


def run_suite(config: SuiteConfig | None = None) -> list[VerifyReport]:
    """Run the configured verifiers and return their reports in suite order;
    a bad config raises ValueError before any verifier runs."""
    config = config or SuiteConfig()
    suite = _suite()
    if isinstance(config.selection, str):
        raise ValueError(f"selection must be a sequence of identity ids, not the string {config.selection!r}")
    ids = config.selection if config.selection is not None else tuple(suite)
    if not ids:
        raise ValueError("no identity ids selected")
    repeated = sorted({i for i in ids if ids.count(i) > 1})
    if repeated:
        raise ValueError(f"repeated identity ids: {', '.join(repeated)}")
    unknown = sorted({*ids, *config.depths} - suite.keys())
    if unknown:
        raise ValueError(f"unknown identity ids: {', '.join(unknown)}")
    for identity_id, depth in config.depths.items():
        check_natural(depth, f"{identity_id} depth")
    fault_id, fault_index = config.fault or (None, None)
    if config.fault is not None:
        if fault_id not in ids:
            raise ValueError(f"fault targets {fault_id!r}, which is not selected")
        check_natural(fault_index, "fault index")
    reports = []
    for identity_id in ids:
        default_depth, verifier = suite[identity_id]
        fault = fault_index if identity_id == fault_id else None
        reports.append(verifier(config.depths.get(identity_id, default_depth), fault_index=fault))
    return reports


def suite_passed(reports: Iterable[VerifyReport]) -> bool:
    return all(r.passed for r in reports)
