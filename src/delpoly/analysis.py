"""Exact-sign inequality checks and the Turán-type conjecture scanner.

Everything here decides exact signs; no verdict ever passes or fails by
tolerance, and there is no floating point.  Grids are explicit lists of
rationals (never float ranges) and scans are deterministic: identical grids
yield identical reports.

The three scans decide each sign on the gcd-free integer kernel of
``dcore`` (D_n = n! L^n d_n(x), with A = L(1+2x) and L the common
denominator of x and r): each scanned quantity is an integer numerator
over a positive integer, and a verdict is the numerator's sign.  The Turán
and product-lower-bound numerators are quadratic in D and are read off the
kernel's block-divided squared state; positivity's is read off D.  A
violation's value is the claim's exact quantity on ``d_eval_sequence``'s
values, and it must be negative too, or the scan raises ArithmeticError.

The Turán scan runs the kernel's linear step on integer intervals over one
common power of two, from n = 1: they are exact until the state is first
shortened, and rounded outward each time it is.  A sign is taken only from
an interval that excludes 0: the interval contains the exact numerator, so
the sign is proved.  At the first interval that holds 0 the point goes back
to the exact kernel, so every zero hit is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import factorial

from .dcore import EvalPoint, _divide_exactly, _scale, _scaled_d, _squared_d, _twice_r, d_eval_sequence
from .exactnum import as_rational, binom_gen, check_natural
from .reports import ScanReport


@dataclass(frozen=True)
class GridSpec:
    """Cartesian grid of rational parameter/argument values, with a depth."""

    r_values: tuple[Fraction, ...]
    x_values: tuple[Fraction, ...]
    n_max: int

    def __post_init__(self):
        object.__setattr__(self, "r_values", tuple(as_rational(v) for v in self.r_values))
        object.__setattr__(self, "x_values", tuple(as_rational(v) for v in self.x_values))
        if not self.r_values or not self.x_values:
            raise ValueError("grid value lists must be non-empty")
        for name in ("r_values", "x_values"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat a value")
        check_natural(self.n_max, "n_max")

    def points(self):
        """Grid points in canonical (r-major, x-minor) order."""
        for r in self.r_values:
            for x in self.x_values:
                yield EvalPoint(r, x)

    def as_dict(self) -> dict:
        return {
            "r_values": list(self.r_values),
            "x_values": list(self.x_values),
            "n_max": self.n_max,
        }


def default_inequality_grid() -> GridSpec:
    """Default grid for the product-lower-bound and positivity checks:
    r on both sides of -1/2's boundary r > -1/2, x spanning both sides of -1/2."""
    return GridSpec(
        r_values=(Fraction(-1, 4), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)),
        x_values=(
            Fraction(-3),
            Fraction(-2),
            Fraction(-1),
            Fraction(-3, 4),
            Fraction(-5, 8),
            Fraction(-3, 8),
            Fraction(-1, 4),
            Fraction(0),
            Fraction(1, 2),
            Fraction(1),
            Fraction(2),
            Fraction(3),
        ),
        n_max=40,
    )


def default_conjecture_grid() -> GridSpec:
    """The conjecture's stated region: r in [0, 4] step 1/4, x in [-1, 0] step 1/8."""
    return GridSpec(
        r_values=tuple(Fraction(i, 4) for i in range(17)),
        x_values=tuple(Fraction(-8 + i, 8) for i in range(9)),
        n_max=40,
    )


_MINUS_HALF = Fraction(-1, 2)


def _turan_terms(at: EvalPoint, n_max: int):
    """(n, t) for n = 1..n_max with t of the sign of ``_turan_margin``.

    t = (-1)^n ((n+1) P_n - n E_n) off the squared state of ``_squared_d``,
    which is (-1)^n ((n+1) D_n^2 - n D_{n+1} D_{n-1}) over a positive integer.
    """
    L, A = _scale(at)
    for n, (_, _, p, e, _, _) in zip(range(1, n_max + 1), _squared_d(at, L, A)):
        t = (n + 1) * p - n * e
        yield n, (-t if n % 2 else t)


# The Turán scan's intervals (``_turan_signs``), timed and measured with
# Python 3.11 on a 2-vCPU VM.  _PREC is the bits each end keeps after a
# shift: the interval of T_n must exclude 0 although T_n is the difference
# of two values of P_n's size.  With shifts from the first step past 224
# bits, every _PREC from 46 up decided every n <= 2000 at every point of
# the default conjecture grid but the two where T_n is 0 for every n, and
# 44 did not; 160 keeps a wide margin for deeper scans.  _SLACK is how far
# the state grows past _PREC before it is shifted back; a step adds about
# 2 log2(n L^2) bits, so with 64 the state is shifted once in two to three
# steps, and it stays within a few machine words.
_PREC = 160
_SLACK = 64


def _round_out(lo: int, hi: int, s: int) -> tuple[int, int]:
    """[lo, hi] / 2^s, rounded outward: floor for lo, ceiling for hi."""
    return lo >> s, -(-hi >> s)


def _flip(n: int, sign: int) -> int:
    """(-1)^n sign."""
    return -sign if n % 2 else sign


def _turan_signs(at: EvalPoint, n_max: int):
    """(n, t) for n = 1..n_max with t of the sign of ``_turan_margin``.

    The step of ``_turan_terms`` runs on integer intervals [lo, hi] that
    contain P_{n-1}, Q_n and P_n over one common power of two, from the
    exact P_0 = 1, Q_1 = |A|, P_1 = A^2 (lo = hi).  Once P_{n-1} or P_n
    passes _PREC + _SLACK bits (|Q_n| is at most the larger of the two),
    every end is shifted right so that they keep _PREC bits, lo rounded
    down and hi up.  The step is linear and homogeneous, so the
    common scale keeps every sign, and t is +1 or -1 while the interval of
    (n+1) P_n - n E_n excludes 0: a sign given there is proved.  At the
    first n whose interval holds 0 (an exact zero gives lo = hi = 0), the
    rest comes from ``_turan_terms``, which is also used throughout for
    r <= -1/2, where c_n can be <= 0.

    Only A and c_n multiply an interval.  For A < 0 the step runs at the
    mirror point -1-x, which has -A, the same P and E, and Q negated, so
    both scalars are >= 0 and each end maps to the same end.
    """
    if at.r <= _MINUS_HALF:
        yield from _turan_terms(at, n_max)
        return
    L, A = _scale(at)
    a, L2, K = abs(A), L * L, _twice_r(at, L)
    round_out, flip, limit = _round_out, _flip, _PREC + _SLACK
    pp_lo = pp_hi = 1
    q_lo = q_hi = a
    p_lo = p_hi = a * a
    for n in range(1, n_max + 1):
        top = max(pp_hi, p_hi).bit_length()
        if top > limit:
            s = top - _PREC
            pp_lo, pp_hi = round_out(pp_lo, pp_hi, s)
            q_lo, q_hi = round_out(q_lo, q_hi, s)
            p_lo, p_hi = round_out(p_lo, p_hi, s)
        c = n * (L2 * n + K)
        e_lo, e_hi = a * q_lo + c * pp_lo, a * q_hi + c * pp_hi
        sign = ((n + 1) * p_lo > n * e_hi) - ((n + 1) * p_hi < n * e_lo)
        if not sign:
            yield from islice(_turan_terms(at, n_max), n - 1, None)
            return
        yield n, flip(n, sign)
        q_lo, q_hi = a * p_lo + c * q_lo, a * p_hi + c * q_hi
        pp_lo, pp_hi, p_lo, p_hi = p_lo, p_hi, a * q_lo + c * e_lo, a * q_hi + c * e_hi


def _turan_margin(d: list[Fraction], n: int, at: EvalPoint) -> Fraction:
    """(-1)^n (d_n^2 - d_{n+1} d_{n-1}) from the values d = d_0, d_1, ..."""
    value = d[n] ** 2 - d[n + 1] * d[n - 1]
    return -value if n % 2 else value


def _positivity_terms(at: EvalPoint, n_max: int):
    """(n, t) with t of the sign of ``_positivity_margin``: (-1)^n D_n for
    x < -1/2, n = 0..n_max, and D_n - A^n for x > -1/2, n = 2..n_max, both
    over n! L^n; the bound (1+2x)^n / n! is itself positive there as A > 0.
    """
    L, A = _scale(at)
    power = A * A  # A^n at n = 2
    for n, D in zip(range(n_max + 1), _scaled_d(at, L, A)):
        if A < 0:
            yield n, (-D if n % 2 else D)
        elif n >= 2:
            yield n, D - power
            power *= A


def _positivity_margin(d: list[Fraction], n: int, at: EvalPoint) -> Fraction:
    """(-1)^n d_n for x < -1/2, and d_n - (1+2x)^n / n! otherwise."""
    if at.x < _MINUS_HALF:
        return -d[n] if n % 2 else d[n]
    return d[n] - (1 + 2 * at.x) ** n / factorial(n)


def _lower_bound_terms(at: EvalPoint, n_max: int):
    """(n, t) for n = 2..n_max with t of the sign of ``_lower_bound_margin``.

    With c_j = j L^2 (j+2r) the kernel's step coefficients,
    binom(2r+n-1, n-1) = T / ((n-1)!^2 L^(2n-2)) for T = c_1 ... c_{n-1}, so
    over n! (n-1)! L^(2n-2) the right side has numerator R = T + D_{n-1}^2,
    and lhs - rhs = (D_n D_{n-1} - A R) / (A n! (n-1)! L^(2n-2)); t carries
    the sign of A.  For r > -1/2 every c_j is positive, so R > 0: the claim
    rhs > 0 holds on the whole domain and only lhs - rhs is in question.

    The numerator is read off the squared state of ``_squared_d``
    (Q_n = D_n D_{n-1}, P_{n-1} = D_{n-1}^2): D_n D_{n-1} - A R =
    Q_n - A (T + P_{n-1}), so no step multiplies two values of D's size.
    T is multiplied by the c_n the kernel yields, and divided by what the
    state was divided by: binom(2r+n-1, n-1) is p-integral for p not
    dividing L, so ((n-1)!')^2 divides T.
    """
    L, A = _scale(at)
    sign = 1 if A > 0 else -1
    squares = _squared_d(at, L, A)
    *_, T, _ = next(squares)  # T = c_1 at n = 2
    for n, (p_prev, q, _, _, c, g) in zip(range(2, n_max + 1), squares):
        if g > 1:
            (T,) = _divide_exactly((T,), g)
        yield n, sign * (q - A * (T + p_prev))
        T *= c


def _lower_bound_margin(d: list[Fraction], n: int, at: EvalPoint) -> Fraction:
    """d_n d_{n-1} / (1+2x) - (binom(2r+n-1, n-1) + d_{n-1}^2) / n."""
    return d[n] * d[n - 1] / (1 + 2 * at.x) - (binom_gen(2 * at.r + n - 1, n - 1) + d[n - 1] ** 2) / n


def _scan(claim_id: str, grid: GridSpec, skip_reason, terms, margin) -> ScanReport:
    """Run ``terms(point, n_max)`` at every grid point that ``skip_reason``
    does not exclude; a negative t is a violation, and a zero one a zero
    hit.  A violation's value is ``margin(d, n, point)`` on the values d of
    ``d_eval_sequence``, which must be negative too, or the scan raises
    ArithmeticError.  A scan that checks no (n, point) pair is a
    ValueError, not a vacuous pass."""
    violations = []
    zero_hits = []
    skipped = []
    checked = 0
    for point in grid.points():
        reason = skip_reason(point)
        if reason is not None:
            skipped.append({"r": point.r, "x": point.x, "reason": reason})
            continue
        d = None
        for checked, (n, t) in enumerate(terms(point, grid.n_max), checked + 1):
            if t < 0:
                if d is None:
                    d = d_eval_sequence(grid.n_max + 1, point)
                value = margin(d, n, point)
                if value >= 0:
                    raise ArithmeticError(
                        f"{claim_id}: the kernel's sign at n={n}, r={point.r}, x={point.x} "
                        f"disagrees with the rational value {value}"
                    )
                violations.append((n, point.r, point.x, value))
            elif t == 0:
                zero_hits.append((n, point.r, point.x))
    if not checked:
        raise ValueError(f"{claim_id}: no (n, point) pair checked at n_max={grid.n_max}")
    return ScanReport(
        claim_id=claim_id,
        grid=grid.as_dict(),
        violations=tuple(violations),
        zero_hits=tuple(zero_hits),
        skipped=tuple(skipped),
    )


def _off_half_skip(x_reason: str):
    def skip(point: EvalPoint) -> str | None:
        if point.r <= _MINUS_HALF:
            return "requires r > -1/2"
        if point.x == _MINUS_HALF:
            return x_reason
        return None

    return skip


def _conjecture_skip(point: EvalPoint) -> str | None:
    if point.r < 0 or not (-1 <= point.x <= 0):
        return "outside the conjectured region"
    return None


def check_product_lower_bound(grid: GridSpec) -> ScanReport:
    """d_n d_{n-1} / (1+2x) >= (binom(2r+n-1, n-1) + d_{n-1}^2) / n > 0.

    Checked for n >= 2 at grid points with r > -1/2 and x != -1/2; other
    points are recorded as skipped.  Points where the first inequality
    degenerates to equality go to zero_hits.  At n = 2 it is an identity
    (both sides are ((1+2x)^2 + 2r + 1) / 2), so every checked point has a
    zero hit at n = 2.
    """
    return _scan(
        "product-lower-bound", grid, _off_half_skip("requires x != -1/2"), _lower_bound_terms, _lower_bound_margin
    )


def check_positivity(grid: GridSpec) -> ScanReport:
    """Sign claims on either side of x = -1/2, for r > -1/2.

    For x < -1/2: (-1)^n d_n > 0 for all n.  For x > -1/2 and n >= 2:
    d_n > (2x+1)^n / n! > 0.  Strict-inequality boundary hits are recorded
    separately from violations.
    """
    return _scan("positivity", grid, _off_half_skip("claims apply only off x = -1/2"), _positivity_terms, _positivity_margin)


def turan_value(n: int, at: EvalPoint) -> Fraction:
    """(-1)^n (d_n^2 - d_{n+1} d_{n-1}) at a point, exactly (n >= 1)."""
    check_natural(n, "n")
    if n < 1:
        raise ValueError("turan_value requires n >= 1")
    return _turan_margin(d_eval_sequence(n + 1, at), n, at)


def scan_conjecture(grid: GridSpec) -> ScanReport:
    """Scan the strict-positivity conjecture for the Turán-type expression.

    The claimed region is r >= 0, -1 <= x <= 0, n >= 1.  Exact zeros are
    reported as zero_hits, not violations: the strict inequality provably
    degenerates to equality at some boundary points, and this scanner
    records rather than resolves that.
    """
    return _scan("turan-conjecture", grid, _conjecture_skip, _turan_signs, _turan_margin)
