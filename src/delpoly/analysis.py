"""Exact-sign inequality checks and the Turán-type conjecture scanner.

Everything here decides exact signs; no verdict ever passes or fails by
tolerance, and there is no floating point.  Grids are explicit lists of
rationals (never float ranges) and scans are deterministic: identical grids
yield identical reports.

Each scan writes its claim at (n, point) as an integer numerator over a
positive integer, read off the integer kernel of ``dcore``, and a verdict
is the numerator's sign: positivity reads D_n (``_scaled_d``), the Turán and
product-lower-bound claims read the block-divided squared state
(``_squared_d``), and the Turán scan takes its signs from outward-rounded
integer intervals of the ratio D_n / D_{n-1} (``_turan_signs``).  A
violation's value is the claim's exact quantity on the exact values d_m,
built only up to the m that the point's violations read, and it must be
negative too, or the scan raises ArithmeticError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import factorial

from .dcore import EvalPoint, _d_values, _divide_exactly, _scale, _scaled_d, _squared_d, _twice_r, d_eval_sequence
from .exactnum import as_rational, binom_gen, check_natural
from .reports import ScanReport, ZeroHits


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
        """The grid as a report records it: both axes and ``n_max``."""
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


# The bits below the binary point of the Turán scan's ratio intervals
# (``_turan_signs``).  Too few bits send a point to the exact kernel early
# and never change a sign.  Counted with Python 3.11: on the default
# conjecture grid, at the 134 points off x = -1/2 whose T_n are not all 0,
# every k from 0 up decided every n <= 2000, and k = 24, 32 and 64 every
# n <= 200,000.  At 200 random points (r in (-1/2, 5], x in [-3, 2],
# denominators up to 1000) and 396 in steps of 1/8 (r in [-3/8, 1],
# x in [-5/2, 3/2]), k = 0, 4, 8, 16 and 24 fell back before n = 2000 at
# points with no exact zero, and 32, 48, 64 and 128 did not; to n = 20,000
# k = 32 fell back once, at (r, x) = (1105/674, 81/160) near n = 18,400,
# which k = 36 decides to n = 200,000.  k = 64 keeps that margin twice
# over; on the default grid a step took 18% longer at k = 128.
_RATIO_BITS = 64


def _turan_signs(at: EvalPoint, n_max: int):
    """(n, t) for the n = 1..n_max where ``_turan_margin`` is not positive,
    t of its sign; a positive one is omitted, as ``_scan`` allows.

    For A > 0 every D_n is positive (c_n > 0 for r > -1/2), and with
    rho_n = D_n / D_{n-1}, rho_1 = A and rho_{n+1} = A + c_n / rho_n,
    (n+1) D_n^2 - n D_{n+1} D_{n-1} = D_n D_{n-1} ((n+1) rho_n - n rho_{n+1}).
    So rho_n is held as an integer interval [lo, hi] that contains
    2^k rho_n (k = _RATIO_BITS), exact at n = 1; as rho -> A + c_n / rho
    is decreasing, lo' = 2^k A + floor(2^2k c_n / hi) and
    hi' = 2^k A + ceil(2^2k c_n / lo) contain 2^k rho_{n+1}.  t is (-1)^n
    when (n+1) lo > n hi', and -(-1)^n when (n+1) hi < n lo': a sign given
    there is proved.  When neither test decides and lo = hi and lo' = hi',
    both intervals are points, so they are 2^k rho_n and 2^k rho_{n+1}
    themselves; the tests then compared (n+1) rho_n with n rho_{n+1}
    exactly, and as neither is larger they are equal: T_n = 0.  At
    (r, x) = (0, 0) and (0, -1), rho_n = n for every n, so neither point
    leaves the intervals.  At the first n that no test decides, the rest
    comes from ``_turan_terms``, which is also used throughout for
    r <= -1/2, where c_n can be <= 0.

    For A < 0 the ratio runs at the mirror point -1-x, which has -A and
    D_n times (-1)^n, so the same P_n and E_n.  For A = 0 (x = -1/2),
    D_{n+1} = c_n D_{n-1} from D_1 = 0 makes D_n 0 at every odd n and
    positive at every even n; so t = (n+1) P_n > 0 at even n and
    t = n E_n > 0 at odd n, and nothing is yielded.
    """
    n = 1  # where the exact kernel takes over
    if at.r > _MINUS_HALF:
        L, A = _scale(at)
        if not A:
            return
        shift = 2 * _RATIO_BITS
        base = abs(A) << _RATIO_BITS
        L2, K = L * L << shift, _twice_r(at, L) << shift
        lo = hi = base
        parity = 1  # (-1)^n
        for n in range(1, n_max + 1):
            parity = -parity
            c = n * (L2 * n + K)
            lo_next, hi_next = base + c // hi, base - (-c // lo)
            if lo > n * (hi_next - lo):
                t = parity
            elif hi < n * (lo_next - hi):
                t = -parity
            elif lo == hi and lo_next == hi_next:
                t = 0
            else:
                break
            if t <= 0:
                yield n, t
            lo, hi = lo_next, hi_next
        else:
            return
    yield from ((m, t) for m, t in islice(_turan_terms(at, n_max), n - 1, None) if t <= 0)


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


def _scan(claim_id: str, grid: GridSpec, skip_reason, terms, margin, first_n) -> ScanReport:
    """Run ``terms(point, n_max)`` at every grid point that ``skip_reason``
    does not exclude; a negative t is a violation, a zero one a zero hit,
    and a positive one checks out, so a kernel may omit it.  Consecutive
    zero hits at a point are held as one run.  A violation's value is
    ``margin(d, n, point)`` on the values d = d_0 .. d_{n+1}, built only as
    far as the point's violations so far need; it must be negative too, or
    the scan raises ArithmeticError.  The claim covers n = first_n(point)
    .. n_max at a point, and a scan that checks no (n, point) pair is a
    ValueError, not a vacuous pass."""
    if not isinstance(grid, GridSpec):
        raise ValueError(f"{claim_id}: the grid must be a GridSpec, got {type(grid).__name__} {grid!r}")
    violations = []
    runs = []
    skipped = []
    checked = False
    for point in grid.points():
        reason = skip_reason(point)
        if reason is not None:
            skipped.append({"r": point.r, "x": point.x, "reason": reason})
            continue
        checked = checked or first_n(point) <= grid.n_max
        d, values, run = [], _d_values(point), None
        for n, t in terms(point, grid.n_max):
            if t < 0:
                d.extend(islice(values, n + 2 - len(d)))
                value = margin(d, n, point)
                if value >= 0:
                    raise ArithmeticError(
                        f"{claim_id}: the kernel's sign at n={n}, r={point.r}, x={point.x} "
                        f"disagrees with the rational value {value}"
                    )
                violations.append((n, point.r, point.x, value))
            elif t == 0:
                if run and run[1] == n - 1:
                    run[1] = n
                else:
                    run = [n, n, (point.r, point.x)]
                    runs.append(run)
    if not checked:
        raise ValueError(f"{claim_id}: no (n, point) pair checked at n_max={grid.n_max}")
    return ScanReport(
        claim_id=claim_id,
        grid=grid.as_dict(),
        violations=tuple(violations),
        zero_hits=ZeroHits(map(tuple, runs)),
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
    skip = _off_half_skip("requires x != -1/2")
    return _scan("product-lower-bound", grid, skip, _lower_bound_terms, _lower_bound_margin, lambda point: 2)


def check_positivity(grid: GridSpec) -> ScanReport:
    """Sign claims on either side of x = -1/2, for r > -1/2.

    For x < -1/2: (-1)^n d_n > 0 for all n.  For x > -1/2 and n >= 2:
    d_n > (2x+1)^n / n! > 0.  Strict-inequality boundary hits are recorded
    separately from violations.
    """
    skip = _off_half_skip("claims apply only off x = -1/2")
    return _scan(
        "positivity", grid, skip, _positivity_terms, _positivity_margin, lambda point: 0 if point.x < _MINUS_HALF else 2
    )


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
    return _scan("turan-conjecture", grid, _conjecture_skip, _turan_signs, _turan_margin, lambda point: 1)
