"""Tests for the identity verifiers: hand-checked small cases, mode
agreement, fault sensitivity, and report plumbing."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from delpoly import verify
from delpoly.bipoly import BiPoly, binom_poly, binom_row, sum_products
from delpoly.dcore import EvalPoint, Route, _jacobi_sum, clear_caches, d_direct, d_sequence, jacobi_eval, meixner_eval
from delpoly.exactnum import binom_gen
from delpoly.hyper import clausen_product_sides, hyper_eval
from delpoly.reports import Mode, VerifyReport
from delpoly.verify import (
    _cofactor_row,
    _inversion_instances,
    _jacobi_instances,
    _linearization_instances,
    _meixner_instances,
    _parametric_square_instances,
    _recurrence_instances,
    _shift_instances,
    _special_value_instances,
    _square_instances,
    _weighted_square_sum_instances,
    _SymbolicAlg,
    _square_sides,
    _x_poly,
    DEFAULT_DEPTHS,
    SUITE_IDS,
    SuiteConfig,
    deterministic_points,
    run_suite,
    verify_clausen_product,
    verify_hyper_bridge,
    verify_jacobi,
    verify_linearization,
    verify_meixner,
    verify_newform_consequences,
    verify_parametric_square,
    verify_recurrences,
    verify_shift_identities,
    verify_special_values,
    verify_square,
    verify_weighted_square_sum,
)

import oracles
from oracles import FractionAlg, rising

X = BiPoly.x()
R = BiPoly.r()

# Small depths keep this module quick; the stated acceptance depths run in
# tests/test_acceptance.py.
SMALL_DEPTH = {
    "square": 6,
    "linearization": 4,
    "inversion": 6,
    "jacobi": 6,
    "meixner": 6,
    "recurrences": 8,
    "special-values": 8,
    "shift-identities": 8,
    "parametric-square": 4,
    "weighted-square-sum": 6,
    "hyper-bridge": 5,
    "clausen-product": 4,
}


def random_points(count: int, seed: int) -> tuple[EvalPoint, ...]:
    """Random non-excluded rational points (odd numerator over 8 keeps 2r
    away from the integers)."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        r = Fraction(2 * rng.randint(-10, 30) + 1, 8)
        x = Fraction(rng.randint(-40, 40), rng.choice([3, 5, 7, 8]))
        points.append(EvalPoint(r, x))
    return tuple(points)


def test_square_hand_case():
    # n = 1: (1+2x)^2 = (1+2r)^2 + 4(x-r)(x+r+1) after clearing
    lhs = (1 + 2 * X) ** 2
    rhs = (1 + 2 * R) ** 2 + 4 * (X - R) * (X + R + 1)
    assert lhs == rhs
    assert verify_square(6).passed


def test_square_cross_checked_pointwise():
    # square at its suite depth, over the plain-Fraction oracle
    depth = DEFAULT_DEPTHS["square"]
    for point in random_points(5, seed=1):
        cases = list(_square_instances(FractionAlg(point.r, point.x), depth))
        assert len(cases) == depth + 1
        assert all(lhs == rhs for _, _, lhs, rhs in cases), point


def test_linearization_hand_case():
    # m = n = 1: d_1^2 = 2 d_2 - (2r+1) d_0
    d2 = d_direct(2)
    assert (1 + 2 * X) ** 2 == 2 * d2 - (2 * R + 1)
    assert verify_linearization(4).passed


def test_linearization_m_zero_reduces_to_identity():
    # The m = 0 row is d_0 * d_n = d_n: both sides are d_n itself.
    d = d_sequence(Route.THREE_TERM, 12).polys
    cases = list(_linearization_instances(_SymbolicAlg(d), 6))[:7]
    assert [params for _, params, _, _ in cases] == [{"m": 0, "n": n} for n in range(7)]
    assert all(lhs == rhs == d[n] for n, (_, _, lhs, rhs) in enumerate(cases))


def test_inversion_hand_case():
    # n = 1 after clearing: (-2r-1) + (1+2x) = 2(x-r)
    assert (-2 * R - 1) + (1 + 2 * X) == 2 * (X - R)
    report = verify_newform_consequences(6)
    assert report.passed
    assert report.mode is Mode.CLEARED_DENOMINATOR
    assert report.skipped  # the excluded half-integer set is recorded


def test_jacobi_verifier():
    assert verify_jacobi(6).passed


def test_recurrences_hand_cases():
    # two-term at n = 0: d_1 = (x+r+1) + (x-r)
    assert (X + R + 1) + (X - R) == 1 + 2 * X
    # combined at n = 1 (the (-1)^n factor is -1 here):
    # (1+2r) = (1+r-x)(1+2x) - (x-r)(1-2x)
    assert (1 + R - X) * (1 + 2 * X) - (X - R) * (1 - 2 * X) == 1 + 2 * R
    assert verify_recurrences(8).passed


def test_special_values_hand_cases():
    # d_2 at x = 1 is 5 + r; the closed form times (r+1) matches
    d2_at_1 = d_direct(2).subst_x_value(1)
    assert d2_at_1 == 5 + R
    assert (R + 1) * d2_at_1 == (5 + R) * binom_poly(R + 1, 1)
    assert verify_special_values(8).passed


def test_shift_identities_hand_case():
    # n = 1 difference shift: d_1(x) + d_1(-x) = 2 d_0
    assert (1 + 2 * X) + (1 - 2 * X) == BiPoly.const(2)
    assert verify_shift_identities(8).passed


def test_weighted_square_sum_hand_case():
    # n = 1: (1+2x)(2r+1) = (1+2r)(1+2x)
    # n = 2: (1+2x)[(2r+1)(2r+2)/2 + (2r+2)/2 (1+2x)^2] = (2+2r) d_2 d_1
    d2 = d_direct(2)
    lhs = (1 + 2 * X) * ((2 * R + 1) * (2 * R + 2) / 2 + (2 * R + 2) / 2 * (1 + 2 * X) ** 2)
    assert lhs == (2 + 2 * R) * d2 * (1 + 2 * X)
    assert verify_weighted_square_sum(6).passed


def test_meixner_verifier():
    report = verify_meixner(6)
    assert report.passed
    assert report.mode is Mode.INTERPOLATION_GRID
    assert report.degree_bound == 6
    assert report.sample_count == 49


def test_parametric_square_verifier():
    report = verify_parametric_square(4)
    assert report.passed
    assert report.mode is Mode.INTERPOLATION_GRID
    assert report.sample_count > report.degree_bound


def test_scalar_cases_never_evaluate_a_polynomial(monkeypatch):
    # Every scalar side of these two verifiers is int/Fraction arithmetic:
    # any substitution into a BiPoly (eval, subst_*) raises.  A passing run
    # never looks for a witness point, so only a scalar case can reach _subst.
    def refuse(*args):
        raise AssertionError("a scalar case evaluated a polynomial")

    clear_caches()
    monkeypatch.setattr(BiPoly, "_subst", refuse)
    assert verify_meixner(6).passed
    assert verify_parametric_square(4).passed


def a_grid(n: int) -> list[Fraction]:
    """parametric-square's a values at n: -1..-(n+1), then -1/2..-(2n+1)/2."""
    return [Fraction(-j) for j in range(1, n + 2)] + [Fraction(-(2 * j - 1), 2) for j in range(1, n + 2)]


def per_coefficient_sides(n: int, alpha, top, beta) -> tuple[BiPoly, BiPoly]:
    """sum_k alpha(k) binom(x, k) and sum_k beta(k) binom(x, k) binom(top - x, k),
    k = 0..n, each coefficient from its binomials and each side from rows
    built for that n and parameter alone."""
    xs, ys = binom_row(X, n), binom_row(top - X, n)
    return (
        sum_products((xs[k], BiPoly.const(alpha(k))) for k in range(n + 1)),
        sum_products((xs[k], ys[k] * beta(k)) for k in range(n + 1)),
    )


def reference_parametric_square_instances(n_max: int):
    """The parametric-square cases from the per-coefficient formulas."""
    for n in range(n_max + 1):
        for a in a_grid(n):
            scale = (-1) ** n / binom_gen(a, n)
            lhs, rhs = per_coefficient_sides(
                n,
                lambda k: comb(n, k) * Fraction(-2) ** k / binom_gen(a, k),
                a,
                lambda k: binom_gen(n + k - a - 1, n - k) * Fraction(4) ** k / binom_gen(a, k) * scale,
            )
            yield f"free-parameter square n={n}", {"n": n, "a": a}, lhs * lhs, rhs


@pytest.mark.parametrize("n_max", range(9))
def test_parametric_square_cases_match_per_coefficient_formulas(n_max):
    got = list(_parametric_square_instances(n_max))
    want = list(reference_parametric_square_instances(n_max))
    assert [(label, params) for label, params, _, _ in got] == [(label, params) for label, params, _, _ in want]
    for (label, params, lhs, rhs), (_, _, want_lhs, want_rhs) in zip(got, want):
        assert isinstance(lhs, BiPoly) and isinstance(rhs, BiPoly), (label, params)
        assert (lhs, rhs) == (want_lhs, want_rhs), (label, params)
    assert len(got) == (n_max + 1) * (n_max + 2)


def test_parametric_square_checks_each_parameter_once():
    # Per n the cases take every value of the a grid exactly once, all of
    # them symbolic in x.
    cases = list(_parametric_square_instances(10))
    assert len(cases) == 132
    assert {label.split(" n=")[0] for label, _, _, _ in cases} == {"free-parameter square"}
    for n in range(11):
        symbolic = [params["a"] for _, params, lhs, _ in cases if params["n"] == n and isinstance(lhs, BiPoly)]
        assert sorted(symbolic) == sorted(a_grid(n)), n


def test_parametric_square_clears_termwise_to_degree_2n_minus_k():
    # The bound behind the report's degree_bound 2n and samples 2n+2: times
    # (-a)_n^2, term k of the 4F3 side is a polynomial of degree 2n-k in a,
    # and lhs^2 one of degree <= 2n.  With (-a)_n the terms are not
    # polynomials, so the check below rejects that factor.
    sympy = pytest.importorskip("sympy")
    a, x = sympy.symbols("a x")

    def poly(expr):
        return sympy.Poly(expr, a, x, domain="QQ")

    def rising_poly(z, k: int):
        return poly(sympy.Mul(*(z + i for i in range(k))))

    def quotient(num, den):
        """num / den as a polynomial in a and x, or None if it is not one."""
        q, rem = num.div(den)
        return q if rem.is_zero else None

    def rhs_terms(n: int):
        """Term k of the 4F3 side as (numerator, denominator) polynomials."""
        return [
            (
                rising_poly(-n, k) * rising_poly(n - a, k) * rising_poly(-x, k) * rising_poly(x - a, k),
                rising_poly(-a, k) * rising_poly(-a / 2, k) * rising_poly((1 - a) / 2, k) * factorial(k),
            )
            for k in range(n + 1)
        ]

    for n in range(7):
        clear = rising_poly(-a, n)
        cleared = [quotient(num * clear**2, den) for num, den in rhs_terms(n)]
        assert [q.degree(a) for q in cleared] == [2 * n - k for k in range(n + 1)], n
        lhs_terms = [
            (rising_poly(-n, k) * rising_poly(-x, k) * 2**k, rising_poly(-a, k) * factorial(k)) for k in range(n + 1)
        ]
        assert (sum(quotient(num * clear, den) for num, den in lhs_terms) ** 2).degree(a) <= 2 * n, n
        if n:
            assert None in [quotient(num * clear, den) for num, den in rhs_terms(n)], n
        # The sides are the package's: at a grid value, at a few x.
        (lhs_c, d), (rhs_c, e) = _square_sides(n, Fraction(-3, 2))
        for xv in (-2, 1, 5):
            at = {a: sympy.Rational(-3, 2), x: xv}
            values = [sum(num.eval(at) / den.eval(at) for num, den in side) for side in (lhs_terms, rhs_terms(n))]
            assert values == [_x_poly(lhs_c, d).eval(0, xv), _x_poly(rhs_c, e).eval(0, xv)], (n, xv)
    report = verify_parametric_square(6)
    assert (report.degree_bound, report.sample_count) == (12, 14)


def test_x_minus_one_values_are_the_symbolic_cases_at_minus_one():
    # The left-out x = -1 values, from the alternating per-coefficient sums,
    # hold and are each kept case's sides at x = -1, at the default depth.
    for _, params, lhs, rhs in _parametric_square_instances(DEFAULT_DEPTHS["parametric-square"]):
        n, a = params["n"], params["a"]
        lhs_s = sum((comb(n, k) * Fraction(2) ** k / binom_gen(a, k) for k in range(n + 1)), Fraction(0))
        rhs_s = sum(
            (
                Fraction(-1) ** (n - k)
                * binom_gen(a + 1, k)
                / binom_gen(a, k)
                * binom_gen(n + k - a - 1, n - k)
                * Fraction(4) ** k
                for k in range(n + 1)
            ),
            Fraction(0),
        ) / binom_gen(a, n)
        assert lhs_s * lhs_s == rhs_s, params
        assert (lhs.eval(0, -1), rhs.eval(0, -1)) == (lhs_s * lhs_s, rhs_s), params


def test_squared_sum_form_holds_and_is_the_square_at_a_minus_b():
    # The left-out squared-sum form at b = n+2..2n+2 for n <= 10, from its
    # per-coefficient formulas: it holds, and its sides are the square's
    # at a = -b, the grid past the suite's a values.
    for n in range(11):
        for bv in range(n + 2, 2 * n + 3):
            b = Fraction(bv)
            scale = 1 / binom_gen(b + n - 1, n)
            base, rhs = per_coefficient_sides(
                n,
                lambda k: comb(n, k) * Fraction(2) ** k / binom_gen(b - 1 + k, k),
                -b,
                lambda k: Fraction(-4) ** k * binom_gen(n + k + b - 1, n - k) / binom_gen(b - 1 + k, k) * scale,
            )
            assert base * base == rhs, (n, bv)
            (lhs, d), (square_rhs, e) = _square_sides(n, -b)
            assert (base, rhs) == (_x_poly(lhs, d), _x_poly(square_rhs, e)), (n, bv)


def test_square_lhs_at_a_minus_b_is_the_meixner_polynomial():
    # 2F1(-n, -x; b; 2) is M_n(x; b, -1) by definition, and it is the
    # square's lhs at a = -b; the suite checks that lhs against the rhs only.
    for n in range(11):
        for b in range(1, 2 * n + 3):
            (lhs, d), _ = _square_sides(n, Fraction(-b))
            lhs = _x_poly(lhs, d)
            for x in range(n + 1):
                assert lhs.eval(0, x) == meixner_eval(n, x, b, -1), (n, b, x)


def test_central_binomial_form_is_the_x_minus_one_case_at_a_minus_half():
    # 2F1(-n, 1; 1/2; 2)^2 = 4F3(-n, n+1/2, -1/2, 1; 1/2, 1/4, 3/4; 1) is the
    # case at a = -1/2 read at x = -1, written with the parameters substituted.
    half = Fraction(1, 2)
    for n in range(21):
        (lhs, d), (rhs, e) = _square_sides(n, -half)
        lhs_c = hyper_eval([-n, 1], [half], 2)
        rhs_c = hyper_eval([-n, n + half, -half, 1], [half, Fraction(1, 4), Fraction(3, 4)], 1)
        assert (lhs_c, rhs_c) == (_x_poly(lhs, d).eval(0, -1), _x_poly(rhs, e).eval(0, -1)), n
        assert lhs_c * lhs_c == rhs_c, n


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("a", [Fraction(-1), Fraction(-2), Fraction(-1, 2), Fraction(-9), Fraction(-17, 2)])
def test_square_rows_match_per_coefficient_formulas(n, a):
    # Both series in x against their terms written as binomials,
    #   lhs = sum_k C(n,k) (-2)^k / binom(a,k) * binom(x,k),
    #   rhs = sum_k (-1)^n binom(n+k-a-1, n-k) 4^k / (binom(a,k) binom(a,n)) * binom(x,k) binom(a-x,k),
    # k = n included; a = -1 is where binom(a + 1, k) vanishes past k = 0,
    # so the rhs at x = -1 is a single term there.
    (lhs, lhs_den), (rhs, rhs_den) = _square_sides(n, a)
    assert lhs_den > 0 and rhs_den > 0
    assert len(lhs) == n + 1 and len(rhs) == 2 * n + 1
    alpha = [comb(n, k) * Fraction(-2) ** k / binom_gen(a, k) for k in range(n + 1)]
    beta = [
        (-1) ** n * binom_gen(n + k - a - 1, n - k) * Fraction(4) ** k / (binom_gen(a, k) * binom_gen(a, n))
        for k in range(n + 1)
    ]
    xs, ys = binom_row(X, n), binom_row(a - X, n)
    assert _x_poly(lhs, lhs_den) == sum((xs[k] * c for k, c in enumerate(alpha)), BiPoly.zero())
    assert _x_poly(rhs, rhs_den) == sum((xs[k] * ys[k] * c for k, c in enumerate(beta)), BiPoly.zero())
    # At x = -1 the sides are alternating sums.
    assert _x_poly(lhs, lhs_den).eval(0, -1) == sum((-1) ** k * c for k, c in enumerate(alpha))
    assert _x_poly(rhs, rhs_den).eval(0, -1) == sum((-1) ** k * c * binom_gen(a + 1, k) for k, c in enumerate(beta))


@pytest.mark.parametrize("n", range(7))
def test_square_sides_are_the_clausen_product_at_z_two(n):
    # lhs^2 = rhs is the Clausen product at b = -x, c = -a, z = 2: its left
    # side is (-1)^n lhs^2 (Pfaff's transformation at z = 2 turns the second
    # 2F1 into (-1)^n times the first) and its right side (-1)^n rhs.
    def at(side, x):
        coeffs, den = side
        return sum((c * x**e for e, c in enumerate(coeffs)), Fraction(0)) / den

    for a in (Fraction(-1), Fraction(-3, 2), Fraction(-7, 3)):
        lhs, rhs = _square_sides(n, a)
        for x in (Fraction(-5, 2), Fraction(1, 3), Fraction(9, 4)):
            left, right = clausen_product_sides(n, -x, -a, 2)
            assert (left, right) == ((-1) ** n * at(lhs, x) ** 2, (-1) ** n * at(rhs, x)), (a, x)


def test_hyper_bridge_verifier():
    report = verify_hyper_bridge(6)
    assert report.passed
    assert report.mode is Mode.POINT_GRID
    assert report.range == "n<=6 at 50 points"
    assert verify_hyper_bridge(0).range == "n<=0 at 50 points"


def test_clausen_verifier():
    assert verify_clausen_product(4).passed


def test_deterministic_points_avoid_exclusions():
    points = deterministic_points(50)
    assert len(points) == 50
    assert len(set(points)) == 50
    # 2r is never an integer, so no r is in {-1/2, -1, -3/2, ...}
    assert all((2 * p.r).denominator != 1 for p in points)
    # The first 45 are the lattice i + j <= 8 with 9 distinct r and 9
    # distinct x values, and the r^a x^b (a + b <= 8) columns at them are
    # independent (full rank mod a prime implies full rank over Q), so only
    # the zero polynomial of total degree <= 8 vanishes there.
    lattice = {EvalPoint(Fraction(2 * i - 7, 8), Fraction(15 * j - 50, 7)) for i in range(9) for j in range(9 - i)}
    assert set(points[:45]) == lattice
    assert _rank_mod_prime([[p.r**a * p.x**b for a in range(9) for b in range(9 - a)] for p in points[:45]]) == 45


def _rank_mod_prime(rows: list[list[Fraction]], prime: int = 2**31 - 1) -> int:
    rows = [[v.numerator * pow(v.denominator, -1, prime) % prime for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][col], -1, prime)
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inverse
            rows[i] = [(a - f * b) % prime for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_hyper_bridge_catches_a_perturbation_that_vanishes_on_a_line(monkeypatch):
    # 14x - 24r + 79 vanishes on the line the points once all lay on, which
    # holds point 0; point 1 is off it, so the bridge at n = 3 fails there.
    bridge = verify.d_via_hyper
    monkeypatch.setattr(
        verify, "d_via_hyper", lambda n, r, x: bridge(n, r, x) + (14 * x - 24 * r + 79 if n == 3 else 0)
    )
    report = verify_hyper_bridge(5)
    second = deterministic_points(2)[1]
    assert not report.passed
    assert report.counterexample["instance"] == "bridge n=3"
    assert report.counterexample["params"] == {"n": 3, "r": second.r, "x": second.x}


@pytest.mark.parametrize("count", [-3, True, 2.0])
def test_deterministic_points_rejects_a_bad_count(count):
    with pytest.raises(ValueError, match="count must be a natural number"):
        deterministic_points(count)


# Each symbolic family's instance generator, as (algebra, depth) -> cases.
SYMBOLIC_GENERATORS = {
    "square": _square_instances,
    "linearization": _linearization_instances,
    "inversion": _inversion_instances,
    "jacobi": _jacobi_instances,
    "recurrences": _recurrence_instances,
    "special-values": _special_value_instances,
    "shift-identities": _shift_instances,
    "weighted-square-sum": _weighted_square_sum_instances,
}
SYMBOLIC_IDS = tuple(SYMBOLIC_GENERATORS)


def oracle_failures(generate, depth: int, points) -> list:
    """(label, params, point) of every case whose sides differ when the
    generator runs over the plain-Fraction oracle at each point."""
    return [
        (label, params, point)
        for point in points
        for label, params, lhs, rhs in generate(FractionAlg(point.r, point.x), depth)
        if lhs != rhs
    ]


@pytest.mark.parametrize("identity_id", SYMBOLIC_IDS)
def test_point_grid_agrees_with_symbolic(identity_id):
    """Every case of a symbolic family holds at 20 random points over the
    plain-Fraction oracle, and its BiPoly sides evaluated there are the
    oracle's sides."""
    depth = SMALL_DEPTH[identity_id]
    generate = SYMBOLIC_GENERATORS[identity_id]
    # d_0..d_{2 depth + 1} covers every generator's reads
    symbolic = list(generate(_SymbolicAlg(d_sequence(Route.THREE_TERM, 2 * depth + 1).polys), depth))
    assert symbolic and all(lhs == rhs for _, _, lhs, rhs in symbolic)
    for point in random_points(20, seed=sum(map(ord, identity_id))):
        at_point = list(generate(FractionAlg(point.r, point.x), depth))
        assert [case[:2] for case in at_point] == [case[:2] for case in symbolic]
        for (label, _, lhs, rhs), (_, _, *sides) in zip(at_point, symbolic):
            assert lhs == rhs, (label, point)
            assert [side.eval(point.r, point.x) for side in sides] == [lhs, rhs], (label, point)


@pytest.mark.parametrize("identity_id", SYMBOLIC_IDS)
def test_oracle_check_fails_on_a_perturbed_case(identity_id):
    # The cross-check above is not vacuous: rhs + 1 on case 2 fails there
    # at every point and nowhere else.
    generate = SYMBOLIC_GENERATORS[identity_id]

    def perturbed(alg, depth):
        for index, (label, params, lhs, rhs) in enumerate(generate(alg, depth)):
            yield label, params, lhs, rhs + 1 if index == 2 else rhs

    depth, points = SMALL_DEPTH[identity_id], random_points(3, seed=7)
    assert oracle_failures(generate, depth, points) == []
    label, params, _, _ = list(generate(FractionAlg(points[0].r, points[0].x), depth))[2]
    assert oracle_failures(perturbed, depth, points) == [(label, params, point) for point in points]


def test_oracle_uses_no_package_scalar_kernel():
    assert not {"binom_gen", "d_eval", "d_eval_sequence", "_hyper_sum", "_x_series"} & set(vars(oracles))


@pytest.mark.parametrize("identity_id", SUITE_IDS)
def test_fault_injection_flips_each_verifier(identity_id):
    """A +1 perturbation of one instance's reference side must fail with a
    concrete counterexample."""
    config = SuiteConfig(depths=SMALL_DEPTH, selection=(identity_id,), fault=(identity_id, 2))
    (report,) = run_suite(config)
    assert not report.passed
    ce = report.counterexample
    assert ce is not None
    assert ce["lhs"] != ce["rhs"]
    assert "instance" in ce and "params" in ce


def test_fault_injection_in_suite_fails_exactly_one():
    config = SuiteConfig(depths=SMALL_DEPTH, fault=("jacobi", 1))
    reports = run_suite(config)
    failed = [r.identity_id for r in reports if not r.passed]
    assert failed == ["jacobi"]


def test_run_suite_depth_zero_rejects_weighted_square_sum():
    # weighted-square-sum starts at n = 1, so at depth 0 it would check no
    # case; that is an error, not a pass.  The other eleven check n = 0.
    others = tuple(i for i in SUITE_IDS if i != "weighted-square-sum")
    reports = run_suite(SuiteConfig(depths=dict.fromkeys(SUITE_IDS, 0), selection=others))
    assert all(r.passed for r in reports)
    assert [r.identity_id for r in reports] == list(others) and len(others) == 11
    with pytest.raises(ValueError, match="weighted-square-sum: no case checked"):
        run_suite(SuiteConfig(depths=dict.fromkeys(SUITE_IDS, 0)))
    with pytest.raises(ValueError, match="weighted-square-sum: no case checked"):
        verify_weighted_square_sum(0)


def test_run_suite_selection_and_unknown_id():
    reports = run_suite(SuiteConfig(depths=SMALL_DEPTH, selection=("square", "jacobi")))
    assert [r.identity_id for r in reports] == ["square", "jacobi"]
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(selection=("no-such-identity",)))


def test_run_suite_rejects_empty_selection():
    # an empty run would otherwise be a vacuous pass: suite_passed([]) is True
    with pytest.raises(ValueError, match="no identity ids selected"):
        run_suite(SuiteConfig(selection=()))


@pytest.mark.parametrize(
    "selection, named",
    [(("square", "square"), "square"), (("jacobi", "square", "meixner", "jacobi", "square"), "jacobi, square")],
)
def test_run_suite_rejects_repeated_ids(selection, named):
    # a repeated id would run that verifier twice and report it twice
    with pytest.raises(ValueError, match=f"repeated identity ids: {named}$"):
        run_suite(SuiteConfig(selection=selection))


def test_fault_index_counts_cases_across_points():
    # hyper-bridge checks 2(depth+1) cases per point, so index 2(depth+1)
    # is the first case at the second point, and the run stops there
    second = deterministic_points(2)[1]
    for depth in (0, 3):
        report = verify_hyper_bridge(depth, fault_index=2 * (depth + 1))
        assert not report.passed
        assert report.range == f"n<={depth} at 2 points"
        assert report.counterexample["instance"] == "bridge n=0"
        assert report.counterexample["params"] == {"n": 0, "r": second.r, "x": second.x}


def test_fault_index_past_the_last_case_is_an_error():
    with pytest.raises(ValueError, match="fault index"):
        verify_meixner(2, fault_index=10**6)
    # the last in-range index still fails: 2(depth+1) cases at each of 50 points
    for depth in (0, 2):
        last = verify_hyper_bridge(depth, fault_index=100 * (depth + 1) - 1)
        assert not last.passed
        assert last.range == f"n<={depth} at 50 points"
        assert last.counterexample["instance"] == f"mirror-bridge n={depth}"
        with pytest.raises(ValueError, match="fault index"):
            verify_hyper_bridge(depth, fault_index=100 * (depth + 1))


@pytest.mark.parametrize("fault_index", [True, 1.0, -1, "0"], ids=repr)
def test_verifier_rejects_a_fault_index_that_is_not_natural(fault_index):
    # True and 1.0 would otherwise fault case 1; -1 and "0" would run every
    # case before the index was found missing.
    with pytest.raises(ValueError, match="fault index must be a natural number"):
        verify_square(2, fault_index=fault_index)


@pytest.mark.parametrize("identity_id", SUITE_IDS)
def test_suite_rejects_bad_config_for_each_id(identity_id):
    one = (identity_id,)
    with pytest.raises(ValueError, match="natural number"):
        run_suite(SuiteConfig(depths={identity_id: -1}, selection=one))
    with pytest.raises(ValueError, match="natural number"):
        run_suite(SuiteConfig(depths=SMALL_DEPTH, selection=one, fault=(identity_id, -1)))
    with pytest.raises(ValueError, match="fault index"):
        run_suite(SuiteConfig(depths={identity_id: 1}, selection=one, fault=(identity_id, 10**6)))
    other = "square" if identity_id != "square" else "jacobi"
    with pytest.raises(ValueError, match="not selected"):
        run_suite(SuiteConfig(depths=SMALL_DEPTH, selection=one, fault=(other, 0)))


@pytest.fixture
def verifier_calls(monkeypatch):
    """Every suite verifier replaced by a spy; the list records the ids run."""
    calls = []
    for identity_id, (_, verifier) in verify._suite().items():

        def spy(depth, *, fault_index=None, identity_id=identity_id):
            calls.append(identity_id)

        monkeypatch.setattr(verify, verifier.__name__, spy)
    return calls


@pytest.mark.parametrize("bad", [-1, True, 2.0, "3"], ids=repr)
def test_run_suite_checks_every_depth_before_any_verifier_runs(verifier_calls, bad):
    # The bad depth is the last verifier's, so a check made only when that
    # verifier runs would first run the other eleven.
    with pytest.raises(ValueError, match=f"^clausen-product depth must be a natural number, got {bad!r}$"):
        run_suite(SuiteConfig(depths={"clausen-product": bad}))
    # a depth for an id that is not selected is checked too
    with pytest.raises(ValueError, match="^jacobi depth must be a natural number"):
        run_suite(SuiteConfig(depths={"jacobi": bad}, selection=("square",)))
    assert verifier_calls == []
    run_suite(SuiteConfig(depths={"clausen-product": 0}, selection=("square", "clausen-product")))
    assert verifier_calls == ["square", "clausen-product"]


def test_run_suite_rejects_a_string_selection(verifier_calls):
    # read as a sequence, "square" would be the unknown ids a, e, q, r, s, u
    with pytest.raises(ValueError, match="^selection must be a sequence of identity ids, not the string 'square'$"):
        run_suite(SuiteConfig(selection="square"))
    assert verifier_calls == []


def test_suite_rejects_depth_for_unknown_id():
    with pytest.raises(ValueError, match="unknown identity ids: no-such-identity"):
        run_suite(SuiteConfig(depths={"no-such-identity": 3}, selection=("square",)))


def test_default_depths_cover_all_ids():
    assert set(DEFAULT_DEPTHS) == set(SUITE_IDS)


def test_report_invariants():
    with pytest.raises(ValueError):
        VerifyReport("x", Mode.SYMBOLIC_POLY, "n<=1", True, counterexample={"lhs": 1})
    with pytest.raises(ValueError):
        VerifyReport("x", Mode.SYMBOLIC_POLY, "n<=1", False)
    with pytest.raises(ValueError):
        VerifyReport("x", Mode.INTERPOLATION_GRID, "n<=1", True)
    with pytest.raises(ValueError):
        VerifyReport(
            "x", Mode.INTERPOLATION_GRID, "n<=1", True, degree_bound=3, sample_count=3
        )


def test_report_json_lines_are_stable():
    report = verify_square(2)
    line1 = report.to_json_line()
    line2 = verify_square(2).to_json_line()
    assert line1 == line2
    assert '"id": "square"' in line1
    assert '"passed": true' in line1


def test_counterexample_values_are_concrete():
    report = verify_square(4, fault_index=3)
    ce = report.counterexample
    assert ce is not None
    # the recorded values differ at the recorded witness point
    assert ce["lhs"] != ce["rhs"]
    assert set(ce["params"]) >= {"n", "r", "x"}


# The three Jacobi forms of d_n, as (alpha, beta, t, sign) from (x, r, n):
# P_n^(x-r-n, 2r)(3), (-1)^n P_n^(2r, x-r-n)(-3) and P_n^(2r, -1-x-r-n)(-3).
# verify_jacobi checks the first and the third; the swapped second is the
# first's sum with k -> n-k.
JACOBI_FORMS = {
    "alpha=x-r-n at 3": lambda x, r, n: (x - r - n, 2 * r, 3, 1),
    "swapped at -3": lambda x, r, n: (2 * r, x - r - n, -3, (-1) ** n),
    "reflected at -3": lambda x, r, n: (2 * r, -1 - x - r - n, -3, 1),
}


@pytest.mark.parametrize("name, form", JACOBI_FORMS.items(), ids=JACOBI_FORMS.keys())
def test_jacobi_forms_match_sympy(name, form):
    # Each right side verify_jacobi compares with d_n, and the swapped form's
    # sum on the same rows, symbolic and over the plain-Fraction oracle at
    # points, and jacobi_eval, against sympy's own Jacobi polynomials.
    sympy = pytest.importorskip("sympy")
    x, r = sympy.symbols("x r")

    def to_sympy(q: Fraction):
        return sympy.Rational(q.numerator, q.denominator)

    def poly_to_sympy(p: BiPoly):
        return sum((to_sympy(c) * x**dx * r**dr for (dx, dr), c in p.terms()), sympy.Integer(0))

    def rhs_of(alg, n_max):
        if name == "swapped at -3":
            lower = alg.binom_row(alg.x - alg.r, n_max)
            return {
                f"{name}, n={n}": (-1) ** n
                * _jacobi_sum(alg.sum, n, alg.binom_row(2 * alg.r + n, n), lower, Fraction(-3))
                for n in range(n_max + 1)
            }
        return {label: rhs for label, _, _, rhs in _jacobi_instances(alg, n_max) if label.startswith(name + ",")}

    n_max = 6
    symbolic = rhs_of(_SymbolicAlg(d_sequence(Route.THREE_TERM, n_max).polys), n_max)
    for n in range(n_max + 1):
        alpha, beta, t, sign = form(x, r, n)
        want = sign * sympy.jacobi(n, alpha, beta, sympy.Integer(t))
        alpha_p, beta_p, _, _ = form(X, R, n)
        for got in (symbolic[f"{name}, n={n}"], sign * jacobi_eval(n, alpha_p, beta_p, t)):
            assert sympy.expand(poly_to_sympy(got) - want) == 0, n
        for point in random_points(3, seed=n):
            alpha, beta, t, sign = form(point.x, point.r, n)
            want = sign * sympy.jacobi(n, to_sympy(alpha), to_sympy(beta), sympy.Integer(t))
            got = rhs_of(FractionAlg(point.r, point.x), n)[f"{name}, n={n}"]
            assert to_sympy(got) == want, (n, point)


def test_jacobi_builds_each_binomial_row_once(monkeypatch):
    # binom(x-r, .) and binom(-1-x-r, .) once per run, binom(2r+n, .) once
    # per n: n_max + 3 rows in all.
    tops = []
    build = _SymbolicAlg.binom_row

    def counted(self, top, k):
        tops.append(top)
        return build(self, top, k)

    monkeypatch.setattr(_SymbolicAlg, "binom_row", counted)
    clear_caches()
    assert verify_jacobi(6).passed
    assert len(tops) == 9


# ---------------------------------------------------------------------------
# Statements the verifiers leave out because checked cases decide them.  Each
# generator below yields (label, lhs, rhs, combination): the left-out
# statement's sides, and the combination of kept cases' lhs - rhs that its
# verifier's docstring names, read from the verifier's own generator.
# ---------------------------------------------------------------------------


def _kept_differences(cases) -> dict:
    return {label: lhs - rhs for label, _, lhs, rhs in cases}


def swapped_linearization_cases(alg, depth: int):
    # (m, n) for m > n: the same identity as the kept (n, m), as
    # C(m+n-2k, m-k) = C(m+n-2k, n-k).
    kept = _kept_differences(_linearization_instances(alg, depth))
    for m in range(depth + 1):
        for n in range(m):
            rhs = alg.sum(
                (
                    alg.binom(2 * alg.r + m + n - k, k) * (comb(m + n - 2 * k, m - k) * (-1) ** k),
                    alg.d(m + n - 2 * k),
                )
                for k in range(min(m, n) + 1)
            )
            yield f"m={m},n={n}", alg.d(m) * alg.d(n), rhs, kept[f"m={n},n={m}"]


def inversion_restated_cases(alg, depth: int):
    # The odd part is the inversion minus the even part.  By binomial
    # inversion the scaled form's lhs - rhs is sum_k C(n,k) cof_n[k] times
    # inversion case k's lhs - rhs, as cof_n[k] cof_k[j] = cof_n[j].
    kept = _kept_differences(_inversion_instances(alg, depth))
    lower = alg.binom_row(alg.x - alg.r, depth)
    mirror = alg.binom_row(-1 - alg.x - alg.r, depth)
    for n in range(depth + 1):
        cof = _cofactor_row(alg, n)
        odd = alg.sum((alg.d(k) * (comb(n, k) * (-1) ** (n - k)), cof[k]) for k in range(1, n + 1, 2))
        rhs = (lower[n] - mirror[n]) * Fraction(2) ** (n - 1)
        yield f"odd-part n={n}", odd, rhs, kept[f"inversion n={n}"] - kept[f"even-part n={n}"]
        scaled = alg.sum((lower[k] * (comb(n, k) * 2**k), cof[k]) for k in range(n + 1))
        combination = alg.sum((kept[f"inversion n={k}"] * comb(n, k), cof[k]) for k in range(n + 1))
        yield f"scaled-form n={n}", alg.d(n), scaled, combination


def combined_recurrence_cases(alg, depth: int):
    # The combined rhs - lhs is the two-term rhs minus the three-term rhs.
    kept = _kept_differences(_recurrence_instances(alg, depth))
    for n in range(depth + 1):
        mirror = (-1) ** n * alg.d_subst(n, x_negate=True)
        lhs = (n + 2 * alg.r) * alg.d(n - 1)
        rhs = (n + alg.r - alg.x) * alg.d(n) + (alg.x - alg.r) * mirror
        yield f"combined n={n}", lhs, rhs, kept[f"two-term n={n}"] - kept[f"three-term n={n}"]


def combined_shift_cases(alg, depth: int):
    # The combined shift is (x-r) times the difference shift plus the sum shift.
    kept = _kept_differences(_shift_instances(alg, depth))
    half = Fraction(1, 2)
    for n in range(1, depth + 1):
        up = alg.d_subst(n - 1, r_shift=half, x_shift=-half)
        down = alg.d_subst(n + 1, r_shift=-half, x_shift=-half)
        lhs = 2 * (alg.x - alg.r) * up + (n + 1) * down
        combination = (alg.x - alg.r) * kept[f"difference-shift n={n}"] + kept[f"sum-shift n={n}"]
        yield f"combined-shift n={n}", lhs, 2 * alg.x * alg.d(n), combination


def reparameterized_meixner_case(alg, n: int, b: int):
    """The re-parameterized form d_n(x + r) = (b)_n / n! * M_n(x; b, -1) over
    an algebra at r = (b-1)/2 whose x stands for x + r, so that x - r is the
    form's x; its combination is the connection formula's lhs - rhs there,
    with (2r+1)_n / n! * M_n(x-r; 2r+1, -1) written as
    sum_k C(n,k) 2^k k! (2r+1+k)_{n-k} / n! * binom(x-r, k)."""
    assert alg.r == Fraction(b - 1, 2)
    # M_n(t; b, -1) = sum_k (-n)_k (-t)_k 2^k / ((b)_k k!), (-t)_k = (-1)^k k! binom(t, k)
    meixner = sum(
        (alg.binom(alg.x - alg.r, k) * (comb(n, k) * 2**k * factorial(k) / rising(b, k)) for k in range(n + 1)),
        0 * alg.x,
    )
    connection = sum(
        (
            alg.binom(alg.x - alg.r, k) * (comb(n, k) * 2**k * factorial(k) * rising(2 * alg.r + 1 + k, n - k) / factorial(n))
            for k in range(n + 1)
        ),
        0 * alg.x,
    )
    return f"reparameterized n={n}, b={b}", alg.d(n), comb(b + n - 1, n) * meixner, alg.d(n) - connection


class _PinnedAlg(_SymbolicAlg):
    """The symbolic bundle at r = s, with x standing for x + s: each d_n is
    pinned and shifted once."""

    def __init__(self, polys, s: Fraction):
        super().__init__(tuple(p.subst_r_value(s).subst_affine_x(s) for p in polys))
        self.r, self.x = s, X + s


def reparameterized_meixner_cases(alg_at, depth: int):
    # b = 1..n+1 for every n <= depth; alg_at(s) is an algebra at r = s whose
    # x stands for x + s.
    for b in range(1, depth + 2):
        alg = alg_at(Fraction(b - 1, 2))
        for n in range(b - 1, depth + 1):
            yield reparameterized_meixner_case(alg, n, b)


# id -> (route and top n the verifier reads at a depth, left-out cases)
RESTATED = {
    "linearization": (Route.THREE_TERM, lambda depth: 2 * depth, swapped_linearization_cases),
    "inversion": (Route.THREE_TERM, lambda depth: depth, inversion_restated_cases),
    "recurrences": (Route.DIRECT, lambda depth: depth + 1, combined_recurrence_cases),
    "shift-identities": (Route.THREE_TERM, lambda depth: depth + 1, combined_shift_cases),
}


def _assert_restated_cases_hold(cases) -> int:
    count = 0
    for count, (label, lhs, rhs, combination) in enumerate(cases, 1):
        assert lhs == rhs, label
        assert lhs - rhs == combination, label
    assert count
    return count


@pytest.mark.parametrize("identity_id", RESTATED)
def test_restated_statements_follow_symbolically(identity_id):
    # At the suite's default depth, on the verifier's own route.
    route, n_high, cases = RESTATED[identity_id]
    depth = DEFAULT_DEPTHS[identity_id]
    _assert_restated_cases_hold(cases(_SymbolicAlg(d_sequence(route, n_high(depth)).polys), depth))


def test_scaled_form_has_the_right_side_of_jacobis_form_at_3():
    # The left-out scaled form's rhs is the NEWFORM sum, the same BiPoly as
    # the rhs of Jacobi's form at 3, at the inversion default depth.
    depth = DEFAULT_DEPTHS["inversion"]
    alg = _SymbolicAlg(d_sequence(Route.THREE_TERM, depth).polys)
    scaled = [rhs for label, _, rhs, _ in inversion_restated_cases(alg, depth) if label.startswith("scaled-form")]
    jacobi = [rhs for label, _, _, rhs in _jacobi_instances(alg, depth) if label.startswith("alpha=x-r-n at 3")]
    assert len(scaled) == depth + 1 and scaled == jacobi


def test_reparameterized_meixner_follows_symbolically():
    # Symbolic in x at each b = 1..n+1 for n <= 12, the meixner default depth.
    depth = DEFAULT_DEPTHS["meixner"]
    polys = d_sequence(Route.THREE_TERM, depth).polys
    count = _assert_restated_cases_hold(reparameterized_meixner_cases(lambda s: _PinnedAlg(polys, s), depth))
    assert count == sum(n + 1 for n in range(depth + 1))


@pytest.mark.parametrize("identity_id", [*RESTATED, "meixner"])
def test_restated_statements_follow_over_the_oracle(identity_id):
    # At random points over the plain-Fraction oracle; the meixner points
    # are x + (b-1)/2 at r = (b-1)/2 for a random x.
    depth = DEFAULT_DEPTHS[identity_id]
    for point in random_points(3, seed=sum(map(ord, identity_id)) + 1):
        if identity_id == "meixner":
            cases = reparameterized_meixner_cases(lambda s: FractionAlg(s, point.x + s), depth)
        else:
            cases = RESTATED[identity_id][2](FractionAlg(point.r, point.x), depth)
        _assert_restated_cases_hold(cases)


class _ArbitraryDAlg(FractionAlg):
    """The oracle with every d_n(x) at (r, x) replaced by an arbitrary
    rational fixed by (n, r, x), so no identity of d holds over it."""

    @staticmethod
    def _value(n, r, x) -> Fraction:
        return Fraction(random.Random(hash((n, r, x))).randint(-(10**6), 10**6), 7)

    def d(self, n):
        return self._value(n, self.r, self.x)

    def d_subst(self, n, r_shift=0, x_shift=0, x_negate=False):
        return self._value(n, self.r + r_shift, (-self.x if x_negate else self.x) + x_shift)


@pytest.mark.parametrize("identity_id", [*RESTATED, "meixner"])
def test_restated_statements_are_combinations_of_kept_cases_for_any_d(identity_id):
    # Each left-out lhs - rhs equals its combination of kept cases even when
    # d_n is arbitrary: the relation is formal, so the kept cases decide it.
    depth = 4
    point = random_points(1, seed=3)[0]
    if identity_id == "meixner":
        cases = reparameterized_meixner_cases(lambda s: _ArbitraryDAlg(s, point.x + s), depth)
    else:
        cases = RESTATED[identity_id][2](_ArbitraryDAlg(point.r, point.x), depth)
    differences = [(label, lhs - rhs, combination) for label, lhs, rhs, combination in cases]
    assert all(difference == combination for _, difference, combination in differences)
    assert any(difference != 0 for _, difference, _ in differences)


def test_generators_leave_out_the_restated_kinds():
    # At depth 3 each affected family yields only its kept kinds, and
    # linearization only m <= n.  Left out: linearization's m > n,
    # inversion's scaled-form and odd-part, Jacobi's swapped at -3, the
    # combined recurrence and shift, Meixner's reparameterized form, and
    # parametric-square's x=-1 specialization and squared-sum form.
    alg = _SymbolicAlg(d_sequence(Route.THREE_TERM, 7).polys)
    generators = {
        "inversion": _inversion_instances,
        "jacobi": _jacobi_instances,
        "recurrences": _recurrence_instances,
        "shift-identities": _shift_instances,
    }
    kinds = {
        identity_id: {label.rsplit(" n=", 1)[0].rstrip(",") for label, _, _, _ in generate(alg, 3)}
        for identity_id, generate in generators.items()
    }
    kinds["meixner"] = {label.rsplit(" n=", 1)[0] for label, _, _, _ in _meixner_instances(3)}
    kinds["parametric-square"] = {label.rsplit(" n=", 1)[0] for label, _, _, _ in _parametric_square_instances(3)}
    assert kinds == {
        "inversion": {"inversion", "even-part"},
        "jacobi": {"alpha=x-r-n at 3", "reflected at -3"},
        "recurrences": {"three-term", "two-term"},
        "shift-identities": {"difference-shift", "sum-shift", "reflection-swap"},
        "meixner": {"connection"},
        "parametric-square": {"free-parameter square"},
    }
    pairs = [(params["m"], params["n"]) for _, params, _, _ in _linearization_instances(alg, 3)]
    assert pairs == [(m, n) for m in range(4) for n in range(m, 4)]
