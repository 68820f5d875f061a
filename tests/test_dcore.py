"""Tests for the construction routes, scalar evaluation, and the classical
comparison polynomials."""

import random
import sys
import threading
import time
from fractions import Fraction
from math import factorial

import pytest

from delpoly import dcore
from delpoly.bipoly import BiPoly, binom_poly, binom_row
from delpoly.dcore import (
    DSequence,
    EvalPoint,
    Route,
    d_direct,
    d_eval,
    d_eval_sequence,
    d_newform,
    d_sequence,
    d_series,
    d_threeterm,
    d_twoterm,
    clear_caches,
    delannoy_dp,
    jacobi_eval,
    meixner_eval,
)
from delpoly.exactnum import binom_gen, pochhammer
from oracles import is_decoded

X = BiPoly.x()
R = BiPoly.r()
D2 = 2 * X**2 + 2 * X + R + 1


def delannoy_paths_oracle(n: int, m: int) -> int:
    """Independent oracle: recursive path enumeration."""
    if n == 0 or m == 0:
        return 1
    return (
        delannoy_paths_oracle(n - 1, m)
        + delannoy_paths_oracle(n, m - 1)
        + delannoy_paths_oracle(n - 1, m - 1)
    )


def test_base_polynomials():
    assert d_direct(0) == BiPoly.one()
    assert d_direct(1) == 1 + 2 * X
    assert d_newform(0) == BiPoly.one()
    assert d_newform(1) == 1 + 2 * X


def test_d2_closed_form():
    # cross-check through the recurrence: 2 d_2 = (1+2x) d_1 + (1+2r) d_0
    assert d_direct(2) == D2
    assert d_newform(2) == D2
    assert ((1 + 2 * X) * (1 + 2 * X) + 1 + 2 * R) / 2 == D2


def test_sequence_routes_give_d2():
    for builder in (d_threeterm, d_twoterm, d_series):
        seq = builder(2)
        assert seq.polys[2] == D2, builder.__name__


def test_five_route_agreement_small():
    n_max = 12
    seqs = [d_sequence(route, n_max) for route in Route]
    for n in range(n_max + 1):
        ref = seqs[0].polys[n]
        for seq in seqs[1:]:
            assert seq.polys[n] == ref, (seq.route, n)


def test_recurrence_routes_agree_where_the_slot_width_crosses_words():
    # To n = 72 the packed slot width of d_n grows through three 16-byte
    # words, so each route reuses cached rows at one width and repacks at
    # the next.
    clear_caches()
    n_max = 72
    three, two, series = (
        d_sequence(route, n_max).polys for route in (Route.THREE_TERM, Route.TWO_TERM, Route.SERIES)
    )
    # The recurrence routes cache each d_n as the generator built it, and
    # nothing has read three-term's or two-term's d_2 .. d_72 yet (d_0 and
    # d_1 are read by DSequence's checks): they hold packed rows and no
    # coefficient dict, which would otherwise double the memory of the
    # cached prefix.  The series route adds each d_n to E_{n-2}, which reads it.
    cached = {route: polys for route, (_, polys) in dcore._cache.items()}
    assert cached.keys() == {Route.THREE_TERM, Route.TWO_TERM, Route.SERIES}
    unread = cached[Route.THREE_TERM][2:] + cached[Route.TWO_TERM][2:]
    assert unread and not any(map(is_decoded, unread))
    for n in range(n_max + 1):
        assert three[n] == two[n] == series[n], n
    assert all(map(is_decoded, unread))  # the reads above decoded them
    clear_caches()


def test_two_term_slot_width_stays_within_the_mirror_steps():
    # The parity step n d_n = n d_{n-1} + 2x S + 2r O carries the bound
    # (n+4) b_inf, as the mirror step did, so d_n's slots are no wider than
    # the mirror step's 48 bytes at n = 72 and 88 at n = 120.  Each width is
    # read before the next step re-slots d_n's rows.
    clear_caches()
    for n, width in ((72, 48), (120, 88)):
        assert d_sequence(Route.TWO_TERM, n).polys[n]._packed[0] <= width, n
    clear_caches()


def test_series_route_is_the_truncated_product():
    """Every route's d_n is the t^n coefficient of (1+t)^(x-r) (1-t)^(-(x+r+1)),
    expanded by sympy, for n <= 7."""
    sympy = pytest.importorskip("sympy")
    x, r, t = sympy.symbols("x r t")
    order = 8
    expansion = sympy.series((1 + t) ** (x - r) * (1 - t) ** (-(x + r + 1)), t, 0, order).removeO()
    for route in Route:
        seq = d_sequence(route, order - 1)
        for n in range(order):
            ours = sum(
                (sympy.Rational(c.numerator, c.denominator) * x**dx * r**dr for (dx, dr), c in seq.polys[n].terms()),
                sympy.Integer(0),
            )
            assert sympy.expand(ours - expansion.coeff(t, n)) == 0, (route, n)


def test_dsequence_validates_base_values():
    with pytest.raises(ValueError):
        DSequence(Route.DIRECT, (BiPoly.const(2),))
    with pytest.raises(ValueError):
        DSequence(Route.DIRECT, (BiPoly.one(), BiPoly.one()))


def test_degree_and_leading_coefficient():
    seq = d_threeterm(12)
    for n in range(13):
        p = seq.polys[n]
        assert p.deg_x == n
        assert p.coefficient(n, 0) == Fraction(2**n, factorial(n))


def test_reflection_symmetry():
    # d_n(x) = (-1)^n d_n(-1-x)
    seq = d_threeterm(10)
    for n in range(11):
        reflected = seq.polys[n].subst_affine_x(-1, negate=True)
        sign = -1 if n % 2 else 1
        assert sign * reflected == seq.polys[n]


def test_delannoy_dp_small_values():
    assert delannoy_dp(0, 5) == 1
    assert delannoy_dp(5, 0) == 1
    assert delannoy_dp(1, 1) == 3
    assert delannoy_dp(2, 2) == 13
    for n in range(6):
        for m in range(6):
            assert delannoy_dp(n, m) == delannoy_paths_oracle(n, m)


@pytest.mark.parametrize("n, m", [(True, 2), (2, True), (2.5, 1), (1, 2.5), (-1, 0), (0, -1), ("2", 1)])
def test_delannoy_dp_rejects_non_natural_index(n, m):
    # delannoy_dp(True, 2) used to return 5 and delannoy_dp(2.5, 1) raised a bare TypeError
    with pytest.raises(ValueError, match="must be a natural number"):
        delannoy_dp(n, m)


def test_delannoy_anchor():
    for n in range(13):
        for m in range(13):
            assert d_eval(n, EvalPoint(0, m)) == delannoy_dp(n, m)


def test_d_eval_examples():
    assert d_eval(2, EvalPoint(0, 2)) == 13
    assert d_eval(5, EvalPoint(Fraction(-1, 2), Fraction(1, 2))) == 2
    # at x = -1/2 every odd-index value vanishes identically in r
    for r in (Fraction(7, 3), Fraction(-2, 5), Fraction(4)):
        assert d_eval(3, EvalPoint(r, Fraction(-1, 2))) == 0


@pytest.mark.parametrize("bad", [(1, 2), None, Fraction(1, 2), "1,2"], ids=["tuple", "none", "fraction", "str"])
def test_scalar_evaluators_reject_a_point_that_is_not_an_evalpoint(bad):
    # d_eval(3, (1, 2)) used to raise a bare AttributeError on tuple.x
    for call in (lambda: d_eval(3, bad), lambda: d_eval_sequence(3, bad), lambda: d_eval_sequence(0, bad)):
        with pytest.raises(ValueError, match="EvalPoint"):
            call()


def test_the_point_is_checked_once_per_call(monkeypatch):
    checked = []
    monkeypatch.setattr(dcore, "_check_point", checked.append)
    at = EvalPoint(Fraction(1, 3), Fraction(-2, 5))
    d_eval(40, at)
    d_eval_sequence(40, at)
    assert checked == [at, at]


def test_d_eval_matches_symbolic():
    rng = random.Random(11)
    seq = d_threeterm(9)
    for _ in range(30):
        at = EvalPoint(
            Fraction(rng.randint(-12, 12), rng.randint(1, 7)),
            Fraction(rng.randint(-12, 12), rng.randint(1, 7)),
        )
        values = d_eval_sequence(9, at)
        for n in range(10):
            assert values[n] == seq.polys[n].eval(at.r, at.x)


def fraction_recurrence(n_max: int, at: EvalPoint) -> list[Fraction]:
    """d_0..d_n_max from the three-term recurrence in plain ``Fraction``
    arithmetic, the reference for the integer kernel behind d_eval_sequence."""
    out = [Fraction(1)]
    if n_max >= 1:
        out.append(1 + 2 * at.x)
    for n in range(1, n_max):
        out.append(((1 + 2 * at.x) * out[n] + (n + 2 * at.r) * out[n - 1]) / (n + 1))
    return out


def test_scalar_evaluators_match_fraction_recurrence():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    rational = st.fractions(min_value=-6, max_value=6, max_denominator=60)

    @hypothesis.settings(max_examples=120, deadline=None)
    @hypothesis.given(r=rational, x=rational, n_max=st.integers(0, 40))
    @hypothesis.example(r=Fraction(-7, 3), x=Fraction(-9, 4), n_max=40)
    @hypothesis.example(r=Fraction(-1, 2), x=Fraction(-5, 2), n_max=40)
    def check(r, x, n_max):
        at = EvalPoint(r, x)
        want = fraction_recurrence(n_max, at)
        assert d_eval_sequence(n_max, at) == want
        assert d_eval(n_max, at) == want[n_max]

    check()


@pytest.mark.parametrize("warm", [False, True], ids=["cold-cache", "warm-cache"])
def test_bad_indices_fail_whatever_the_cache_holds(warm):
    clear_caches()
    if warm:
        d_sequence(Route.DIRECT, 5)
    at = EvalPoint(Fraction(1, 3), Fraction(-1, 4))
    for bad in (-1, -3, True, 2.5, "3"):
        with pytest.raises(ValueError, match="must be a natural number"):
            d_direct(bad)
        with pytest.raises(ValueError, match="must be a natural number"):
            d_sequence(Route.DIRECT, bad)
        with pytest.raises(ValueError, match="must be a natural number"):
            d_eval(bad, at)
        with pytest.raises(ValueError, match="must be a natural number"):
            d_eval_sequence(bad, at)
    # the rejected calls left the cache as it was
    assert d_sequence(Route.DIRECT, 5).polys == d_threeterm(5).polys
    clear_caches()


@pytest.mark.parametrize("bad", ["three-term", None, 3], ids=["route-value", "none", "int"])
def test_a_route_that_is_no_route_is_named_before_the_cache_is_touched(bad):
    # d_sequence("three-term", 3) used to fail with a bare KeyError from the
    # generator table.
    clear_caches()
    with pytest.raises(ValueError, match="not a Route") as raised:
        d_sequence(bad, 3)
    for route in Route:
        assert f"Route.{route.name}" in str(raised.value)
    assert not dcore._cache


DEFERRED_ROUTES = [Route.DIRECT, Route.NEWFORM]


@pytest.mark.parametrize("route", list(Route), ids=lambda route: route.value)
def test_interrupted_build_leaves_no_trace(route, monkeypatch):
    # A build that raises part-way (a Ctrl-C, say) must not leave working
    # state behind that a later, uninterrupted build then reads.  The
    # interrupted window covers reading every entry, as the defining-sum
    # routes build each d_n on its first read.
    clear_caches()
    want = d_sequence(Route.THREE_TERM, 6).polys
    clear_caches()
    # the step each route runs once per d_n it builds
    step = "_forms_to_xr" if route in DEFERRED_ROUTES else "sum_products"
    real = getattr(dcore, step)
    calls = 0

    def interrupted_on_fourth_call(*args):
        nonlocal calls
        calls += 1
        if calls == 4:
            raise RuntimeError("interrupted")
        return real(*args)

    monkeypatch.setattr(dcore, step, interrupted_on_fourth_call)
    with pytest.raises(RuntimeError, match="interrupted"):
        [p.to_text() for p in d_sequence(route, 6).polys]
    monkeypatch.setattr(dcore, step, real)
    assert d_sequence(route, 6).polys == want
    clear_caches()


@pytest.mark.parametrize("route", DEFERRED_ROUTES, ids=lambda route: route.value)
def test_deep_build_runs_only_the_sums_it_reads(route, monkeypatch):
    clear_caches()
    real, calls = dcore._forms_to_xr, []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(dcore, "_forms_to_xr", counted)
    text = d_sequence(route, 40).polys[40].to_text()
    assert len(calls) <= 3  # d_0 and d_1, which DSequence checks, and d_40
    assert calls  # the kernel is the step that builds each entry
    monkeypatch.setattr(dcore, "_forms_to_xr", real)
    assert text == d_threeterm(40).polys[40].to_text()
    clear_caches()


@pytest.mark.parametrize("route", DEFERRED_ROUTES, ids=lambda route: route.value)
def test_deferred_entry_whose_builder_raised_is_rebuilt(route, monkeypatch):
    clear_caches()
    want = d_threeterm(5).polys[5]
    entry = d_sequence(route, 5).polys[5]
    real = dcore._forms_to_xr

    def interrupted(*args):
        raise RuntimeError("interrupted")

    monkeypatch.setattr(dcore, "_forms_to_xr", interrupted)
    for read in (entry.to_text, lambda: entry == want, entry.subst_neg_x):
        with pytest.raises(RuntimeError, match="interrupted"):
            read()  # every read tries the build again
    monkeypatch.setattr(dcore, "_forms_to_xr", real)
    assert entry == want
    assert entry.to_text() == want.to_text()
    assert d_sequence(route, 5).polys[5] is entry
    clear_caches()


@pytest.mark.parametrize("route", DEFERRED_ROUTES, ids=lambda route: route.value)
def test_concurrent_reads_of_a_deferred_entry_agree(route, monkeypatch):
    # Four threads read one unbuilt entry at once; whichever build and
    # decode land last, every reader sees the same polynomial.  Each build
    # sleeps before its kernel runs, so the builds overlap.
    want = d_threeterm(16).polys[16]
    text = want.to_text()
    real = dcore._forms_to_xr

    def slow(*args):
        time.sleep(0.001)
        return real(*args)

    monkeypatch.setattr(dcore, "_forms_to_xr", slow)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            clear_caches()
            entry = d_sequence(route, 16).polys[16]
            barrier = threading.Barrier(4)
            seen = []

            def read(kind):
                barrier.wait(timeout=10)
                seen.append(entry.to_text() == text if kind else entry == want)

            threads = [threading.Thread(target=read, args=(i % 2,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert seen == [True] * 4
            assert entry == want
    finally:
        sys.setswitchinterval(interval)
        clear_caches()


def test_defining_sums_equal_the_recurrence_through_60_and_at_120():
    clear_caches()
    want = d_threeterm(120).polys
    for route in DEFERRED_ROUTES:
        assert d_sequence(route, 60).polys == want[:61], route
    clear_caches()
    for route in DEFERRED_ROUTES:
        assert d_sequence(route, 120).polys[120] == want[120], route  # d_61..d_119 stay unbuilt
    clear_caches()


@pytest.mark.parametrize("f, g", [((1, 1), (1, -1)), ((0, 1), (1, -1))], ids=["x+r, x-r", "r, x-r"])
def test_change_of_variables_kernel_matches_sympy(f, g):
    sympy = pytest.importorskip("sympy")
    x, r = sympy.symbols("x r")
    fs, gs = f[0] * x + f[1] * r, g[0] * x + g[1] * r
    rng = random.Random(f"{f}{g}")
    for top in [*range(13), 12, 12]:
        m = [[0] * (top + 1) for _ in range(top + 1)]
        for i in range(top + 1):
            for j in range(top + 1 - i):
                m[i][j] = rng.choice((0, rng.randint(-9, 9), rng.randint(-(10**30), 10**30)))
        den = rng.randint(1, 10**6)
        expanded = sympy.Poly(sum((m[i][j] * fs**i * gs**j for i in range(top + 1) for j in range(top + 1)), sympy.Integer(0)), x, r)
        want = BiPoly({key: Fraction(int(c), den) for key, c in expanded.terms()})
        assert dcore._forms_to_xr(m, f, g, den) == want, (top, m, den)


def test_jacobi_eval():
    assert jacobi_eval(0, X - R, 2 * R, 3) == BiPoly.one()
    # forced by the connection formula at n = 1
    assert jacobi_eval(1, X - R - 1, 2 * R, 3) == 1 + 2 * X
    # Legendre case P_1(x) = x
    zero = BiPoly.zero()
    assert jacobi_eval(1, zero, zero, 3) == BiPoly.const(3)
    assert jacobi_eval(2, zero, zero, 1) == BiPoly.one()


def test_jacobi_eval_gives_d_n_in_the_three_forms():
    # the three Jacobi forms of d_n: alpha = x-r-n, beta = 2r at 3; swapped
    # at -3 with the sign (-1)^n (which verify_jacobi leaves out, as Jacobi's
    # symmetry gives it from the first); reflected, beta = -1-x-r-n, at -3
    d = d_sequence(Route.THREE_TERM, 10).polys
    for n in range(11):
        assert jacobi_eval(n, X - R - n, 2 * R, 3) == d[n]
        assert (-1) ** n * jacobi_eval(n, 2 * R, X - R - n, -3) == d[n]
        assert jacobi_eval(n, 2 * R, -1 - X - R - n, -3) == d[n]


def test_jacobi_eval_rejects_non_affine():
    with pytest.raises(ValueError):
        jacobi_eval(1, X * R, BiPoly.zero(), 3)


def test_constant_top_arguments_are_constant_polynomials():
    # an int or Fraction is an affine (constant) argument; these used to
    # raise AttributeError on int.is_affine
    assert jacobi_eval(2, 1, 1, 0) == Fraction(-3, 4)
    assert jacobi_eval(3, Fraction(1, 2), BiPoly.const(2), Fraction(1, 3)) == jacobi_eval(
        3, BiPoly.const(Fraction(1, 2)), 2, Fraction(1, 3)
    )
    assert binom_row(3, 2) == [1, 3, 3]
    assert binom_poly(3, 2) == 3
    assert binom_poly(Fraction(1, 2), 2) == Fraction(-1, 8)
    for bad in (0.5, True, "1"):
        with pytest.raises(ValueError, match="affine"):
            jacobi_eval(2, bad, 1, 0)
        with pytest.raises(ValueError, match="affine"):
            jacobi_eval(2, 1, bad, 0)
        with pytest.raises(ValueError, match="affine"):
            binom_row(bad, 2)
        with pytest.raises(ValueError, match="affine"):
            binom_poly(bad, 2)


def test_constant_jacobi_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for alpha, beta, t in [(1, 1, 0), (Fraction(1, 2), -3, Fraction(2, 5)), (0, Fraction(7, 3), -2)]:
        args = [sympy.Rational(v.numerator, v.denominator) for v in map(Fraction, (alpha, beta, t))]
        for n in range(6):
            want = sympy.jacobi(n, *args)
            assert jacobi_eval(n, alpha, beta, t) == Fraction(int(want.p), int(want.q)), (n, alpha, beta, t)


def test_meixner_eval():
    assert meixner_eval(0, 7, Fraction(1, 3), -1) == 1
    # two-term sum: M_1(x; b, -1) = 1 + 2x/b
    assert meixner_eval(1, 1, 1, -1) == 3
    for x, b in [(Fraction(2), Fraction(5)), (Fraction(-1, 3), Fraction(1, 2))]:
        assert meixner_eval(1, x, b, -1) == 1 + 2 * x / b
    # c = -1 turns the series argument into 2
    assert meixner_eval(1, 1, 1, Fraction(-1)) == meixner_eval(1, 1, 1, -1)


def test_meixner_connection():
    # d_n = (2r+1)_n / n! * M_n(x - r; 2r+1, -1) away from the excluded set
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(0, 8)
        r = Fraction(rng.randint(0, 12), rng.randint(1, 5))
        x = Fraction(rng.randint(-10, 10), rng.randint(1, 5))
        expected = pochhammer(2 * r + 1, n) / factorial(n) * meixner_eval(
            n, x - r, 2 * r + 1, -1
        )
        assert d_eval(n, EvalPoint(r, x)) == expected


def test_meixner_eval_rejects_poles():
    with pytest.raises(ValueError):
        meixner_eval(2, 1, 0, -1)
    with pytest.raises(ValueError):
        meixner_eval(3, 1, -2, -1)
    with pytest.raises(ValueError):
        meixner_eval(1, 1, 1, 0)


@pytest.mark.parametrize("bad", [-1, True, 2.5])
def test_jacobi_and_meixner_reject_non_natural_degree(bad):
    # meixner_eval(-1, ...) used to return 0 and meixner_eval(True, 2, 3, -1)
    # returned 7/3; jacobi_eval(-1, ...) returned 0 and accepted True.
    with pytest.raises(ValueError, match="n must be a natural number"):
        meixner_eval(bad, 2, 3, -1)
    with pytest.raises(ValueError, match="n must be a natural number"):
        jacobi_eval(bad, X - R, 2 * R, 3)


def test_special_value_anchor_from_closed_form():
    # d_4 at x = 0 equals binom(r+2, 2) for every rational r
    for r in (Fraction(0), Fraction(9, 5), Fraction(-1, 3)):
        assert d_eval(4, EvalPoint(r, 0)) == binom_gen(r + 2, 2)
    # symbolically too
    assert d_direct(4).subst_x_value(0) == binom_poly(R + 2, 2)
