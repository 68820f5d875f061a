"""Self-tests of the benchmark (not of delpoly).

    python3 perfbench/selftest.py

They cover the span arithmetic, the coverage and transparency of the trace
wrappers, the reference arithmetic, and that the checkers catch wrong
output.  The file is not named test_*.py on purpose: the repository's own
pytest run does not collect it.
"""

from __future__ import annotations

import json
import os
import sys
import unittest
from fractions import Fraction
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import load_delpoly  # noqa: E402

MODULES = load_delpoly()


def _delpoly_namespaces():
    out = []
    for name, module in sys.modules.items():
        if name == "delpoly" or name.startswith("delpoly."):
            out.append(module)
            out.extend(v for v in vars(module).values() if isinstance(v, type) and v.__module__ == name)
    return out


def _bound_anywhere(obj) -> list[str]:
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner in _delpoly_namespaces()
        for attr, value in vars(owner).items()
        if value is obj
    ]


class SpanArithmetic(unittest.TestCase):
    def record(self, rec: tracing.Recorder, clock: list[float], script):
        """Replay nested open/close calls against a fake clock."""
        with mock.patch.object(tracing.time, "perf_counter", side_effect=clock):
            script()

    def test_self_time_of_nested_spans(self):
        rec = tracing.Recorder()
        a, b, c = rec.name_id("a"), rec.name_id("b"), rec.name_id("c")

        def script():
            rec.begin_iteration()
            top = rec.open(a)  # [0, 10]
            mid = rec.open(b)  # [1, 4]
            leaf = rec.open(c)  # [2, 3]
            rec.close(leaf)
            rec.close(mid)
            side = rec.open(c)  # [5, 9]
            inner = rec.open(a)  # [6, 7], nested inside another "a"
            rec.close(inner)
            rec.close(side)
            rec.close(top)

        self.record(rec, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0], script)
        self.assertEqual(rec.self_times(), [3.0, 2.0, 1.0, 3.0, 1.0])
        (row,) = rec.per_iteration()
        self.assertEqual(row["a.calls"], 2)
        self.assertEqual(row["a.s"], 10.0)  # the nested "a" is not counted twice
        self.assertEqual(row["a.self_s"], 4.0)
        self.assertEqual(row["c.s"], 5.0)
        self.assertEqual(row["c.self_s"], 4.0)

    def test_spans_are_kept_per_iteration(self):
        rec = tracing.Recorder()
        a = rec.name_id("a")

        def script():
            for _ in range(2):
                rec.begin_iteration()
                rec.close(rec.open(a))

        self.record(rec, [0.0, 2.0, 5.0, 6.0], script)
        rows = rec.per_iteration()
        self.assertEqual([r["a.s"] for r in rows], [2.0, 1.0])
        self.assertEqual(tracing.layer_metrics(rec)["bipoly.mul.calls"], 0)

    def test_route_cache_accounting(self):
        rec = tracing.Recorder()
        rec.begin_iteration()
        rec.route_request("direct", 5)  # builds d_0..d_5
        rec.route_request("direct", 3)  # all reused
        rec.route_request("direct", 7)  # builds d_6, d_7
        rec.caches_cleared()
        rec.route_request("direct", 1)  # builds again
        metrics = tracing.layer_metrics(rec)
        self.assertEqual(metrics["dcore.cache.polys_built"], 6 + 2 + 2)
        self.assertAlmostEqual(metrics["dcore.cache.hit_ratio"], (4 + 6) / (6 + 4 + 8 + 2))


class WrapperCoverage(unittest.TestCase):
    def test_every_binding_site_is_wrapped_and_restored(self):
        tracer = tracing.Tracer(tracing.Recorder())
        originals = {key: sites[0].original for key, sites in tracer.sites.items()}
        for key, sites in tracer.sites.items():
            self.assertTrue(sites, f"{key} is bound nowhere")
        names = {site.attr for site in tracer.sites[("delpoly.bipoly", "BiPoly.__mul__")]}
        self.assertEqual(names, {"__mul__", "__rmul__"})
        names = {site.attr for site in tracer.sites[("delpoly.bipoly", "BiPoly.__add__")]}
        self.assertEqual(names, {"__add__", "__radd__"})
        owners = {site.owner.__name__ for site in tracer.sites[("delpoly.exactnum", "binom_gen")]}
        self.assertTrue({"delpoly", "delpoly.exactnum", "delpoly.analysis", "delpoly.verify"} <= owners)
        tracer.install()
        try:
            for key, fn in originals.items():
                self.assertEqual(_bound_anywhere(fn), [], f"{key} left unwrapped")
        finally:
            tracer.restore()
        for key, fn in originals.items():
            self.assertEqual(_bound_anywhere(tracer.wrappers[key]), [], f"{key} not restored")
            self.assertEqual(len(_bound_anywhere(fn)), len(tracer.sites[key]))

    def test_traced_output_is_byte_identical(self):
        commands = [
            ["verify", "--suite", "square,recurrences,meixner,hyper-bridge,clausen-product", "--depth", "4", "--format", "json"],
            ["poly", "-n", "7", "--route", "direct"],
            ["poly", "-n", "7", "--route", "two-term"],
            ["scan", "--n-max", "6", "--format", "json"],
        ]
        dcore = MODULES.dcore
        dcore.clear_caches()
        plain = [workloads.run_cli(MODULES.cli, argv) for argv in commands]
        rec = tracing.Recorder()
        tracer = tracing.Tracer(rec)
        rec.begin_iteration()
        tracer.install()
        try:
            dcore.clear_caches()
            traced = [workloads.run_cli(MODULES.cli, argv) for argv in commands]
        finally:
            tracer.restore()
        self.assertEqual(plain, traced)
        metrics = tracing.layer_metrics(rec)
        for name in (
            "bipoly.mul.calls",
            "bipoly.mul.term_pairs",
            "bipoly.add.calls",
            "bipoly.binom_poly.calls",
            "bipoly.subst.calls",
            "dcore.cache.polys_built",
            "dcore.d_eval_sequence.steps",
            "dcore.meixner_eval.calls",
            "exactnum.pochhammer.calls",
            "hyper.hyper_eval.calls",
            "hyper.d_via_hyper.calls",
            "hyper.clausen_product_sides.calls",
            "reports.to_json_line.calls",
            "verify.square.s",
            "verify.recurrences.s",
            "analysis.scan_conjecture.s",
            "dcore.route.direct.s",
            "dcore.route.two-term.s",
            "cli.self_s",
        ):
            self.assertGreater(metrics[name], 0, name)
        self.assertEqual(metrics["verify.jacobi.s"], 0)


class ReferenceArithmetic(unittest.TestCase):
    POINTS = [(Fraction(0), Fraction(2)), (Fraction(1, 3), Fraction(-5, 7)), (Fraction(-2, 5), Fraction(9, 4))]

    def test_defining_sum_and_recurrence_agree_with_delpoly(self):
        for r, x in self.POINTS:
            at = MODULES.dcore.EvalPoint(r, x)
            seq = oracle.d_values(9, r, x)
            for n in range(10):
                self.assertEqual(oracle.d_defining_sum(n, r, x), MODULES.dcore.d_eval(n, at))
                self.assertEqual(seq[n], oracle.d_defining_sum(n, r, x))
        self.assertEqual(oracle.d_defining_sum(2, Fraction(0), Fraction(2)), 13)

    def test_scaling_to_the_reference_speed(self):
        ref = calibration.REFERENCE_S
        self.assertAlmostEqual(calibration.scaled(3.0, ref, ref), 3.0)
        self.assertAlmostEqual(calibration.scaled(3.0, 1.5 * ref, 2.5 * ref), 1.5)  # machine 2x slow
        self.assertGreater(calibration.calibrate(), 0)

    def test_text_parser(self):
        text = MODULES.dcore.d_sequence(MODULES.dcore.Route.DIRECT, 6).polys[6].to_text()
        terms = oracle.parse_poly_text(text)
        for r, x in self.POINTS:
            self.assertEqual(oracle.eval_terms(terms, r, x), oracle.d_defining_sum(6, r, x))
        self.assertEqual(oracle.parse_poly_text("-x^2*r + 3/2*x - 1"), [(2, 1, -1), (1, 0, Fraction(3, 2)), (0, 0, -1)])


class CheckersCatchWrongOutput(unittest.TestCase):
    def suite_prepared(self):
        return workloads.prepare("suite", MODULES, 1, HERE)

    def test_suite_reference_passes(self):
        prepared = self.suite_prepared()
        good = workloads._load_reference("suite.jsonl")
        self.assertEqual(prepared.check({"verify": good}), [])
        self.assertEqual(prepared.mismatches([0], {"verify": good}), [])

    def test_corrupted_byte_is_flagged(self):
        prepared = self.suite_prepared()
        good = workloads._load_reference("suite.jsonl")
        i = good.index("n<=12")
        bad = good[:i] + "n<=13" + good[i + 5 :]
        self.assertTrue(prepared.mismatches([0], {"verify": bad}))

    def test_flipped_verdict_is_flagged(self):
        prepared = self.suite_prepared()
        good = workloads._load_reference("suite.jsonl")
        bad = good.replace('"passed": true', '"passed": false', 1)
        self.assertTrue(prepared.check({"verify": bad}))
        self.assertTrue(prepared.mismatches([1], {"verify": bad}))

    def test_wrong_exit_code_is_flagged(self):
        prepared = self.suite_prepared()
        good = workloads._load_reference("suite.jsonl")
        self.assertTrue(prepared.mismatches([1], {"verify": good}))

    def test_scan_checker(self):
        r_values = [Fraction(0), Fraction(3, 4), Fraction(2)]
        x_values = [Fraction(-1), Fraction(-1, 3), Fraction(0)]
        grid = MODULES.analysis.GridSpec(tuple(r_values), tuple(x_values), 12)
        good = json.loads(MODULES.analysis.scan_conjecture(grid).to_json_line())
        sample = [(Fraction(3, 4), Fraction(-1, 3)), (Fraction(0), Fraction(0))]

        def problems(report):
            return workloads.check_scan_report(
                report, "turan-conjecture", r_values, x_values, 12, sample, oracle.turan_signs
            )

        self.assertEqual(problems(good), [])
        flipped = dict(good, passed=False)
        self.assertTrue(problems(flipped))
        moved = dict(good, zero_hits=good["zero_hits"][1:], violations=[good["zero_hits"][0] + ["-1"]])
        self.assertTrue(problems(moved))
        dropped = dict(good, zero_hits=[z for z in good["zero_hits"] if z[2] != "0"])
        self.assertTrue(problems(dropped))


if __name__ == "__main__":
    unittest.main()
