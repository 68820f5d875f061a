"""The four benchmark workloads: seeded inputs, the commands each iteration
runs, and the checks that every output must pass.

A workload iteration is a closed loop of real user commands, issued
in-process through ``delpoly.cli.main`` with stdout captured (plus, for
``scan``, the two library-only inequality scans).  Why each workload
exists is recorded in ``BENCHMARK.json`` and ``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

WORKLOADS = ("suite", "routes", "scan", "scan-deep")

SUITE_IDS = (
    "square",
    "linearization",
    "inversion",
    "jacobi",
    "meixner",
    "recurrences",
    "special-values",
    "shift-identities",
    "parametric-square",
    "weighted-square-sum",
    "hyper-bridge",
    "clausen-product",
)

# One depth per route, chosen so each route takes a comparable share of an
# iteration while the polynomials stay dense (hundreds of terms with
# 100-bit coefficients), which is where BiPoly multiplication dominates.
ROUTE_DEPTHS = (
    ("direct", 22),
    ("newform", 28),
    ("series", 22),
    ("three-term", 90),
    ("two-term", 72),
)

# Grid shapes: (r values, x values, n_max).  Denominators come from a fixed
# schedule and only numerators are drawn from the seed, so every seed yields
# rationals of the same bit size and hence a grid of the same cost.
SCAN_GRID = (14, 12, 120)
SCAN_INEQUALITY_GRID = (4, 6, 120)
SCAN_DEEP_GRID = (3, 4, 800)
_DENOMINATORS = (64, 48, 37, 29, 60, 17, 53, 41, 32, 9, 45, 27, 61, 13, 50, 23, 7, 56, 39, 19)

ROUTE_CHECK_POINTS = 3
SCAN_CHECK_POINTS = {"scan": 4, "scan-deep": 1}
INEQUALITY_CHECK_POINTS = 2


def fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """One ``delpoly`` command in-process: (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


@dataclass
class Step:
    """One command of an iteration and what it must produce."""

    label: str
    call: Callable[[], tuple[int, str]]
    expected_code: int = 0


@dataclass
class Prepared:
    """A workload with its seeded inputs generated, ready to iterate.

    ``reference`` maps a step label to the sha256 of its expected output;
    steps without a stored reference are pinned to the first output that
    passes ``check`` (see :meth:`pin`).
    """

    inputs: dict
    steps: list[Step]
    check: Callable[[dict[str, str]], list[str]]
    reference: dict[str, str] = field(default_factory=dict)

    def run(self) -> tuple[list[int], dict[str, str]]:
        codes, outputs = [], {}
        for step in self.steps:
            code, text = step.call()
            codes.append(code)
            outputs[step.label] = text
        return codes, outputs

    def pin(self, outputs: dict[str, str]) -> None:
        for label, text in outputs.items():
            self.reference.setdefault(label, digest(text))

    def mismatches(self, codes: list[int], outputs: dict[str, str]) -> list[str]:
        """Why one iteration's result is wrong (empty when it is right)."""
        problems = []
        for step, code in zip(self.steps, codes):
            if code != step.expected_code:
                problems.append(f"{step.label}: exit code {code}, expected {step.expected_code}")
            if digest(outputs[step.label]) != self.reference.get(step.label):
                problems.append(f"{step.label}: output differs from the reference bytes")
        return problems


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _rational_axis(rng: random.Random, lo: int, hi: int, count: int, fixed) -> list[Fraction]:
    """``fixed`` plus seeded values p/q in [lo, hi], one per scheduled q, with
    p prime to q so that q is the reduced denominator whatever the seed."""
    values = list(fixed)
    for q in _DENOMINATORS[: max(0, count - len(values))]:
        while True:
            p = rng.randint(lo * q, hi * q)
            if gcd(p, q) == 1 and Fraction(p, q) not in values:
                values.append(Fraction(p, q))
                break
    return values


def _write_grid(path: str, r_values, x_values, n_max: int) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"n_max={n_max}\n")
        for i in range(max(len(r_values), len(x_values))):
            parts = []
            if i < len(r_values):
                parts.append(f"r={fmt(r_values[i])}")
            if i < len(x_values):
                parts.append(f"x={fmt(x_values[i])}")
            handle.write(" ".join(parts) + "\n")


def _load_reference(name: str):
    with open(os.path.join(REFERENCE_DIR, name), encoding="utf-8") as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def check_suite(outputs: dict[str, str]) -> list[str]:
    """All 12 verifiers reported, in suite order, and every one passed."""
    problems = []
    lines = outputs["verify"].splitlines()
    try:
        reports = [json.loads(line) for line in lines]
    except json.JSONDecodeError as exc:
        return [f"verify: output is not JSON lines ({exc})"]
    ids = tuple(report.get("id") for report in reports)
    if ids != SUITE_IDS:
        problems.append(f"verify: report ids {ids} differ from the 12 suite ids")
    for report in reports:
        if report.get("passed") is not True:
            problems.append(f"verify: {report.get('id')} did not pass")
    return problems


def prepare_suite(modules, seed: int, workdir: str) -> Prepared:
    # The acceptance contract fixes the suite's inputs; the seed changes nothing.
    cli = modules.cli
    return Prepared(
        inputs={"command": "verify --format json", "verifiers": len(SUITE_IDS)},
        steps=[Step("verify", lambda: run_cli(cli, ["verify", "--format", "json"]))],
        check=check_suite,
        reference={"verify": digest(_load_reference("suite.jsonl"))},
    )


# ---------------------------------------------------------------------------
# routes
# ---------------------------------------------------------------------------


def route_check_points(seed: int) -> list[tuple[Fraction, Fraction]]:
    rng = random.Random(f"routes-{seed}")
    return [
        (
            Fraction(rng.randint(-40, 40), rng.randint(1, 16)),
            Fraction(rng.randint(-40, 40), rng.randint(1, 16)),
        )
        for _ in range(ROUTE_CHECK_POINTS)
    ]


def make_route_check(modules, points) -> Callable[[dict[str, str]], list[str]]:
    dcore = modules.dcore

    def check(outputs: dict[str, str]) -> list[str]:
        problems = []
        # Every route must produce the same d_0 .. d_m on the common prefix.
        common = min(n for _, n in ROUTE_DEPTHS)
        texts = {
            route: [p.to_text() for p in dcore.d_sequence(dcore.Route(route), n).polys[: common + 1]]
            for route, n in ROUTE_DEPTHS
        }
        first_route, first = next(iter(texts.items()))
        for route, seq in texts.items():
            for n, (a, b) in enumerate(zip(first, seq)):
                if a != b:
                    problems.append(f"routes: d_{n} from {route} differs from {first_route}")
                    break
        # Each printed top polynomial must match the defining sum exactly.
        for route, n in ROUTE_DEPTHS:
            try:
                terms = oracle.parse_poly_text(outputs[route].strip())
            except ValueError as exc:
                problems.append(f"{route}: unreadable polynomial text ({exc})")
                continue
            for r, x in points:
                got = oracle.eval_terms(terms, r, x)
                want = oracle.d_defining_sum(n, r, x)
                if got != want:
                    problems.append(
                        f"{route}: d_{n}(r={fmt(r)}, x={fmt(x)}) is {fmt(got)}, defining sum gives {fmt(want)}"
                    )
        return problems

    return check


def prepare_routes(modules, seed: int, workdir: str) -> Prepared:
    cli = modules.cli
    points = route_check_points(seed)
    reference = json.loads(_load_reference("routes.json"))
    steps = [
        Step(route, lambda route=route, n=n: run_cli(cli, ["poly", "-n", str(n), "--route", route]))
        for route, n in ROUTE_DEPTHS
    ]
    return Prepared(
        inputs={
            "route_depths": dict(ROUTE_DEPTHS),
            "check_points": [[fmt(r), fmt(x)] for r, x in points],
        },
        steps=steps,
        check=make_route_check(modules, points),
        reference={route: reference[route] for route, _ in ROUTE_DEPTHS},
    )


# ---------------------------------------------------------------------------
# scan and scan-deep
# ---------------------------------------------------------------------------


def scan_grid(seed: int, workload: str) -> tuple[list[Fraction], list[Fraction], int]:
    """The conjecture-region grid: r in [0, 4], x in [-1, 0], always with
    r = 0 and x in {-1, 0} so that the exact boundary zeros occur."""
    n_r, n_x, n_max = SCAN_GRID if workload == "scan" else SCAN_DEEP_GRID
    rng = random.Random(f"{workload}-{seed}")
    r_values = _rational_axis(rng, 0, 4, n_r, [Fraction(0)])
    x_values = _rational_axis(rng, -1, 0, n_x, [Fraction(-1), Fraction(0)])
    return r_values, x_values, n_max


def inequality_grid(seed: int) -> tuple[list[Fraction], list[Fraction], int]:
    """Grid for the two inequality scans: r > -1/2, x straddling -1/2
    (and exactly -1/2, which both scans must skip)."""
    n_r, n_x, n_max = SCAN_INEQUALITY_GRID
    rng = random.Random(f"inequality-{seed}")
    r_values = _rational_axis(rng, 0, 3, n_r, [Fraction(0)])
    x_values = _rational_axis(rng, -3, 2, n_x, [Fraction(-1, 2)])
    return r_values, x_values, n_max


def _sample(rng: random.Random, points, count: int):
    return rng.sample(points, min(count, len(points)))


def _entries(report: dict, key: str) -> dict[tuple, str | None]:
    """(n, r, x) -> value string (None for zero hits) for one report list."""
    out = {}
    for entry in report[key]:
        out[(entry[0], entry[1], entry[2])] = entry[3] if len(entry) > 3 else None
    return out


def check_scan_report(
    report: dict, claim: str, r_values, x_values, n_max: int, sample_points, margins
) -> list[str]:
    """Compare one ScanReport with values recomputed by ``margins``.

    ``margins(n_max, r, x)`` gives {n: quantity claimed positive}; at every
    sampled point the report's violations must be exactly the negative
    entries (with their values) and its zero hits exactly the zero entries.
    """
    problems = []
    if report.get("id") != claim:
        return [f"{claim}: unexpected report id {report.get('id')!r}"]
    if report["grid"] != {
        "r_values": [fmt(v) for v in r_values],
        "x_values": [fmt(v) for v in x_values],
        "n_max": n_max,
    }:
        problems.append(f"{claim}: reported grid differs from the generated grid")
    violations = _entries(report, "violations")
    zeros = _entries(report, "zero_hits")
    if violations.keys() & zeros.keys():
        problems.append(f"{claim}: violations and zero hits overlap")
    if report["passed"] != (not violations):
        problems.append(f"{claim}: verdict disagrees with its violation list")
    for r, x in sample_points:
        rs, xs = fmt(r), fmt(x)
        for n, value in margins(n_max, r, x).items():
            key = (n, rs, xs)
            if value < 0 and violations.get(key) != fmt(value):
                problems.append(f"{claim}: n={n}, r={rs}, x={xs} should be a violation of {fmt(value)}")
            elif value == 0 and key not in zeros:
                problems.append(f"{claim}: n={n}, r={rs}, x={xs} should be a zero hit")
            elif value > 0 and (key in zeros or key in violations):
                problems.append(f"{claim}: n={n}, r={rs}, x={xs} is positive but reported")
    return problems


def make_scan_check(workload: str, seed: int, grid, inequality):
    r_values, x_values, n_max = grid
    rng = random.Random(f"{workload}-check-{seed}")
    interior = [(r, x) for r in r_values for x in x_values if r != 0 and x not in (0, -1)]
    sample = _sample(rng, interior, SCAN_CHECK_POINTS[workload])
    if inequality is not None:
        ir, ix, in_max = inequality
        eligible = [(r, x) for r in ir for x in ix if x != Fraction(-1, 2)]
        ineq_sample = _sample(rng, eligible, INEQUALITY_CHECK_POINTS)

    def check(outputs: dict[str, str]) -> list[str]:
        try:
            report = json.loads(outputs["scan"])
        except json.JSONDecodeError as exc:
            return [f"scan: output is not a JSON line ({exc})"]
        problems = check_scan_report(
            report, "turan-conjecture", r_values, x_values, n_max, sample, oracle.turan_signs
        )
        # At r = 0 the polynomials at x = 0 and x = -1 are 1 and (-1)^n, so the
        # Turán expression vanishes for every n: these zeros must all be there.
        zeros = _entries(report, "zero_hits")
        for x in (Fraction(0), Fraction(-1)):
            missing = [n for n in range(1, n_max + 1) if (n, "0", fmt(x)) not in zeros]
            if missing:
                problems.append(f"scan: boundary zeros at r=0, x={fmt(x)} missing for n={missing[:5]}")
        if inequality is not None:
            for claim, margins in (
                ("product-lower-bound", oracle.lower_bound_margins),
                ("positivity", oracle.positivity_margins),
            ):
                try:
                    ineq = json.loads(outputs[claim])
                except json.JSONDecodeError as exc:
                    problems.append(f"{claim}: output is not a JSON line ({exc})")
                    continue
                problems += check_scan_report(ineq, claim, ir, ix, in_max, ineq_sample, margins)
                skipped = {(s["r"], s["x"]) for s in ineq["skipped"]}
                if {(fmt(r), "-1/2") for r in ir} - skipped:
                    problems.append(f"{claim}: points on x = -1/2 were not skipped")
        return problems

    return check


def prepare_scan(modules, seed: int, workdir: str, workload: str) -> Prepared:
    cli, analysis = modules.cli, modules.analysis
    grid = scan_grid(seed, workload)
    r_values, x_values, n_max = grid
    grid_path = os.path.join(workdir, f"{workload}-{seed}.grid")
    _write_grid(grid_path, r_values, x_values, n_max)
    steps = [Step("scan", lambda: run_cli(cli, ["scan", "--grid-file", grid_path, "--format", "json"]))]
    inputs = {"grid": f"{len(r_values)}x{len(x_values)} points, n_max={n_max}"}
    inequality = None
    if workload == "scan":
        inequality = inequality_grid(seed)
        ir, ix, in_max = inequality
        spec = analysis.GridSpec(tuple(ir), tuple(ix), in_max)

        def library(fn):
            report = fn(spec)
            return (0 if report.passed else 1), report.to_json_line() + "\n"

        steps.append(Step("product-lower-bound", lambda: library(analysis.check_product_lower_bound)))
        steps.append(Step("positivity", lambda: library(analysis.check_positivity)))
        inputs["inequality_grid"] = f"{len(ir)}x{len(ix)} points, n_max={in_max}"
    return Prepared(
        inputs=inputs,
        steps=steps,
        check=make_scan_check(workload, seed, grid, inequality),
    )


def prepare(name: str, modules, seed: int, workdir: str) -> Prepared:
    if name == "suite":
        return prepare_suite(modules, seed, workdir)
    if name == "routes":
        return prepare_routes(modules, seed, workdir)
    if name in ("scan", "scan-deep"):
        return prepare_scan(modules, seed, workdir, name)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
