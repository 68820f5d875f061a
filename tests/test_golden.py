"""Byte-level golden tests of the verifier reports and route polynomials.

``perfbench/reference/suite.jsonl`` holds the bytes ``delpoly verify
--format json`` printed at the default depths when the benchmark was
defined; ``perfbench/reference/routes.json`` holds the sha256 of what
``delpoly poly`` printed for each route at the benchmark's depths;
``tests/golden/fault_lines.jsonl`` and ``tests/golden/fault_lines_0.jsonl``
hold, for every verifier, the report line with the fault injected at case 1
and at case 0, all depths 5, which pins the exact counterexample values
(case 0 reaches meixner's connection grid, the x-only parametric-square
witness and hyper-bridge's first bridge);
``tests/golden/parametric_square_faults.jsonl`` holds parametric-square's
report line at its default depth 10 with the fault at indices that reach
its one case kind at integer and half-integer a, at every n from 0 to 10,
including the first and last a of the grid at n = 10;
``tests/golden/scan_default.jsonl`` and ``tests/golden/scan_deep.jsonl``
hold what ``delpoly scan --format json`` printed on the default grid and on
``tests/golden/scan_deep.grid`` (a 3x4 grid at n_max 800) before the scans
carried the squared recurrence state.
These files are read, never written.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from delpoly.cli import main
from delpoly.verify import SUITE_IDS, SuiteConfig, run_suite, verify_parametric_square

ROOT = Path(__file__).resolve().parent.parent
SUITE_REFERENCE = ROOT / "perfbench" / "reference" / "suite.jsonl"
ROUTES_REFERENCE = ROOT / "perfbench" / "reference" / "routes.json"
# The depths at which the benchmark's routes workload prints each route.
ROUTE_DEPTHS = {"direct": 22, "newform": 28, "series": 22, "three-term": 90, "two-term": 72}
GOLDEN = Path(__file__).resolve().parent / "golden"
FAULT_LINES = {1: GOLDEN / "fault_lines.jsonl", 0: GOLDEN / "fault_lines_0.jsonl"}
PARAMETRIC_SQUARE_FAULTS = [
    json.loads(line) for line in (GOLDEN / "parametric_square_faults.jsonl").read_text().splitlines()
]
FAST_DEPTHS = {identity_id: 5 for identity_id in SUITE_IDS}


def test_verify_json_matches_reference_bytes():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--format", "json"])
    assert code == 0
    assert out.getvalue().encode() == SUITE_REFERENCE.read_bytes()


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["scan", "--format", "json"], "scan_default.jsonl"),
        (["scan", "--grid-file", str(GOLDEN / "scan_deep.grid"), "--format", "json"], "scan_deep.jsonl"),
    ],
    ids=["default-grid", "deep-grid"],
)
def test_scan_json_matches_golden_bytes(argv, golden):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    assert out.getvalue().encode() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("route", ROUTE_DEPTHS)
def test_poly_output_matches_reference_hash(route):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["poly", "-n", str(ROUTE_DEPTHS[route]), "--route", route])
    assert code == 0
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == json.loads(ROUTES_REFERENCE.read_text())[route]


def _golden_fault_lines(index: int) -> dict[str, str]:
    return {json.loads(line)["id"]: line for line in FAULT_LINES[index].read_text().splitlines()}


@pytest.mark.parametrize(
    "identity_id, index",
    [pytest.param(i, index, id=i if index == 1 else f"{i}-at-0") for index in (1, 0) for i in SUITE_IDS],
)
def test_fault_injected_line_matches_golden(identity_id, index):
    config = SuiteConfig(depths=FAST_DEPTHS, selection=(identity_id,), fault=(identity_id, index))
    (report,) = run_suite(config)
    assert not report.passed
    assert report.to_json_line() == _golden_fault_lines(index)[identity_id]


@pytest.mark.parametrize(
    "golden", PARAMETRIC_SQUARE_FAULTS, ids=[str(golden["fault_index"]) for golden in PARAMETRIC_SQUARE_FAULTS]
)
def test_parametric_square_fault_line_matches_golden(golden):
    report = verify_parametric_square(10, fault_index=golden["fault_index"])
    assert not report.passed
    assert report.to_json_line() == golden["line"]
