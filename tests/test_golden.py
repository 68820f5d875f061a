"""Byte-level golden tests of the verifier reports.

``perfbench/reference/suite.jsonl`` holds the bytes ``delpoly verify
--format json`` printed at the default depths when the benchmark was
defined; ``tests/golden/fault_lines.jsonl`` holds, for every verifier, the
report line with the fault injected at instance 1 and all depths 5, which
pins the exact counterexample values.  Both files are read, never written.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from delpoly.cli import main
from delpoly.verify import SUITE_IDS, SuiteConfig, run_suite

ROOT = Path(__file__).resolve().parent.parent
SUITE_REFERENCE = ROOT / "perfbench" / "reference" / "suite.jsonl"
FAULT_LINES = Path(__file__).resolve().parent / "golden" / "fault_lines.jsonl"
FAST_DEPTHS = {identity_id: 5 for identity_id in SUITE_IDS}


def test_verify_json_matches_reference_bytes():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--format", "json"])
    assert code == 0
    assert out.getvalue().encode() == SUITE_REFERENCE.read_bytes()


def _golden_fault_lines() -> dict[str, str]:
    return {json.loads(line)["id"]: line for line in FAULT_LINES.read_text().splitlines()}


@pytest.mark.parametrize("identity_id", SUITE_IDS)
def test_fault_injected_line_matches_golden(identity_id):
    config = SuiteConfig(depths=FAST_DEPTHS, selection=(identity_id,), fault=(identity_id, 1))
    (report,) = run_suite(config)
    assert not report.passed
    assert report.to_json_line() == _golden_fault_lines()[identity_id]
