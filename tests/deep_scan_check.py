"""Check a ``delpoly scan`` of tests/golden/scan_deep.grid run past the golden
depth of 800.  The JSON report is read from stdin:

    python -m delpoly.cli scan --grid-file tests/golden/scan_deep.grid \\
        --n-max 1600 --format json > deep.json
    python tests/deep_scan_check.py < deep.json

Its entries with n <= 800 must equal the golden report's, and the boundary
zeros at r = 0, x in {-1, 0} must be present for every n up to its depth.
Exits 1 with one line per problem otherwise.
"""

import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden") / "scan_deep.jsonl"


def problems(report: dict, golden: dict) -> list[str]:
    out = []
    depth, n_max = golden["grid"]["n_max"], report["grid"]["n_max"]
    if n_max <= depth:
        out.append(f"n_max {n_max} does not go past the golden depth {depth}")
    for key in ("r_values", "x_values"):
        if report["grid"][key] != golden["grid"][key]:
            out.append(f"grid {key} differ from the golden grid's")
    for key in ("id", "skipped"):
        if report[key] != golden[key]:
            out.append(f"{key} differs from the golden report's")
    for key in ("violations", "zero_hits"):
        if [e for e in report[key] if e[0] <= depth] != golden[key]:
            out.append(f"{key} with n <= {depth} differ from the golden report's")
    zeros = {tuple(e) for e in report["zero_hits"]}
    for x in ("-1", "0"):
        missing = [n for n in range(1, n_max + 1) if (n, "0", x) not in zeros]
        if missing:
            out.append(f"no zero hit at r = 0, x = {x} for n = {missing[:5]} ({len(missing)} in all)")
    return out


def main() -> int:
    found = problems(json.load(sys.stdin), json.loads(GOLDEN.read_text()))
    for line in found:
        print(line, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
