"""Command-line surface: evaluation, symbolic output, tables, identity
suites, and conjecture scans.

Rationals cross this boundary as exact "p/q" strings, never decimals.
Exit codes: 0 all checks pass, 1 a verified claim failed, 2 usage error,
141 stdout closed before the output was written (as by ``| head``).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from fractions import Fraction

from .analysis import GridSpec, default_conjecture_grid, scan_conjecture
from .dcore import EvalPoint, Route, d_eval, d_eval_sequence, d_sequence, delannoy_dp
from .exactnum import check_natural, format_rational, int_to_decimal, parse_rational
from .reports import json_line
from .verify import DEFAULT_DEPTHS, SuiteConfig, run_suite, suite_passed

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: what a shell reports for a program SIGPIPE ends


def _argument(convert):
    """An argparse type that reports ``convert``'s ValueError as its own text."""

    def argument(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return argument


_rational = _argument(parse_rational)


def _rational_list(text: str) -> list[Fraction]:
    values = [_rational(part) for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"no rationals in {text!r}")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise argparse.ArgumentTypeError(f"{format_rational(value)} repeats in {text!r}")
    return values


def _parse_natural(text: str, name: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise ValueError(f"{name} is not an integer: {text!r}") from exc
    return check_natural(value, name)


_natural = _argument(lambda text: _parse_natural(text, "value"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delpoly",
        description="Exact arithmetic for generalized Delannoy polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate d_n at rational (r, x)")
    p_eval.set_defaults(run=_cmd_eval)
    p_eval.add_argument("-n", type=_natural, required=True)
    p_eval.add_argument("-r", type=_rational, required=True)
    p_eval.add_argument("-x", type=_rational, required=True)

    p_poly = sub.add_parser("poly", help="print d_n in canonical text form")
    p_poly.set_defaults(run=_cmd_poly)
    p_poly.add_argument("-n", type=_natural, required=True)
    p_poly.add_argument(
        "--route",
        choices=[route.value for route in Route],
        default=Route.THREE_TERM.value,
        help="construction route (default: three-term)",
    )

    p_table = sub.add_parser("table", help="table of d_n(x) values for fixed r")
    p_table.set_defaults(run=_cmd_table)
    p_table.add_argument("--n-max", type=_natural, required=True)
    p_table.add_argument("-r", type=_rational, required=True)
    p_table.add_argument("-x", type=_rational_list, required=True, metavar="X1,X2,...")
    p_table.add_argument("--format", choices=["csv", "json"], default="csv")

    p_verify = sub.add_parser("verify", help="run identity verifiers")
    p_verify.set_defaults(run=_cmd_verify)
    p_verify.add_argument(
        "--suite",
        type=lambda s: [part.strip() for part in s.split(",") if part.strip()],
        default=None,
        metavar="ID1,ID2,...",
        help=f"identity ids (default: all). Known: {', '.join(DEFAULT_DEPTHS)}",
    )
    p_verify.add_argument(
        "--depth", type=_natural, default=None, help="override every verifier's depth"
    )
    p_verify.add_argument("--format", choices=["json", "text", "csv"], default="text")

    p_scan = sub.add_parser("scan", help="scan the Turán-type conjecture region")
    p_scan.set_defaults(run=_cmd_scan)
    p_scan.add_argument("--grid-file", default=None, help="line-oriented grid file")
    p_scan.add_argument("--n-max", type=_natural, default=None, help="override grid depth")
    p_scan.add_argument("--format", choices=["json", "text"], default="text")

    p_del = sub.add_parser("delannoy", help="Delannoy number D(n, m)")
    p_del.set_defaults(run=_cmd_delannoy)
    p_del.add_argument("-n", type=_natural, required=True)
    p_del.add_argument("-m", type=_natural, required=True)

    return parser


def parse_grid_file(path: str) -> GridSpec:
    """Read a grid file: an `n_max=<int>` header plus `r=<p/q> x=<p/q>` lines.

    The r and x values collected over all lines form the two axes of the
    (Cartesian-product) grid; duplicates are dropped, order is kept.  Each
    line is decoded on its own as UTF-8 with an optional BOM, so bytes that
    are not UTF-8 are reported with their line number, as any bad entry is.
    """
    n_max = None
    r_values: list[Fraction] = []
    x_values: list[Fraction] = []
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, 1):
            try:
                for token in raw.decode("utf-8-sig").split("#", 1)[0].split():
                    key, sep, value = token.partition("=")
                    if not sep:
                        raise ValueError(f"expected key=value, got {token!r}")
                    if key == "n_max":
                        if n_max is not None:
                            raise ValueError("repeated n_max= header")
                        n_max = _parse_natural(value, "n_max")
                    elif key in ("r", "x"):
                        q = parse_rational(value)
                        axis = r_values if key == "r" else x_values
                        if q not in axis:
                            axis.append(q)
                    else:
                        raise ValueError(f"unknown key {key!r}")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if n_max is None:
        raise ValueError(f"{path}: missing n_max= header")
    if not r_values or not x_values:
        raise ValueError(f"{path}: grid needs at least one r= and one x= entry")
    return GridSpec(tuple(r_values), tuple(x_values), n_max)


def _cmd_eval(args) -> int:
    print(format_rational(d_eval(args.n, EvalPoint(args.r, args.x))))
    return EXIT_OK


def _cmd_poly(args) -> int:
    seq = d_sequence(Route(args.route), args.n)
    print(seq.polys[args.n].to_text())
    return EXIT_OK


def _cmd_table(args) -> int:
    columns = [d_eval_sequence(args.n_max, EvalPoint(args.r, x)) for x in args.x]
    rows = [{"n": n, "values": [column[n] for column in columns]} for n in range(args.n_max + 1)]
    if args.format == "json":
        print(json_line({"r": args.r, "x": args.x, "rows": rows}))
    else:
        print(",".join(["n", *map(format_rational, args.x)]))
        for row in rows:
            print(",".join([str(row["n"]), *map(format_rational, row["values"])]))
    return EXIT_OK


def _cmd_verify(args) -> int:
    depths = {}
    if args.depth is not None:
        depths = {identity_id: args.depth for identity_id in DEFAULT_DEPTHS}
    selection = tuple(args.suite) if args.suite is not None else None
    try:
        reports = run_suite(SuiteConfig(depths=depths, selection=selection))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rows = csv.writer(sys.stdout, lineterminator="\n")
    for report in reports:
        if args.format == "json":
            print(report.to_json_line())
        elif args.format == "csv":
            rows.writerow([report.identity_id, report.mode.value, report.passed, report.range])
        else:
            status = "PASS" if report.passed else "FAIL"
            print(f"{status} {report.identity_id} [{report.mode.value}] {report.range}")
            if report.counterexample is not None:
                print(f"     counterexample: {report.to_json_line()}")
    return EXIT_OK if suite_passed(reports) else EXIT_CLAIM_FAILED


def _cmd_scan(args) -> int:
    try:
        grid = default_conjecture_grid() if args.grid_file is None else parse_grid_file(args.grid_file)
        if args.n_max is not None:
            grid = GridSpec(grid.r_values, grid.x_values, args.n_max)
        report = scan_conjecture(grid)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        print(report.to_json_line())
    else:
        status = "PASS" if report.passed else "FAIL"
        print(
            f"{status} {report.claim_id}: {len(report.violations)} violations, "
            f"{len(report.zero_hits)} boundary zeros, {len(report.skipped)} skipped"
        )
        for v in report.violations[:10]:
            n, r, x, value = v
            print(
                f"     violation at n={n}, r={format_rational(r)}, "
                f"x={format_rational(x)}: {format_rational(value)}"
            )
    return EXIT_OK if report.passed else EXIT_CLAIM_FAILED


def _cmd_delannoy(args) -> int:
    print(int_to_decimal(delannoy_dp(args.n, args.m)))
    return EXIT_OK


# Flags whose values may begin with "-" (negative rationals); argparse only
# special-cases plain negative integers, so these pairs are pre-joined into
# one "flag=value" token.
_VALUE_FLAGS = {"-r", "-x"}


def _join_negative_values(argv: list[str]) -> list[str]:
    out = []
    for tok in argv:
        if out and out[-1] in _VALUE_FLAGS and tok.startswith("-") and tok != "-":
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one ``delpoly`` command and return its exit code.  The parser is
    built once, at import, so in-process callers build none per command."""
    if argv is None:
        argv = sys.argv[1:]
    args = _PARSER.parse_args(_join_negative_values(argv))
    try:
        code = args.run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone: point stdout at the null device, so that the
        # interpreter's last flush of what is left raises nothing either.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
