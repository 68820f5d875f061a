"""Tests for the command-line surface: golden outputs and exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from delpoly.analysis import GridSpec
import delpoly
from delpoly.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CLAIM_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    _join_negative_values,
    main,
    parse_grid_file,
)
from delpoly.dcore import EvalPoint, d_eval
from delpoly.exactnum import parse_rational

GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval(capsys):
    code, out, _ = run_cli(capsys, "eval", "-n", "2", "-r", "0", "-x", "2")
    assert code == EXIT_OK
    assert out == "13\n"


def test_main_builds_no_parser(capsys, monkeypatch):
    # the parser is built once, at import, and every call of main reuses it
    from delpoly import cli

    def no_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    code, out, _ = run_cli(capsys, "eval", "-n", "2", "-r", "0", "-x", "2")
    assert code == EXIT_OK
    assert out == "13\n"


def test_no_flag_outlives_its_call(capsys):
    # a reused parser must hand each call the defaults, not the last call's flags
    from delpoly.verify import SuiteConfig, run_suite

    fresh = run_suite(SuiteConfig(selection=("square",)))[0].to_json_line() + "\n"
    run_cli(capsys, "verify", "--suite", "square", "--depth", "2", "--format", "json")
    code, out, _ = run_cli(capsys, "verify", "--suite", "square", "--format", "json")
    assert code == EXIT_OK
    assert out == fresh
    assert json.loads(out)["range"] == "n<=12"
    run_cli(capsys, "table", "--n-max", "2", "-r", "0", "-x", "0,1", "--format", "json")
    code, out, _ = run_cli(capsys, "table", "--n-max", "2", "-r", "0", "-x", "0,1")
    assert code == EXIT_OK
    assert out == "n,0,1\n0,1,1\n1,1,3\n2,1,5\n"


@pytest.mark.parametrize(
    "argv, joined",
    [
        (["-r", "-x", "1"], ["-r=-x", "1"]),
        (["-r", "-"], ["-r", "-"]),
        (["-r=-1", "-x", "2"], ["-r=-1", "-x", "2"]),
        (["eval", "-n", "2", "-r"], ["eval", "-n", "2", "-r"]),
        (["-r", "-1/2", "-x", "-3"], ["-r=-1/2", "-x=-3"]),
        (["-n", "-1"], ["-n", "-1"]),
        (["table", "-x", "-1,-1/2,2", "--format", "json"], ["table", "-x=-1,-1/2,2", "--format", "json"]),
    ],
    ids=["two-flags-in-a-row", "lone-dash", "already-joined", "flag-last", "both-negative", "other-flag", "negative-x-list"],
)
def test_join_negative_values(argv, joined):
    assert _join_negative_values(argv) == joined


def test_eval_prints_values_past_the_int_digit_limit(capsys):
    # d_6000(1/3, 1/7) has a numerator and denominator of over 8000 digits,
    # past CPython's default 4300-digit str(int) limit, which stays in force
    want = d_eval(6000, EvalPoint(Fraction(1, 3), Fraction(1, 7)))
    if hasattr(sys, "get_int_max_str_digits"):
        with pytest.raises(ValueError):
            str(want.numerator)
    code, out, _ = run_cli(capsys, "eval", "-n", "6000", "-r", "1/3", "-x", "1/7")
    assert code == EXIT_OK
    num, den = out.rstrip("\n").split("/")
    assert len(num) > 8000 and len(den) > 8000
    assert parse_rational(out) == want
    # the same digits as str() gives with the limit lifted for just this check
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        assert (num, den) == (str(want.numerator), str(want.denominator))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_delannoy_prints_past_the_int_digit_limit(capsys, monkeypatch):
    from delpoly import cli

    monkeypatch.setattr(cli, "delannoy_dp", lambda n, m: 10**5000 + 1)
    code, out, _ = run_cli(capsys, "delannoy", "-n", "1", "-m", "1")
    assert code == EXIT_OK
    assert out == "1" + "0" * 4999 + "1\n"


def test_eval_negative_rational(capsys):
    code, out, _ = run_cli(capsys, "eval", "-n", "3", "-r", "1", "-x", "-1/2")
    assert code == EXIT_OK
    assert out == "0\n"


def test_eval_trivial(capsys):
    code, out, _ = run_cli(capsys, "eval", "-n", "0", "-r", "9/2", "-x", "100")
    assert code == EXIT_OK
    assert out == "1\n"


def test_eval_fractional_output(capsys):
    code, out, _ = run_cli(capsys, "eval", "-n", "2", "-r", "1/4", "-x", "-1/2")
    assert code == EXIT_OK
    assert out == "3/4\n"


def test_eval_rejects_decimal(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "-n", "1", "-r", "0.5", "-x", "1"])
    assert exc.value.code == EXIT_USAGE


def test_poly(capsys):
    code, out, _ = run_cli(capsys, "poly", "-n", "1")
    assert code == EXIT_OK
    assert out == "2*x + 1\n"
    code, out, _ = run_cli(capsys, "poly", "-n", "2")
    assert out == "2*x^2 + 2*x + r + 1\n"
    code, out, _ = run_cli(capsys, "poly", "-n", "0")
    assert out == "1\n"


def test_poly_routes_agree(capsys):
    outputs = set()
    for route in ("direct", "newform", "three-term", "two-term", "series"):
        code, out, _ = run_cli(capsys, "poly", "-n", "4", "--route", route)
        assert code == EXIT_OK
        outputs.add(out)
    assert len(outputs) == 1


def test_table_csv_is_delannoy_array(capsys):
    code, out, _ = run_cli(capsys, "table", "--n-max", "4", "-r", "0", "-x", "0,1,2,3,4")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "n,0,1,2,3,4"
    assert lines[1] == "0,1,1,1,1,1"
    # the (n=2, x=2) entry is the Delannoy number 13
    assert lines[3].split(",")[3] == "13"
    # the x=0 column is all ones
    assert all(line.split(",")[1] == "1" for line in lines[1:])


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "table", "--n-max", "1", "-r", "1/2", "-x", "0,1", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["r"] == "1/2"
    assert payload["rows"][0]["values"] == ["1", "1"]
    assert payload["rows"][1]["values"] == ["1", "3"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_matches_golden_bytes(capsys, fmt):
    """tests/golden/table_r7_3.* hold what the command printed for r = 7/3 at
    three x values to n = 30 when it still evaluated every entry on its own."""
    code, out, _ = run_cli(
        capsys, "table", "--n-max", "30", "-r", "7/3", "-x", "-1,1/2,-5/7", "--format", fmt
    )
    assert code == EXIT_OK
    assert out.encode() == (GOLDEN / f"table_r7_3.{fmt}").read_bytes()


@pytest.mark.parametrize("xs", ["", ",", " , ,"])
def test_table_rejects_empty_x_list(capsys, xs):
    # a table with no columns is a usage error, not a header and empty rows
    with pytest.raises(SystemExit) as exc:
        main(["table", "--n-max", "2", "-r", "1", "-x", xs])
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("xs", ["0,0", "0, 0/1", "1/2,-1,2/4"])
def test_table_rejects_repeated_x_value(capsys, xs):
    # a repeated value would print the same column twice
    with pytest.raises(SystemExit) as exc:
        main(["table", "--n-max", "2", "-r", "0", "-x", xs])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "repeats" in captured.err


def test_delannoy(capsys):
    code, out, _ = run_cli(capsys, "delannoy", "-n", "2", "-m", "2")
    assert code == EXIT_OK
    assert out == "13\n"


def test_verify_json_reports(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "square,jacobi", "--depth", "4", "--format", "json"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 2
    records = [json.loads(line) for line in lines]
    assert [r["id"] for r in records] == ["square", "jacobi"]
    assert all(r["passed"] for r in records)


def test_verify_text_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "square", "--depth", "3")
    assert code == EXIT_OK
    assert out.startswith("PASS square")


def test_verify_csv_quotes_ranges_with_commas(capsys):
    # default depths: several of these ranges contain a comma
    suite = "square,linearization,meixner,parametric-square,clausen-product"
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    _, out, _ = run_cli(capsys, "verify", "--suite", suite, "--format", "json")
    records = [json.loads(line) for line in out.splitlines()]
    assert [len(row) for row in rows] == [4] * len(records)
    assert [(row[0], row[3]) for row in rows] == [(r["id"], r["range"]) for r in records]
    assert any("," in r["range"] for r in records)


def test_verify_unknown_id(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "no-such-id")
    assert code == EXIT_USAGE
    assert "unknown identity ids" in err


@pytest.mark.parametrize("suite", ["", ",", " , "])
def test_verify_empty_suite_is_a_usage_error(capsys, suite):
    # running no verifier would print nothing and exit 0: a vacuous pass
    code, out, err = run_cli(capsys, "verify", "--suite", suite)
    assert code == EXIT_USAGE
    assert out == ""
    assert "no identity ids selected" in err


def test_verify_repeated_id_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "square,jacobi,square", "--depth", "2")
    assert code == EXIT_USAGE
    assert out == ""
    assert "repeated identity ids: square" in err


def test_verify_failure_exits_one(capsys, monkeypatch):
    from delpoly import cli
    from delpoly.reports import Mode, VerifyReport

    failing = VerifyReport(
        identity_id="square",
        mode=Mode.SYMBOLIC_POLY,
        range="n<=1",
        passed=False,
        counterexample={"instance": "n=1", "params": {"n": 1}, "lhs": 1, "rhs": 2},
    )
    monkeypatch.setattr(cli, "run_suite", lambda config: [failing])
    code, out, _ = run_cli(capsys, "verify", "--suite", "square")
    assert code == EXIT_CLAIM_FAILED
    assert out.startswith("FAIL square")
    assert "counterexample" in out


def test_verify_output_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--suite", "square", "--depth", "4", "--format", "json")
    _, out2, _ = run_cli(capsys, "verify", "--suite", "square", "--depth", "4", "--format", "json")
    assert out1 == out2


def test_scan_default_small(capsys):
    code, out, _ = run_cli(capsys, "scan", "--n-max", "5", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["violations"] == []
    assert [1, "0", "0"] in payload["zero_hits"]


def test_scan_grid_file(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("n_max=4\nr=0 x=-1/2\nr=1/4 x=0\n")
    code, out, _ = run_cli(capsys, "scan", "--grid-file", str(grid), "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["grid"]["r_values"] == ["0", "1/4"]
    assert payload["grid"]["x_values"] == ["-1/2", "0"]


@pytest.mark.parametrize("grid_text, n_max", [(None, "0"), ("n_max=4\nr=-1 x=1\nr=1 x=2\n", None)])
def test_scan_that_checks_nothing_is_a_usage_error(tmp_path, capsys, grid_text, n_max):
    argv = ["scan"]
    if grid_text is not None:
        grid = tmp_path / "grid.txt"
        grid.write_text(grid_text)
        argv += ["--grid-file", str(grid)]
    if n_max is not None:
        argv += ["--n-max", n_max]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: turan-conjecture: no (n, point) pair checked")


def test_verify_depth_zero_is_a_usage_error(capsys):
    # weighted-square-sum has no case at depth 0
    code, out, err = run_cli(capsys, "verify", "--suite", "square,weighted-square-sum", "--depth", "0")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: weighted-square-sum: no case checked")


def test_scan_violation_exits_one(capsys, monkeypatch):
    from fractions import Fraction

    from delpoly import cli
    from delpoly.reports import ScanReport

    failing = ScanReport(
        claim_id="turan-conjecture",
        grid={"r_values": [], "x_values": [], "n_max": 1},
        violations=((1, Fraction(0), Fraction(0), Fraction(-1, 2)),),
    )
    monkeypatch.setattr(cli, "scan_conjecture", lambda grid: failing)
    code, out, _ = run_cli(capsys, "scan")
    assert code == EXIT_CLAIM_FAILED
    assert out.startswith("FAIL")
    assert "violation at n=1" in out


def test_scan_into_a_closed_pipe_exits_quietly():
    # As `delpoly scan --format json | head -c 40` does once head is gone.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(delpoly.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "delpoly.cli", "scan", "--format", "json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.stderr == b""
    assert done.returncode == EXIT_BROKEN_PIPE


def test_scan_malformed_grid_file(tmp_path, capsys):
    grid = tmp_path / "bad.txt"
    grid.write_text("r=0 x=0\n")  # missing n_max header
    code, _, err = run_cli(capsys, "scan", "--grid-file", str(grid))
    assert code == EXIT_USAGE
    assert "n_max" in err


@pytest.mark.parametrize(
    "grid_text, message",
    [
        ("n_max=2\nr=0 x\n", "grid.txt:2: expected key=value, got 'x'"),
        ("n_max=2\nr=0 r=1\n", "grid.txt: grid needs at least one r= and one x= entry"),
        ("n_max=2\nr=0 x=0.5\n", "grid.txt:2: not an exact rational (use p/q form): '0.5'"),
        ("n_max=2\n\nr=1/0 x=0\n", "grid.txt:3: not an exact rational: '1/0'"),
        ("n_max=2\nbogus=1 r=0 x=0\n", "grid.txt:2: unknown key 'bogus'"),
        ("r=0 x=0\n", "grid.txt: missing n_max= header"),
    ],
    ids=[
        "token-without-equals",
        "no-x-entry",
        "decimal-x-value",
        "zero-denominator-r-value",
        "unknown-key",
        "missing-n-max-header",
    ],
)
def test_scan_rejects_malformed_grid_file_entries(tmp_path, capsys, grid_text, message):
    grid = tmp_path / "grid.txt"
    grid.write_text(grid_text)
    code, out, err = run_cli(capsys, "scan", "--grid-file", str(grid))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ")
    assert message in err


def test_scan_grid_file_with_a_byte_order_mark(tmp_path, capsys):
    # editors on some systems write one; it used to be read as part of the
    # first key, "unknown key '\ufeffn_max'"
    grid = tmp_path / "grid.txt"
    grid.write_bytes("n_max=4\nr=0 x=-1/2\nr=1/4 x=0\n".encode("utf-8-sig"))
    code, _, _ = run_cli(capsys, "scan", "--grid-file", str(grid), "--format", "json")
    assert code == EXIT_OK
    assert parse_grid_file(str(grid)) == GridSpec((Fraction(0), Fraction(1, 4)), (Fraction(-1, 2), Fraction(0)), 4)


def test_scan_reports_undecodable_grid_file_line(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_bytes(b"n_max=2\nr=0 \xff x=0\n")
    code, out, err = run_cli(capsys, "scan", "--grid-file", str(grid))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: {grid}:2: ")
    assert "can't decode byte 0xff" in err


def test_scan_rejects_repeated_n_max_header(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("n_max=2\nn_max=3\nr=0 x=0\n")
    code, out, err = run_cli(capsys, "scan", "--grid-file", str(grid))
    assert code == EXIT_USAGE
    assert out == ""
    assert "grid.txt:2: repeated n_max= header" in err


@pytest.mark.parametrize("bad", ["-1", "2.5", "True"])
def test_scan_rejects_non_natural_n_max_flag(capsys, bad):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--n-max", bad])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    if bad == "-1":
        assert "must be a natural number, got -1" in err
    else:
        assert f"is not an integer: {bad!r}" in err


@pytest.mark.parametrize("bad", ["-1", "2.5", "True"])
def test_scan_rejects_non_natural_n_max_in_grid_file(tmp_path, capsys, bad):
    grid = tmp_path / "grid.txt"
    grid.write_text(f"n_max={bad}\nr=0 x=0\n")
    code, out, err = run_cli(capsys, "scan", "--grid-file", str(grid))
    assert code == EXIT_USAGE
    assert out == ""
    if bad == "-1":
        # the same message GridSpec gives for n_max=-1
        assert "grid.txt:1: n_max must be a natural number, got -1" in err
    else:
        assert f"grid.txt:1: n_max is not an integer: {bad!r}" in err


def test_parse_grid_file_details(tmp_path):
    from fractions import Fraction

    grid = tmp_path / "grid.txt"
    grid.write_text("# comment\nn_max=7\nr=1/3 x=-1\nr=1/3 x=0\n")
    spec = parse_grid_file(str(grid))
    assert spec.n_max == 7
    assert spec.r_values == (Fraction(1, 3),)  # duplicate r collapsed
    assert spec.x_values == (Fraction(-1), Fraction(0))
    grid.write_text("n_max=3\nbogus=1\n")
    with pytest.raises(ValueError):
        parse_grid_file(str(grid))


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE
