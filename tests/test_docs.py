"""The README's claims against the program, and the docstrings it defers to.

The README's verify and scan blocks are the commands' text output at their
defaults, and every commented result of its CLI and library examples is
what the program prints, so a change to a range line, a mode or an example
fails here until the README says so.
"""

import inspect
import re
import shlex
import sys
from pathlib import Path

import pytest

import delpoly
from delpoly.cli import EXIT_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(anchor: str) -> str:
    """The text of the first fenced block after the line ``anchor``."""
    match = re.search(f"^{re.escape(anchor)}$" + r".*?^```[^\n]*\n(.*?)^```$", README, re.DOTALL | re.MULTILINE)
    assert match, f"README.md has no fenced block after {anchor!r}"
    return match[1]


@pytest.mark.parametrize("command", ["verify", "scan"])
def test_readme_block_is_the_command_output(capsys, command):
    code = main([command])
    assert code == EXIT_OK
    assert capsys.readouterr().out == fenced_block(f"<!-- delpoly {command} -->")


def cli_examples():
    block = fenced_block("## CLI")
    return re.findall(r"^delpoly (.+?)\s+# -> (.+)$", block, re.MULTILINE)


def test_readme_has_cli_examples():
    assert len(cli_examples()) == 4


@pytest.mark.parametrize("argv, printed", cli_examples())
def test_readme_cli_example(capsys, argv, printed):
    code = main(shlex.split(argv))
    assert code == EXIT_OK
    assert capsys.readouterr().out == printed + "\n"


def test_readme_library_example_prints_what_its_comments_say():
    source = fenced_block("## Library example")
    printed: dict[int, list[str]] = {}

    def record(*args):
        printed.setdefault(sys._getframe(1).f_lineno, []).append(" ".join(map(str, args)))

    exec(compile(source, "README.md", "exec"), {"print": record})
    comments = {
        lineno: m[1]
        for lineno, line in enumerate(source.splitlines(), 1)
        if (m := re.fullmatch(r"print\(.*\)\s+# (.+)", line))
    }
    assert len(comments) == 6
    assert {lineno: printed.get(lineno) for lineno in comments} == {lineno: [text] for lineno, text in comments.items()}
    assert len(printed) == len(comments) + 1  # and the suite's JSON lines


def public_names():
    for name in delpoly.__all__:
        obj = getattr(delpoly, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            yield name, obj
        if inspect.isclass(obj):
            for attr, value in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(value, (classmethod, staticmethod)):
                    value = value.__func__
                if inspect.isfunction(value) or isinstance(value, property):
                    yield f"{name}.{attr}", value


def test_every_public_name_has_a_docstring():
    names = dict(public_names())
    assert "BiPoly.coefficient" in names and "ScanReport.passed" in names
    assert [name for name, obj in names.items() if not (obj.__doc__ or "").strip()] == []
