"""Structured verdict records shared by the verifier and analysis modules.

Reports are data, not prose: each one serializes to a single JSON object
(one per line in CLI output) with a stable schema, so runs can be diffed;
``as_dict`` is that object read back.
"""

from __future__ import annotations

import enum
import json
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import format_rational


class Mode(enum.Enum):
    """How a verdict was established."""

    SYMBOLIC_POLY = "SymbolicPoly"
    CLEARED_DENOMINATOR = "ClearedDenominator"
    INTERPOLATION_GRID = "InterpolationGrid"
    POINT_GRID = "PointGrid"


def _rational_text(value):
    """``json.dumps`` hook: Fraction -> "p/q"."""
    if isinstance(value, Fraction):
        return format_rational(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def json_line(value) -> str:
    """``value`` as one line of JSON with sorted keys and Fractions as "p/q".

    A scan's hits repeat a few points, so each Fraction object is formatted
    once, memoized by identity: ``value`` keeps it alive for the call, and
    hashing a Fraction costs more than formatting it."""
    memo: dict[int, str] = {}

    def text(v):
        if (s := memo.get(id(v))) is None:
            s = memo[id(v)] = _rational_text(v)
        return s

    return json.dumps(value, sort_keys=True, default=text)


@dataclass(frozen=True)
class VerifyReport:
    """Exact verdict for one identity (or identity family).

    ``passed`` is False exactly when a counterexample is present.  For
    InterpolationGrid verdicts, ``degree_bound`` and ``sample_count``
    record why the grid constitutes a proof (sample_count > degree_bound).
    """

    identity_id: str
    mode: Mode
    range: str
    passed: bool
    counterexample: dict | None = None
    skipped: tuple = ()
    degree_bound: int | None = None
    sample_count: int | None = None

    def __post_init__(self):
        if self.passed != (self.counterexample is None):
            raise ValueError("passed must be False iff a counterexample is present")
        if self.mode is Mode.INTERPOLATION_GRID:
            if self.degree_bound is None or self.sample_count is None:
                raise ValueError("interpolation verdicts must record degree bound and samples")
            if self.sample_count <= self.degree_bound:
                raise ValueError("interpolation needs more samples than the degree bound")

    def as_dict(self) -> dict:
        """The report's JSON object, read back."""
        return json.loads(self.to_json_line())

    def to_json_line(self) -> str:
        """The report as one JSON line; optional keys appear only when set."""
        out = {
            "id": self.identity_id,
            "mode": self.mode.value,
            "range": self.range,
            "passed": self.passed,
            "skipped": self.skipped,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.degree_bound is not None:
            out["degree_bound"] = self.degree_bound
        if self.sample_count is not None:
            out["samples"] = self.sample_count
        return json_line(out)


class ZeroHits(Sequence):
    """A scan's zero hits, held as runs of consecutive n at one point.

    The run (first, last, point) stands for the hits (n, *point) for n from
    first to last; (None, None, hit) stands for ``hit`` alone, as each hit of
    a tuple passed to ``ScanReport`` is held.  ``len`` and ``in`` read the
    runs without expanding them; iteration, indexing and ``==`` (with a
    tuple or another ``ZeroHits``) see the hits one by one."""

    def __init__(self, runs=()):
        self.runs = tuple(runs)
        self._len = sum(1 if first is None else last - first + 1 for first, last, _ in self.runs)

    def __len__(self):
        return self._len

    def __iter__(self):
        for first, last, point in self.runs:
            if first is None:
                yield point
            else:
                yield from ((n, *point) for n in range(first, last + 1))

    def __getitem__(self, index):
        return tuple(self)[index]

    def __contains__(self, hit):
        return any(
            hit == point
            if first is None
            else isinstance(hit, tuple) and hit[1:] == point and hit[0] in range(first, last + 1)
            for first, last, point in self.runs
        )

    def __eq__(self, other):
        if not isinstance(other, (tuple, ZeroHits)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return f"ZeroHits({self.runs!r})"

    def json_items(self) -> str:
        """The hits as ``json_line`` writes a tuple of them, without the
        brackets.  Each run's point is encoded once, and its n are joined
        in blocks of 4096, so that at most 4096 strings of single n exist
        at once."""
        parts = []
        for first, last, point in self.runs:
            if first is None:
                parts.append(json_line(point))
                continue
            tail = ", " + json_line(point)[1:]  # ', "r", "x"]'
            for start in range(first, last + 1, 4096):
                parts.append("[" + f"{tail}, [".join(map(str, range(start, min(start + 4096, last + 1)))) + tail)
        return ", ".join(parts)


@dataclass(frozen=True)
class ScanReport:
    """Outcome of an exact sign scan over a rational parameter grid.

    ``violations`` are points where the claimed-positive quantity came out
    strictly negative; ``zero_hits`` are points where a strict inequality
    degenerated to exact equality, each (n, r, x), held as ``ZeroHits``
    (a tuple passed in is held hit by hit).  The two lists are disjoint by
    construction.
    """

    claim_id: str
    grid: dict
    violations: tuple = ()
    zero_hits: ZeroHits = ZeroHits()
    skipped: tuple = ()

    def __post_init__(self):
        if not isinstance(self.zero_hits, ZeroHits):
            object.__setattr__(self, "zero_hits", ZeroHits((None, None, hit) for hit in self.zero_hits))

    @property
    def passed(self) -> bool:
        """True when the scan found no violation; zero hits do not fail it."""
        return not self.violations

    def as_dict(self) -> dict:
        """The report's JSON object, read back."""
        return json.loads(self.to_json_line())

    def to_json_line(self) -> str:
        """The report as one JSON line.  ``zero_hits`` sorts after every
        other key, so its array, written from the runs, ends the line."""
        head = json_line(
            {
                "id": self.claim_id,
                "grid": self.grid,
                "passed": self.passed,
                "violations": self.violations,
                "skipped": self.skipped,
            }
        )
        return f'{head[:-1]}, "zero_hits": [{self.zero_hits.json_items()}]}}'
