"""Structured verdict records shared by the verifier and analysis modules.

Reports are data, not prose: each one serializes to a single JSON object
(one per line in CLI output) with a stable schema, so runs can be diffed;
``as_dict`` is that object read back.
"""

from __future__ import annotations

import enum
import json
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
        return json.loads(self.to_json_line())

    def to_json_line(self) -> str:
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


@dataclass(frozen=True)
class ScanReport:
    """Outcome of an exact sign scan over a rational parameter grid.

    ``violations`` are points where the claimed-positive quantity came out
    strictly negative; ``zero_hits`` are points where a strict inequality
    degenerated to exact equality.  The two lists are disjoint by
    construction.
    """

    claim_id: str
    grid: dict
    violations: tuple = ()
    zero_hits: tuple = ()
    skipped: tuple = ()

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return json.loads(self.to_json_line())

    def to_json_line(self) -> str:
        return json_line(
            {
                "id": self.claim_id,
                "grid": self.grid,
                "passed": self.passed,
                "violations": self.violations,
                "zero_hits": self.zero_hits,
                "skipped": self.skipped,
            }
        )
