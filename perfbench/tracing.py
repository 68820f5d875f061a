"""Per-layer tracing from outside the package.

Wrappers are installed around public delpoly functions for the duration of
a traced iteration and removed afterwards; nothing under ``src/`` changes.
Each wrapped call records a span (name, start, end, parent, iteration) in
memory, plus counters measured at the same boundary.  Self time and the
per-layer metrics are computed from those spans when the run ends.

Two details keep calls from slipping past uncounted:

* delpoly binds functions by name across modules (``from .exactnum import
  binom_gen``), so every attribute of every ``delpoly.*`` module that *is*
  the traced function gets the wrapper, not just the defining module's;
* BiPoly operators are wrapped as class attributes, and the aliases
  ``__radd__``/``__rmul__`` (the same function objects) are found the same
  way.
"""

from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass
from statistics import median
from typing import Callable

# (module, attribute path, span name).  The span name of a route builder is
# completed with the route, see _route_request.
TRACED = (
    ("delpoly.bipoly", "BiPoly.__mul__", "bipoly.mul"),
    ("delpoly.bipoly", "BiPoly.__add__", "bipoly.add"),
    ("delpoly.bipoly", "binom_poly", "bipoly.binom_poly"),
    ("delpoly.bipoly", "BiPoly.subst_neg_x", "bipoly.subst"),
    ("delpoly.bipoly", "BiPoly.subst_affine_x", "bipoly.subst"),
    ("delpoly.bipoly", "BiPoly.subst_affine_r", "bipoly.subst"),
    ("delpoly.bipoly", "BiPoly.subst_x_value", "bipoly.subst"),
    ("delpoly.bipoly", "BiPoly.subst_r_value", "bipoly.subst"),
    ("delpoly.bipoly", "BiPoly.eval", "bipoly.eval"),
    ("delpoly.bipoly", "BiPoly.to_text", "bipoly.to_text"),
    ("delpoly.dcore", "d_sequence", "dcore.route"),
    ("delpoly.dcore", "d_direct", "dcore.route"),
    ("delpoly.dcore", "d_newform", "dcore.route"),
    ("delpoly.dcore", "d_threeterm", "dcore.route"),
    ("delpoly.dcore", "d_twoterm", "dcore.route"),
    ("delpoly.dcore", "d_series", "dcore.route"),
    ("delpoly.dcore", "clear_caches", "dcore.clear_caches"),
    ("delpoly.dcore", "d_eval_sequence", "dcore.d_eval_sequence"),
    ("delpoly.dcore", "d_eval", "dcore.d_eval"),
    ("delpoly.dcore", "meixner_eval", "dcore.meixner_eval"),
    ("delpoly.dcore", "jacobi_eval", "dcore.jacobi_eval"),
    ("delpoly.exactnum", "binom_gen", "exactnum.binom_gen"),
    ("delpoly.exactnum", "pochhammer", "exactnum.pochhammer"),
    ("delpoly.hyper", "hyper_eval", "hyper.hyper_eval"),
    ("delpoly.hyper", "d_via_hyper", "hyper.d_via_hyper"),
    ("delpoly.hyper", "d_via_hyper_companion", "hyper.d_via_hyper"),
    ("delpoly.hyper", "clausen_product_sides", "hyper.clausen_product_sides"),
    ("delpoly.verify", "verify_square", "verify.square"),
    ("delpoly.verify", "verify_linearization", "verify.linearization"),
    ("delpoly.verify", "verify_newform_consequences", "verify.inversion"),
    ("delpoly.verify", "verify_jacobi", "verify.jacobi"),
    ("delpoly.verify", "verify_meixner", "verify.meixner"),
    ("delpoly.verify", "verify_recurrences", "verify.recurrences"),
    ("delpoly.verify", "verify_special_values", "verify.special-values"),
    ("delpoly.verify", "verify_shift_identities", "verify.shift-identities"),
    ("delpoly.verify", "verify_parametric_square", "verify.parametric-square"),
    ("delpoly.verify", "verify_weighted_square_sum", "verify.weighted-square-sum"),
    ("delpoly.verify", "verify_hyper_bridge", "verify.hyper-bridge"),
    ("delpoly.verify", "verify_clausen_product", "verify.clausen-product"),
    ("delpoly.analysis", "scan_conjecture", "analysis.scan_conjecture"),
    ("delpoly.analysis", "check_product_lower_bound", "analysis.check_product_lower_bound"),
    ("delpoly.analysis", "check_positivity", "analysis.check_positivity"),
    ("delpoly.reports", "VerifyReport.to_json_line", "reports.to_json_line"),
    ("delpoly.reports", "ScanReport.to_json_line", "reports.to_json_line"),
    ("delpoly.cli", "main", "cli"),
)

ROUTES = ("direct", "newform", "three-term", "two-term", "series")
_FIXED_ROUTE = {
    "d_direct": "direct",
    "d_newform": "newform",
    "d_threeterm": "three-term",
    "d_twoterm": "two-term",
    "d_series": "series",
}
VERIFY_IDS = tuple(name.split(".", 1)[1] for _, _, name in TRACED if name.startswith("verify."))


class Recorder:
    """Spans and counters of a traced run, kept in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.outer = array("b")  # 1 unless an enclosing span has the same name
        self.iteration = array("i")
        self.counters: list[dict[str, int]] = []
        self._stack: list[int] = []
        self._depth: dict[int, int] = {}
        self._route_high: dict[str, int] = {}

    # -- recording ---------------------------------------------------------

    def begin_iteration(self) -> None:
        self.counters.append({})
        self._route_high.clear()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        depth = self._depth.get(name_id, 0)
        self._depth[name_id] = depth + 1
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outer.append(depth == 0)
        self.iteration.append(len(self.counters) - 1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[self.name[idx]] -= 1

    def count(self, key: str, amount: int) -> None:
        counters = self.counters[-1]
        counters[key] = counters.get(key, 0) + amount

    def route_request(self, route: str, n: int) -> None:
        """Account one request for d_0..d_n of a route against the prefix
        the route cache already holds (tracked here, not read from delpoly)."""
        high = self._route_high.get(route, -1)
        requested = n + 1
        reused = min(requested, high + 1)
        self.count("dcore.cache.requested", requested)
        self.count("dcore.cache.polys_built", requested - reused)
        self._route_high[route] = max(high, n)

    def caches_cleared(self) -> None:
        self._route_high.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        covered = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - covered[i] for i in range(len(self.start))]

    def per_iteration(self) -> list[dict[str, float]]:
        """One dict per iteration: ``<span>.calls``, ``<span>.s`` (outermost
        spans of that name only) and ``<span>.self_s``, plus its counters."""
        self_s = self.self_times()
        out = [dict(c) for c in self.counters]
        for i in range(len(self.start)):
            row = out[self.iteration[i]]
            name = self.names[self.name[i]]
            row[name + ".calls"] = row.get(name + ".calls", 0) + 1
            row[name + ".self_s"] = row.get(name + ".self_s", 0.0) + self_s[i]
            if self.outer[i]:
                row[name + ".s"] = row.get(name + ".s", 0.0) + (self.end[i] - self.start[i])
        return out


def _route_request(attr: str, args, kwargs) -> tuple[str, int]:
    """(route name, highest n requested) of one call to a route builder."""
    if attr in _FIXED_ROUTE:
        return _FIXED_ROUTE[attr], args[0] if args else next(iter(kwargs.values()))
    route = args[0] if args else kwargs["route"]
    n = args[1] if len(args) > 1 else kwargs["n_max"]
    return getattr(route, "value", str(route)), n


def _term_count(p) -> int:
    coeffs = getattr(p, "_coeffs", None)
    return len(coeffs) if coeffs is not None else sum(1 for _ in p.terms())


def make_wrapper(rec: Recorder, fn: Callable, attr: str, name: str) -> Callable:
    """A wrapper that records one span per call of ``fn``."""
    open_, close = rec.open, rec.close
    if name == "dcore.route":
        ids = {route: rec.name_id(f"dcore.route.{route}") for route in ROUTES}

        def wrapper(*args, **kwargs):
            route, n = _route_request(attr, args, kwargs)
            rec.route_request(route, n)
            idx = open_(ids[route])
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

    elif name == "dcore.clear_caches":

        def wrapper(*args, **kwargs):
            rec.caches_cleared()
            return fn(*args, **kwargs)

    else:
        name_id = rec.name_id(name)
        if name == "bipoly.mul":

            def count(args, kwargs):
                a, b = args
                rec.count("bipoly.mul.term_pairs", _term_count(a) * (_term_count(b) if hasattr(b, "terms") else 1))

        elif name == "dcore.d_eval_sequence":

            def count(args, kwargs):
                rec.count("dcore.d_eval_sequence.steps", args[0] if args else kwargs["n_max"])

        else:
            count = None

        def wrapper(*args, **kwargs):
            if count is not None:
                count(args, kwargs)
            idx = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

    wrapper.__name__ = getattr(fn, "__name__", attr)
    wrapper.__qualname__ = getattr(fn, "__qualname__", attr)
    wrapper.__wrapped__ = fn
    return wrapper


@dataclass
class Site:
    """One place a traced function is bound: ``owner.attr``."""

    owner: object
    attr: str
    original: Callable


def _resolve(module_name: str, path: str):
    obj = sys.modules[module_name]
    *owners, attr = path.split(".")
    for part in owners:
        obj = getattr(obj, part)
    return vars(obj)[attr], attr


def binding_sites() -> dict[tuple[str, str], list[Site]]:
    """Every attribute of a delpoly module or class that is a traced function."""
    namespaces = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "delpoly" or mod_name.startswith("delpoly."):
            namespaces.append(module)
            namespaces.extend(v for v in vars(module).values() if isinstance(v, type) and v.__module__ == mod_name)
    sites = {}
    for module_name, path, _ in TRACED:
        fn, _ = _resolve(module_name, path)
        found = []
        for owner in namespaces:
            for attr, value in list(vars(owner).items()):
                if value is fn:
                    found.append(Site(owner, attr, fn))
        sites[(module_name, path)] = found
    return sites


class Tracer:
    """Installs and removes the wrappers around one Recorder."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.sites = binding_sites()
        self.wrappers = {}
        for module_name, path, name in TRACED:
            fn, attr = _resolve(module_name, path)
            self.wrappers[(module_name, path)] = make_wrapper(recorder, fn, attr, name)

    def install(self) -> None:
        for key, sites in self.sites.items():
            for site in sites:
                setattr(site.owner, site.attr, self.wrappers[key])

    def restore(self) -> None:
        for sites in self.sites.values():
            for site in sites:
                setattr(site.owner, site.attr, site.original)


# ---------------------------------------------------------------------------
# Per-layer metrics: name -> (unit, better).  Computed per traced iteration,
# reported as the median over iterations.
# ---------------------------------------------------------------------------


def layer_metric_specs() -> dict[str, tuple[str, str]]:
    specs: dict[str, tuple[str, str]] = {}

    def add(name, unit="s", better="lower"):
        specs[name] = (unit, better)

    add("bipoly.mul.calls", "count")
    add("bipoly.mul.self_s")
    add("bipoly.mul.term_pairs", "count")
    add("bipoly.add.calls", "count")
    add("bipoly.add.self_s")
    for op in ("binom_poly", "subst", "eval"):
        add(f"bipoly.{op}.calls", "count")
        add(f"bipoly.{op}.s")
    add("bipoly.to_text.s")
    for route in ROUTES:
        add(f"dcore.route.{route}.s")
    add("dcore.cache.polys_built", "count")
    add("dcore.cache.hit_ratio", "ratio", "higher")
    add("dcore.d_eval_sequence.calls", "count")
    add("dcore.d_eval_sequence.self_s")
    add("dcore.d_eval_sequence.steps", "count")
    add("dcore.d_eval.calls", "count")
    add("dcore.d_eval.s")
    add("dcore.meixner_eval.calls", "count")
    add("dcore.meixner_eval.self_s")
    add("dcore.jacobi_eval.calls", "count")
    add("dcore.jacobi_eval.s")
    for fn in ("binom_gen", "pochhammer"):
        add(f"exactnum.{fn}.calls", "count")
        add(f"exactnum.{fn}.self_s")
    add("hyper.hyper_eval.calls", "count")
    add("hyper.hyper_eval.self_s")
    for fn in ("d_via_hyper", "clausen_product_sides"):
        add(f"hyper.{fn}.calls", "count")
        add(f"hyper.{fn}.s")
    for ident in VERIFY_IDS:
        add(f"verify.{ident}.s")
        add(f"verify.{ident}.self_s")
    for fn in ("scan_conjecture", "check_product_lower_bound", "check_positivity"):
        add(f"analysis.{fn}.s")
        add(f"analysis.{fn}.self_s")
    add("reports.to_json_line.calls", "count")
    add("reports.to_json_line.s")
    add("cli.self_s")
    add("trace_overhead", "ratio")
    return specs


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Median over traced iterations of every per-layer metric except
    ``trace_overhead`` (which needs the untraced timings)."""
    rows = recorder.per_iteration()
    for row in rows:
        requested = row.get("dcore.cache.requested", 0)
        built = row.get("dcore.cache.polys_built", 0)
        row["dcore.cache.hit_ratio"] = (requested - built) / requested if requested else 0.0
    out = {}
    for name in layer_metric_specs():
        if name != "trace_overhead":
            out[name] = median(row.get(name, 0) for row in rows) if rows else 0.0
    return out
