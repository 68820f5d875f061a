"""One workload in one single-threaded process (started by run.py).

The worker imports delpoly from the checkout's ``src/``, generates the
seeded inputs, runs one untimed warm-up iteration and then prints
``ready`` -- the parent times set-up up to that line.  It then checks the
warm-up output independently and runs timed iterations until its budget is
spent:

* untraced: pairs of a cold iteration (after ``dcore.clear_caches()``) and
  a warm one repeated at once without clearing;
* traced: pairs of an untraced and a traced cold iteration, so that
  ``trace_overhead`` compares timings taken side by side.

Every sample is bracketed by runs of the reference loop, and reported both
as wall seconds and scaled to the reference speed (see calibration.py).

Every iteration's exit codes and output bytes are compared with the
reference.  The last stdout line is a JSON object with the samples.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback
from statistics import median
from types import SimpleNamespace

import calibration
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MIN_SAMPLE_S = 0.5


def load_delpoly() -> SimpleNamespace:
    """Import delpoly from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, SRC)
    import delpoly
    from delpoly import analysis, cli, dcore

    if not os.path.abspath(delpoly.__file__).startswith(SRC + os.sep):
        raise ImportError(f"delpoly was imported from {delpoly.__file__}, not from {SRC}")
    return SimpleNamespace(delpoly=delpoly, analysis=analysis, cli=cli, dcore=dcore)


class Runner:
    """Runs and checks iterations of one prepared workload."""

    def __init__(self, modules, prepared: workloads.Prepared, tracer: tracing.Tracer | None = None):
        self.modules = modules
        self.prepared = prepared
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def iteration(self, cold: bool, traced: bool = False) -> float:
        """Wall seconds of one iteration; its result is checked untimed."""
        if cold:
            self.modules.dcore.clear_caches()
        gc.collect()
        self.attempted += 1
        if traced:
            self.tracer.recorder.begin_iteration()
            self.tracer.install()
        start = time.perf_counter()
        try:
            codes, outputs = self.prepared.run()
        except Exception:  # a crashing command is a failed iteration, not a crashed benchmark
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            self.fail(["an iteration raised an exception"])
            return elapsed
        finally:
            if traced:
                self.tracer.restore()
        elapsed = time.perf_counter() - start
        self.fail(self.prepared.mismatches(codes, outputs))
        return elapsed

    def sample(self, cold: bool, traced: bool = False) -> float:
        """Mean wall seconds per iteration over back-to-back iterations that
        last at least MIN_SAMPLE_S together.  On a shared virtual machine the
        CPU speed can flip between two levels (1.7x apart on a 2-vCPU Xeon
        VM) every few tenths of a second, so one short iteration would catch
        one level or the other."""
        total, count = 0.0, 0
        while total < MIN_SAMPLE_S or not count:
            total += self.iteration(cold, traced)
            count += 1
        return total / count

    def fail(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(p for p in problems if p not in self.problems)


def rounds(budget: float):
    """Yield once per round until another round as long as the last one
    would overrun ``budget`` seconds; always at least one round."""
    deadline = time.perf_counter() + budget
    start = time.perf_counter()
    while True:
        yield
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return
        start = now


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True, help="seconds of timed iterations")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    modules = load_delpoly()
    prepared = workloads.prepare(args.workload, modules, args.seed, args.workdir)
    runner = Runner(modules, prepared, tracing.Tracer(tracing.Recorder()) if args.trace else None)
    runner.attempted += 1
    try:
        codes, outputs = prepared.run()  # the warm-up iteration
    except Exception:
        traceback.print_exc()
        codes, outputs = None, None
    print("ready", flush=True)

    if outputs is None:
        independent = ["the warm-up iteration raised an exception"]
    else:
        try:
            independent = prepared.check(outputs)
        except Exception:  # malformed output can break the checker itself
            traceback.print_exc()
            independent = ["the independent check could not read the output"]
        prepared.pin(outputs)
        independent = prepared.mismatches(codes, outputs) + independent
    runner.fail(independent)

    result = {"inputs": prepared.inputs, "version": modules.delpoly.__version__}
    if args.trace:
        kinds = (("untraced", True, False), ("traced", True, True))
    else:
        kinds = (("cold", True, False), ("warm", False, False))
    marks = [calibration.calibrate()]
    samples: dict[str, list[tuple[float, float]]] = {kind: [] for kind, _, _ in kinds}
    for _ in rounds(args.budget):
        for kind, cold, traced in kinds:
            wall = runner.sample(cold, traced)
            marks.append(calibration.calibrate())
            samples[kind].append((wall, calibration.scaled(wall, marks[-2], marks[-1])))
    for kind, pairs in samples.items():
        result[kind] = [s for _, s in pairs]
        result[kind + "_wall"] = [w for w, _ in pairs]
    result["reference_s"] = marks
    if args.trace:
        layers = tracing.layer_metrics(runner.tracer.recorder)
        layers["trace_overhead"] = median(result["traced"]) / median(result["untraced"])
        result["layers"] = layers

    if independent:  # the reference itself is wrong, so every iteration was
        runner.failed = runner.attempted
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
