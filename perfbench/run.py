"""delpoly benchmark: time the user-facing commands and check their outputs.

    python3 perfbench/run.py                      # all four workloads
    python3 perfbench/run.py --workload scan --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --trace 1            # per-layer numbers

Each workload runs in its own single-threaded worker process, one process
at a time.  Untraced runs start SETUP_SAMPLES workers in turn: each one
times its set-up (start to ready) and then a share of the ``--seconds``
budget of cold and warm iterations.  A traced run starts one worker that
alternates untraced and traced iterations.  Human-readable lines come
first; the last stdout line is the JSON result.  Exit code 0 means every
output was correct, 1 that some output was wrong, 2 that the benchmark
could not run (for instance without the ``src/`` tree next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3

# End-to-end metric -> unit; what each one measures is in README.md.
END_TO_END = {"setup_s": "s", "verdict_s": "s", "warm_verdict_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def run_worker(workload: str, seed: int, budget: float, trace: int, workdir: str) -> tuple[float, dict]:
    """Start one worker and wait for it: (seconds to ready, its result)."""
    cmd = [
        sys.executable,
        WORKER,
        "--workload", workload,
        "--seed", str(seed),
        "--budget", repr(budget),
        "--trace", str(trace),
        "--workdir", workdir,
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    if proc.returncode != 0 or first.strip() != "ready" or not lines:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    return ready, json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, workdir: str) -> dict:
    """Run one workload; returns the result fields plus a summary for humans."""
    workers = 1 if trace else SETUP_SAMPLES
    setups, setups_wall, results = [], [], []
    for _ in range(workers):
        before = calibration.calibrate()
        ready, result = run_worker(workload, seed, seconds / workers, trace, workdir)
        setups.append(calibration.scaled(ready, before, result["reference_s"][0]))
        setups_wall.append(ready)
        results.append(result)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems = list(dict.fromkeys(p for r in results for p in r["problems"]))
    walls = {}
    if trace:
        layers = results[0]["layers"]
        specs = tracing.layer_metric_specs()
        metrics = {name: {"value": layers[name], "unit": specs[name][0]} for name in specs}
        samples = {"untraced": len(results[0]["untraced"]), "traced": len(results[0]["traced"])}
    else:
        cold = [t for r in results for t in r["cold"]]
        warm = [t for r in results for t in r["warm"]]
        values = {
            "setup_s": median(setups),
            "verdict_s": median(cold),
            "warm_verdict_s": median(warm),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in results),
        }
        metrics = {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}
        samples = {"setup_s": len(setups), "verdict_s": len(cold), "warm_verdict_s": len(warm), "peak_rss_mb": len(results)}
        walls = {
            "setup_s": median(setups_wall),
            "verdict_s": median(t for r in results for t in r["cold_wall"]),
            "warm_verdict_s": median(t for r in results for t in r["warm_wall"]),
        }
    run = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "delpoly_version": results[0]["version"],
        "inputs": results[0]["inputs"],
        "processes": workers,
        "samples": samples,
        "wall_s": walls,
        "reference_s": median(m for r in results for m in r["reference_s"]),
        "error_rate": failed / attempted,
        "problems": problems[:20],
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "run": run,
    }


def report(outcome: dict) -> None:
    run = outcome["run"]
    print(
        f"workload {run['workload']}  seed {run['seed']}  delpoly {run['delpoly_version']}  "
        f"trace {run['trace']}  inputs {json.dumps(run['inputs'], sort_keys=True)}"
    )
    samples = run["samples"]
    for name, metric in outcome["metrics"].items():
        count = samples.get(name)
        note = f"median of {count}" if count is not None else ""
        if name in run["wall_s"]:
            note += f", {run['wall_s'][name]:.6g} s wall"
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']:<6} {note}")
    if run["trace"]:
        print(f"  (per-layer times in wall s, over {samples['traced']} traced samples; trace_overhead "
              f"against {samples['untraced']} untraced samples at the reference speed)")
    else:
        print(
            f"  (times in s at the reference speed, where the reference loop takes "
            f"{calibration.REFERENCE_S} s; here it took {run['reference_s']:.6g} s)"
        )
    print(
        f"  {'error_rate':<44} {run['error_rate']:>14.6g} {'':<6} "
        f"{outcome['failed']} of {outcome['attempted']} iterations failed"
    )
    for problem in run["problems"]:
        print(f"  ! {problem}")
    print(json.dumps({"run": run}, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, help="default: all, one after another")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0, help="timed seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "delpoly", "__init__.py")):
        print(f"error: no delpoly sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    workdir = os.path.join(ROOT, ".bench_build", f"perfbench-{os.getpid()}")
    os.makedirs(workdir)
    try:
        outcomes = {name: measure(name, args.seed, args.seconds, args.trace, workdir) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for outcome in outcomes.values():
        report(outcome)
    if args.workload:
        result = {key: outcomes[args.workload][key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        result = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {
                f"{name}.{metric}": value for name, o in outcomes.items() for metric, value in o["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
