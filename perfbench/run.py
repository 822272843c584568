#!/usr/bin/env python3
"""Run one divgraph benchmark workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload oracle-corpus --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it measures the per-layer split instead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the same
metrics by name with their units, and a stamp naming the code and inputs
measured.  The exit code is 1 if any output check failed.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # the program under test, from source

import divgraph  # noqa: E402

if not Path(divgraph.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"divgraph imported from {divgraph.__file__}, not from {ROOT / 'src'}")

import spans  # noqa: E402
import workloads  # noqa: E402
from divgraph import invariants, kernels  # noqa: E402

SETUP_REPS = 15
# Every pass runs the same steps, and other tenants of a shared machine only
# ever slow a step down.  On the 2-CPU development machine one oracle-corpus
# pass took from 1.35 s to 2.9 s, in wall and CPU time alike, and one CPU ran
# a fixed loop 30% slower than the other for minutes at a time.  So passes
# take turns on the CPUs the process may use, end-to-end figures use each
# step's fastest time over the run's passes, and per-layer figures use the
# PASSES fastest traced passes.  An end-to-end run measures at least PASSES.
PASSES = 5
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
END_TO_END = [
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]
HARNESS_LAYER = [
    ("harness.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("kernel_cases.closure_arcs.s", "s"),
    ("kernel_cases.hasse_arcs.s", "s"),
]


@dataclass
class Passes:
    """Everything measured over the passes of one phase of a run."""

    walls: list[float] = field(default_factory=list)
    latencies: list[list[float]] = field(default_factory=list)  # step latencies, per pass
    layers: list[dict] = field(default_factory=list)  # one Tracer summary per traced pass
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def run_passes(
    plan: workloads.Plan, seconds: float, tracer: Optional[spans.Tracer] = None, min_passes: int = 1
) -> Passes:
    """Run whole passes until ``seconds`` have elapsed and ``min_passes`` are done."""
    out = Passes()
    clock = time.perf_counter
    cpus = sorted(os.sched_getaffinity(0))
    start = clock()
    while len(out.walls) < min_passes or clock() - start < seconds:
        outputs, errors, latencies = {}, {}, []
        os.sched_setaffinity(0, {cpus[len(out.walls) % len(cpus)]})
        if tracer is not None:
            tracer.install()
        try:
            pass_start = clock()
            for step in plan.steps:
                t0 = clock()
                try:
                    outputs[step.key] = step.call()
                except Exception as exc:  # counted as a failed item, the run goes on
                    errors[step.key] = f"{type(exc).__name__}: {exc}"
                latencies.append(clock() - t0)
            out.walls.append(clock() - pass_start)
            out.latencies.append(latencies)
        finally:
            os.sched_setaffinity(0, cpus)
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            out.layers.append(tracer.summary())
        for step in plan.steps:
            if step.key in errors:
                continue
            try:
                problem = step.check(outputs[step.key], outputs)
            except Exception as exc:  # malformed output
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                errors[step.key] = problem
        out.attempted += len(plan.steps)
        out.failed += len(errors)
        out.errors += [f"{key}: {msg}" for key, msg in errors.items()]
    return out


def fastest(run: Passes) -> list[int]:
    """Indices of the PASSES passes with the shortest wall time."""
    return sorted(range(len(run.walls)), key=run.walls.__getitem__)[:PASSES]


def percentile(values: Sequence[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail_percentile(items: int) -> float:
    """Highest percentile with at least 10 of ``items`` samples beyond it."""
    for p in TAIL_PERCENTILES:
        if items * (100 - p) / 100 >= 10:
            return p
    return TAIL_PERCENTILES[-1]


def measure_setup(reps: int = SETUP_REPS) -> float:
    """Median wall time of a fresh interpreter importing divgraph and divgraph.cli."""
    path = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import divgraph, divgraph.cli"], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def kernel_cases(tiny: bool) -> tuple[dict[str, float], int, list[str]]:
    """Time the active kernel lane on the case list of benchmarks/bench_kernels.py.

    Returns seconds per kernel, cases run, and failures: an arc count that
    differs from the formula, or a compiled lane that differs from the pure one.
    """
    bench = workloads.load_repo_module("benchmarks/bench_kernels.py")
    sizes = {"closure_arcs": invariants.closure_size, "hasse_arcs": invariants.hasse_size}
    seconds = {name: 0.0 for name in sizes}
    failures = []
    cases = [c for c in bench.CASES if not tiny or invariants.order(c[1]) <= 600]
    for label, bounds, name in cases:
        start = time.perf_counter()
        arcs = getattr(kernels, name)(bounds)
        seconds[name] += time.perf_counter() - start
        if len(arcs) != sizes[name](bounds):
            failures.append(f"{label} {bounds}: {len(arcs)} arcs, expected {sizes[name](bounds)}")
        if bench._kernels_c is not None and getattr(bench._kernels_py, name)(bounds) != arcs:
            failures.append(f"{label} {bounds}: lane mismatch")
    return seconds, len(cases), failures


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() or None


def end_to_end(plan: workloads.Plan, seconds: float, tiny: bool) -> tuple[Passes, dict, dict]:
    setup_s = measure_setup(3 if tiny else SETUP_REPS)
    run = run_passes(plan, seconds, min_passes=PASSES)
    step_times = [min(times) for times in zip(*run.latencies)]  # fastest time of each step
    item_times = [t for t, step in zip(step_times, plan.steps) if step.item]
    tail_p = tail_percentile(len(item_times))
    values = {
        "items_per_s": len(item_times) / sum(step_times),
        "item_p50_ms": percentile(item_times, 50) * 1e3,
        "item_tail_ms": percentile(item_times, tail_p) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    notes = {
        "passes": len(run.walls),
        "pass_walls_s": [round(w, 4) for w in run.walls],
        "items_per_pass": plan.items_per_pass,
        "tail_percentile": tail_p,
        "tail_samples": len(item_times),
    }
    return run, values, notes


def per_layer(plan: workloads.Plan, seconds: float, tiny: bool) -> tuple[Passes, dict, dict]:
    """Half the time untraced, half traced; per-function figures are means
    over the fastest traced passes."""
    untraced = run_passes(plan, seconds / 2)
    traced = run_passes(plan, seconds / 2, spans.Tracer())
    chosen = fastest(traced)
    values: dict[str, float] = {}
    for name, _ in spans.metric_names():
        function, measure = name.rsplit(".", 1)
        values[name] = statistics.fmean(traced.layers[i].get(function, {}).get(measure, 0) for i in chosen)
    self_total = sum(values[name] for name, _ in spans.metric_names() if name.endswith(".self_s"))
    values["trace.wall_s"] = statistics.fmean(traced.walls[i] for i in chosen)
    values["trace.untraced_wall_s"] = statistics.fmean(untraced.walls[i] for i in fastest(untraced))
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    values["harness.self_s"] = values["trace.wall_s"] - self_total
    run = Passes(
        attempted=untraced.attempted + traced.attempted,
        failed=untraced.failed + traced.failed,
        errors=untraced.errors + traced.errors,
    )
    case_seconds = {"closure_arcs": 0.0, "hasse_arcs": 0.0}
    cases = 0
    if plan.name == "oracle-corpus":
        case_seconds, cases, failures = kernel_cases(tiny)
        run.attempted += cases
        run.failed += len(failures)
        run.errors += failures
    for name, s in case_seconds.items():
        values[f"kernel_cases.{name}.s"] = s
    notes = {"untraced_passes": len(untraced.walls), "traced_passes": len(traced.walls), "kernel_cases": cases}
    return run, values, notes


def main(argv: Optional[Sequence[str]] = None, tiny: bool = False) -> int:
    parser = argparse.ArgumentParser(description="Run one divgraph benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    plan = workloads.WORKLOADS[args.workload](args.seed, tiny)
    if args.trace:
        run, values, notes = per_layer(plan, args.seconds, tiny)
        units = dict(spans.metric_names() + HARNESS_LAYER)
    else:
        run, values, notes = end_to_end(plan, args.seconds, tiny)
        units = dict(END_TO_END)

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": kernels.active_backend(),
        "divgraph_version": divgraph.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "inputs_sha256": hashlib.sha256(json.dumps(plan.inputs).encode()).hexdigest(),
        **notes,
    }
    for error in run.errors[:20]:
        print(f"FAILED {error}"[:500], file=sys.stderr)
    print("stamp " + json.dumps(stamp))
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(f"fail_ratio = {run.failed / run.attempted:.6g} ({run.failed} of {run.attempted} attempted)")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
