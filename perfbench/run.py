"""crowdflow benchmark: set-up and solve times of four solver workloads.

Run from the repository root:

    python3 perfbench/run.py --workload room-fine --seed 1 --seconds 10 --trace 0

The load is a closed loop in one process on one thread (the BLAS/OpenMP
thread counts are pinned to 1): each cycle builds the scenario with
``init_scenario`` (timed as set-up), solves it (timed as the solve), then
checks the answer untimed.  Set-ups shorter than MIN_SETUP_S repeat within
a cycle, each one a sample.  One warm-up cycle runs first, untimed; cycles
then repeat until ``--seconds`` have passed and the medians are reported.
The seed makes the workload's initial data (see workloads.py); seed 0
reproduces the presets.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
plain and traced cycles: the traced ones wrap crowdflow's layer boundaries
(see tracing.py) and give the per-layer metrics, the plain ones the
tracing overhead.  Spans are written to perfbench/out/ at the end.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` (correctness checks, including solves that raised) and
``metrics``; the lines before it give the environment and the samples.  ``--size tiny`` shrinks every
workload for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SETUP_S = 0.1
LOAD = "closed loop, one process, one thread, cycles back to back"
E2E_UNITS = {"setup_s": "s", "solve_s": "s", "cell_steps_per_s": "1/s", "peak_rss_mb": "MB"}


class Sample(NamedTuple):
    """One cycle's timings: every set-up, the solve, and the work it did."""

    setup_s: list[float]
    solve_s: float
    cell_steps: int  # interior cells x populations x time steps advanced
    steps: int


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    return args


def git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # numpy sizes its thread pools when it is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "crowdflow" / "__init__.py").is_file():
        print(f"no crowdflow sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import numpy
    import crowdflow
    import tracing
    import workloads

    if not Path(crowdflow.__file__).resolve().is_relative_to(src):
        print(f"crowdflow imported from {crowdflow.__file__}, not {src}", file=sys.stderr)
        return 2
    make_case = workloads.WORKLOADS.get(args.workload)
    if make_case is None:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    checks = workloads.Checks()
    try:
        case = make_case(args.seed, args.size == "tiny", work_dir)

        def cycle(tracer: tracing.Tracer | None = None):
            """Set up and solve once; returns (Sample or None on failure, scenario)."""
            phase = tracer.span if tracer else lambda name: nullcontext()
            setup_s: list[float] = []
            with phase(tracing.SETUP):
                while sum(setup_s) < MIN_SETUP_S:
                    t0 = time.perf_counter()
                    scenario = crowdflow.init_scenario(case.config)
                    setup_s.append(time.perf_counter() - t0)
            try:
                with phase(tracing.SOLVE):
                    t0 = time.perf_counter()
                    answer = case.solve(scenario)
                    solve_s = time.perf_counter() - t0
            except (crowdflow.NanAbortError, ValueError) as exc:
                # a NaN abort or a CFL violation
                checks.expect(False, f"solve failed: {type(exc).__name__}: {exc}")
                return None, scenario
            steps = case.check(scenario, answer, checks)
            cells = scenario.mask.interior_count * len(scenario.initial)
            return Sample(setup_s, solve_s, cells * steps, steps), scenario

        _, scenario = cycle()  # warm-up
        env = {
            "workload": args.workload,
            "seed": args.seed,
            "size": args.size,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_revision": git_revision(),
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "load": LOAD,
            "mesh": case.mesh,
            "grid": list(scenario.grid.shape),
            "interior_cells": scenario.mask.interior_count,
            "populations": len(scenario.initial),
        }
        print("env " + json.dumps(env), flush=True)

        plain: list[Sample] = []
        traced: list[Sample] = []
        tracer = tracing.Tracer()
        missing: list[str] = []
        deadline = time.perf_counter() + args.seconds
        while True:
            sample, _ = cycle()
            if sample:
                plain.append(sample)
            if args.trace:
                tracer.run += 1
                with tracing.instrumented(tracer) as missing:
                    sample, _ = cycle(tracer)
                if sample:
                    traced.append(sample)
            if time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for message, times in Counter(checks.failures).items():
        print(f"check failed ({times}x): {message}", file=sys.stderr)
    if not plain or (args.trace and not traced):
        print("no cycle completed", file=sys.stderr)
        return 1

    if args.trace:
        values = tracing.layer_metrics(
            tracer.spans,
            steps=sum(s.steps for s in traced),
            solves=len(traced),
            setups=sum(len(s.setup_s) for s in traced),
        )
        plain_solve = statistics.median(s.solve_s for s in plain)
        traced_solve = statistics.median(s.solve_s for s in traced)
        values["trace.overhead_pct"] = 100.0 * (traced_solve / plain_solve - 1.0)
        units = tracing.UNITS
        for root in (tracing.SETUP, tracing.SOLVE):
            print(f"self time under {root} over {len(traced)} traced cycles:")
            for name, seconds, calls in tracing.self_time_table(tracer.spans, root):
                print(f"  {name:32s} {seconds:10.4f} s  {calls:7d} calls")
        if missing:
            print(f"not wrapped (absent): {', '.join(missing)}")
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path, {"env": env})
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        setups = [t for s in plain for t in s.setup_s]
        solves = [s.solve_s for s in plain]
        values = {
            "setup_s": statistics.median(setups),
            "solve_s": statistics.median(solves),
            "cell_steps_per_s": statistics.median(s.cell_steps / s.solve_s for s in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
        for name, xs in (("setup_s", setups), ("solve_s", solves)):
            print(f"{name}: median {statistics.median(xs):.6g} s, "
                  f"min {min(xs):.6g}, max {max(xs):.6g}, n={len(xs)}")

    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
