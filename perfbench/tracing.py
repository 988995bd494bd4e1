"""Spans around crowdflow's layer boundaries, recorded from outside the package.

The solver's modules call each other through module globals
(``simulator.run`` calls ``step``, which calls ``assemble_nonlocal``, ...),
so replacing those globals with timing wrappers records every call without
touching the package.  Spans stay in memory until the run ends.

A span's layer is the part of its name before the first dot; the roots the
benchmark opens itself (``bench.setup``, ``bench.solve``) belong to no
layer.  A layer's self time is its spans' durations minus the parts their
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

LAYERS = ("geometry", "kernels", "averaging", "models", "transport", "simulator", "output")

SETUP, SOLVE = "bench.setup", "bench.solve"

# Units of the per-layer metrics.  Set-up figures are per init_scenario,
# solve figures per time step advanced unless the unit says per solve.
UNITS = {
    "geometry.build_grid_s": "s",
    "models.grid_distance_s": "s",
    "models.grid_distance_calls": "count",
    "models.build_desired_field_s": "s",
    "kernels.build_stencil_s": "s",
    "kernels.stencil_offsets": "count",
    "averaging.normalizer_s": "s",
    "averaging.assemble_ms": "ms",
    "averaging.stencil_apply_ms": "ms",
    "averaging.stencil_apply_calls": "count",
    "averaging.channels_evaluated": "count",
    "averaging.channels_distinct": "count",
    "averaging.distinct_ratio": "ratio",
    "averaging.offset_passes": "count",
    "averaging.flops_computed": "flop",
    "averaging.bytes_computed": "B",
    "models.velocity_ms": "ms",
    "transport.cfl_ms": "ms",
    "transport.lf_step_ms": "ms",
    "transport.diagnostics_ms": "ms",
    "transport.exact_solution_s": "s/solve",
    "output.snapshot_ms": "ms",
    "output.series_ms": "ms",
    "output.bytes_written": "B/solve",
    "simulator.steps": "count/solve",
    "simulator.step_ms.p50": "ms",
    "simulator.step_ms.tail": "ms",
    "simulator.step_ms.tail_pct": "percentile",
    "simulator.loop_self_ms": "ms",
    "simulator.picard_sweeps": "count/solve",
    "simulator.picard_distance_last": "L1",
    **{f"{layer}.{phase}_self_pct": "%" for phase in ("setup", "solve") for layer in LAYERS},
    "trace.overhead_pct": "%",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "counts")

    def __init__(self, name: str, start: float, parent: int, run: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.counts: dict[str, float] | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one run id per workload cycle."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter() - self._origin, parent, self.run))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter() - self._origin
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn: Callable, name: str, count: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                self.spans[index].counts = count(result, *args, **kwargs)
            return result

        return traced

    def dump(self, path: Path, header: dict) -> None:
        spans = [
            [s.name, s.start, s.end, s.parent, s.run, s.counts] for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start_s", "end_s", "parent", "run", "counts"]
        path.write_text(json.dumps({**header, "span_fields": fields, "spans": spans}))


# ---------------------------------------------------------------------------
# counts taken at the boundaries (outside the timed span)


def _stencil_apply_counts(result, values, offsets, coefficient_sets) -> dict[str, float]:
    """Shifted multiply-adds the direct stencil sum performs, from array sizes.

    Each pass over one offset and one coefficient set reads the shifted
    source and reads and writes the output over the overlap: 2 flops and
    24 bytes per cell, temporaries not counted.
    """
    nx, ny = np.shape(values)
    off = np.asarray(offsets)
    overlap = np.maximum(nx - np.abs(off[:, 0]), 0) * np.maximum(ny - np.abs(off[:, 1]), 0)
    passes = 0
    cells = 0
    for coeffs in coefficient_sets:
        used = (np.asarray(coeffs) != 0.0) & (overlap > 0)
        passes += int(np.count_nonzero(used))
        cells += int(np.sum(overlap[used]))
    return {"offset_passes": passes, "flops": 2 * cells, "bytes": 24 * cells}


def _assemble_counts(result, rho_all, coupling) -> dict[str, float]:
    keys = {(c.kind, tuple(c.sources), id(c.averager)) for c in coupling}
    return {"channels": len(coupling), "distinct": len(keys)}


def _stencil_counts(result, *args, **kwargs) -> dict[str, float]:
    return {"offsets": len(result.offsets)}


def _picard_counts(result, *args, **kwargs) -> dict[str, float]:
    return {"sweeps": result.iterations, "distance_last": result.distances[-1]}


def _file_bytes(result, *args, **kwargs) -> dict[str, float]:
    paths = result if isinstance(result, tuple) else (result,)
    return {"bytes": sum(Path(p).stat().st_size for p in paths)}


# (module, attribute, span name, counter).  The package-level entries are the
# public API the benchmark calls; the rest are the names the solver's own
# modules look up at call time.
TARGETS = (
    ("crowdflow", "init_scenario", "simulator.init_scenario", None),
    ("crowdflow", "run", "simulator.run", None),
    ("crowdflow", "picard_solve", "simulator.picard_solve", _picard_counts),
    ("crowdflow", "exact_solution", "transport.exact_solution", None),
    ("crowdflow.simulator", "init_scenario", "simulator.init_scenario", None),
    ("crowdflow.simulator", "step", "simulator.step", None),
    ("crowdflow.simulator", "build_grid", "geometry.build_grid", None),
    ("crowdflow.simulator", "build_desired_field", "models.build_desired_field", None),
    ("crowdflow.models", "grid_distance", "models.grid_distance", None),
    ("crowdflow.simulator", "build_stencil", "kernels.build_stencil", _stencil_counts),
    ("crowdflow.averaging", "compute_z", "averaging.normalizer", None),
    ("crowdflow.averaging", "compute_z_gradient", "averaging.normalizer", None),
    ("crowdflow.simulator", "assemble_nonlocal", "averaging.assemble", _assemble_counts),
    ("crowdflow.averaging", "stencil_apply", "averaging.stencil_apply", _stencil_apply_counts),
    ("crowdflow.simulator", "eval_velocity_evacuation", "models.velocity", None),
    ("crowdflow.simulator", "eval_velocity_two_population", "models.velocity", None),
    ("crowdflow.simulator", "cfl_dt", "transport.cfl", None),
    ("crowdflow.simulator", "lf_step_detailed", "transport.lf_step", None),
    ("crowdflow.simulator", "discrete_diagnostics", "transport.diagnostics", None),
    ("crowdflow.simulator", "write_snapshot", "output.snapshot", _file_bytes),
    ("crowdflow.simulator", "write_series", "output.series", _file_bytes),
)


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[list[str]]:
    """Wrap every target for the duration; yields the targets not found."""
    saved: list[tuple[Any, str, Any]] = []
    missing: list[str] = []
    try:
        for module_name, attr, name, count in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(fn, name, count))
        yield missing
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans


def _tail(samples: list[float]) -> tuple[float, float]:
    """Highest whole percentile with at least ten samples beyond it, and its value.

    Falls back to the median when there are too few samples for any tail.
    """
    n = len(samples)
    pct = max(50, (100 * (n - 10)) // n) if n else 50
    if not samples:
        return 0.0, float(pct)
    return float(np.percentile(samples, pct)), float(pct)


def _tree(spans: list[Span]) -> tuple[list[str], list[float]]:
    """Each span's phase (its root's name) and its self time."""
    phase: list[str] = []
    self_time = [s.duration for s in spans]
    for s in spans:  # a parent is always recorded before its children
        phase.append(s.name if s.parent < 0 else phase[s.parent])
        if s.parent >= 0:
            self_time[s.parent] -= s.duration
    return phase, self_time


def layer_metrics(spans: list[Span], steps: int, solves: int, setups: int) -> dict[str, float]:
    """Per-layer figures over every traced cycle.

    Solve figures are per time step advanced (``steps`` in total over
    ``solves`` solves), set-up figures per ``init_scenario`` the benchmark
    timed; spans are attributed to the phase of their root span.
    """
    phase, self_time = _tree(spans)

    def total(name: str, where: str, key: str | None = None) -> float:
        return sum(
            (s.counts or {}).get(key, 0.0) if key else s.duration
            for i, s in enumerate(spans)
            if s.name == name and phase[i] == where
        )

    def calls(name: str, where: str) -> int:
        return sum(1 for i, s in enumerate(spans) if s.name == name and phase[i] == where)

    per_step = 1.0 / max(steps, 1)
    per_setup = 1.0 / max(setups, 1)
    per_solve = 1.0 / max(solves, 1)
    channels = total("averaging.assemble", SOLVE, "channels")
    distinct = total("averaging.assemble", SOLVE, "distinct")
    step_ms = [1e3 * s.duration for i, s in enumerate(spans)
               if s.name == "simulator.step" and phase[i] == SOLVE]
    tail_ms, tail_pct = _tail(step_ms)
    last = [s.counts["distance_last"] for i, s in enumerate(spans)
            if s.name == "simulator.picard_solve" and phase[i] == SOLVE]
    loop_self = sum(
        self_time[i]
        for i, s in enumerate(spans)
        if s.name in ("simulator.run", "simulator.picard_solve") and phase[i] == SOLVE
    )
    out = {
        "geometry.build_grid_s": total("geometry.build_grid", SETUP) * per_setup,
        "models.grid_distance_s": total("models.grid_distance", SETUP) * per_setup,
        "models.grid_distance_calls": calls("models.grid_distance", SETUP) * per_setup,
        "models.build_desired_field_s": total("models.build_desired_field", SETUP) * per_setup,
        "kernels.build_stencil_s": total("kernels.build_stencil", SETUP) * per_setup,
        "kernels.stencil_offsets": total("kernels.build_stencil", SETUP, "offsets") * per_setup,
        "averaging.normalizer_s": total("averaging.normalizer", SETUP) * per_setup,
        "averaging.assemble_ms": 1e3 * total("averaging.assemble", SOLVE) * per_step,
        "averaging.stencil_apply_ms": 1e3 * total("averaging.stencil_apply", SOLVE) * per_step,
        "averaging.stencil_apply_calls": calls("averaging.stencil_apply", SOLVE) * per_step,
        "averaging.channels_evaluated": channels * per_step,
        "averaging.channels_distinct": distinct * per_step,
        "averaging.distinct_ratio": distinct / channels if channels else 0.0,
        "averaging.offset_passes": total("averaging.stencil_apply", SOLVE, "offset_passes") * per_step,
        "averaging.flops_computed": total("averaging.stencil_apply", SOLVE, "flops") * per_step,
        "averaging.bytes_computed": total("averaging.stencil_apply", SOLVE, "bytes") * per_step,
        "models.velocity_ms": 1e3 * total("models.velocity", SOLVE) * per_step,
        "transport.cfl_ms": 1e3 * total("transport.cfl", SOLVE) * per_step,
        "transport.lf_step_ms": 1e3 * total("transport.lf_step", SOLVE) * per_step,
        "transport.diagnostics_ms": 1e3 * total("transport.diagnostics", SOLVE) * per_step,
        "transport.exact_solution_s": total("transport.exact_solution", SOLVE) * per_solve,
        "output.snapshot_ms": 1e3 * total("output.snapshot", SOLVE) * per_step,
        "output.series_ms": 1e3 * total("output.series", SOLVE) * per_step,
        "output.bytes_written": (
            total("output.snapshot", SOLVE, "bytes") + total("output.series", SOLVE, "bytes")
        ) * per_solve,
        "simulator.steps": steps * per_solve,
        "simulator.step_ms.p50": statistics.median(step_ms) if step_ms else 0.0,
        "simulator.step_ms.tail": tail_ms,
        "simulator.step_ms.tail_pct": tail_pct,
        "simulator.loop_self_ms": 1e3 * loop_self * per_step,
        "simulator.picard_sweeps": total("simulator.picard_solve", SOLVE, "sweeps") * per_solve,
        "simulator.picard_distance_last": statistics.median(last) if last else 0.0,
    }
    for where, label in ((SETUP, "setup"), (SOLVE, "solve")):
        wall = sum(s.duration for s in spans if s.name == where)
        for layer in LAYERS:
            own = sum(
                self_time[i]
                for i, s in enumerate(spans)
                if phase[i] == where and s.name.split(".", 1)[0] == layer
            )
            out[f"{layer}.{label}_self_pct"] = 100.0 * own / wall if wall else 0.0
    return out


def self_time_table(spans: list[Span], root: str) -> list[tuple[str, float, int]]:
    """(span name, total self seconds, calls) under one phase, largest first."""
    phase, self_time = _tree(spans)
    rows: dict[str, list[float]] = {}
    for i, s in enumerate(spans):
        if phase[i] == root:
            row = rows.setdefault(s.name, [0.0, 0])
            row[0] += self_time[i]
            row[1] += 1
    return sorted(((k, v[0], int(v[1])) for k, v in rows.items()), key=lambda r: -r[1])
