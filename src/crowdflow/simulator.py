"""Coupled time stepping for the crowd scenarios.

A crowd scenario has one or more populations.  Each population config
names its averaging supports (``kernels.l1`` for the speed, ``kernels.l2``
per population for avoidance) and one avoidance weight per population.
The scenario build turns these into channels on each population's model
and shares one averager per support, so a channel two populations read is
one channel, evaluated once per step.

Each step freezes the non-local couplings at the current densities:
evaluate the distinct averaged channels, turn them into one velocity field
per population, pick one shared CFL step and advance every population with
the conservative scheme.  :func:`picard_solve` instead repeats whole windows,
freezing the couplings at the *previous* sweep's trajectory, which turns
each sweep into a sequence of linear problems; its fixed point is exactly
the per-step coupled evolution, so the iterate distances measure how
strongly the coupling feeds back over the window.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .averaging import Channel, DomainAverager, KernelSpectra, assemble_nonlocal
from .config import RunConfig, _number
from .errors import ConfigError, NanAbortError
from .fields import ScalarField, VectorField
from .geometry import CellMask, Domain, Grid, build_grid
from .kernels import build_stencil, make_quartic_kernel
from .models import (
    ModelSpec,
    PopulationModel,
    SpeedLaw,
    build_desired_field,
    eval_velocities,
    wall_discomfort,
)
from .output import write_series, write_snapshot
from .transport import (
    ContractionVelocity,
    LinearProblem,
    RotationVelocity,
    TransportBuffers,
    cfl_dt,
    discrete_diagnostics,
    lf_step_detailed,
)

__all__ = [
    "SimState",
    "Scenario",
    "StepRecord",
    "DiagnosticsRecord",
    "RunResult",
    "PicardResult",
    "StepBuffers",
    "init_scenario",
    "step",
    "run",
    "picard_solve",
]


@dataclass
class SimState:
    t: float
    step_index: int
    densities: list[ScalarField]


@dataclass
class Scenario:
    """A ready-to-run problem: geometry, model and initial state.

    A crowd scenario carries ``model``, a linear reference problem
    ``linear``; exactly one of the two is set.
    """

    domain: Domain
    grid: Grid
    mask: CellMask
    initial: list[ScalarField]
    numerics: dict
    output: dict
    model: ModelSpec | None = None
    linear: LinearProblem | None = None

    def initial_state(self) -> SimState:
        return SimState(t=0.0, step_index=0, densities=[d.copy() for d in self.initial])


@dataclass
class StepRecord:
    dt: float
    exit_outflux: tuple[float, ...]


@dataclass
class DiagnosticsRecord:
    """Per-population diagnostics at one time, with cumulative boundary flows."""

    t: float
    mass: tuple[float, ...]
    sup: tuple[float, ...]
    tv: tuple[float, ...]
    outflux: tuple[float, ...]
    wallflux: tuple[float, ...]


@dataclass
class RunResult:
    records: list[DiagnosticsRecord]
    state: SimState
    series_path: Path | None = None
    snapshot_paths: list[Path] = field(default_factory=list)
    wall_time: float = 0.0


@dataclass
class PicardResult:
    state: SimState
    distances: list[float]
    converged: bool
    iterations: int
    non_contraction: bool
    dt: float = 0.0


# ---------------------------------------------------------------------------
# scenario construction


def _quadrant_initial(
    domain: Domain, grid: Grid, mask: CellMask, counts: Sequence[float]
) -> list[ScalarField]:
    """Uniform density per quadrant (counts clockwise from top-left),
    zeroed on non-interior cells and rescaled to the exact head count."""
    try:
        counts = [float(c) for c in counts]
    except (TypeError, ValueError):
        raise ConfigError(f"quadrant counts must be numbers, got {counts!r}") from None
    if len(counts) != 4:
        raise ConfigError(f"quadrant initial data needs 4 counts, got {len(counts)}")
    if not all(math.isfinite(c) and c >= 0.0 for c in counts):
        raise ConfigError(f"quadrant counts must be finite and nonnegative, got {counts}")
    x0, x1, y0, y1 = domain.bounding_box
    xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    quadrant_area = 0.25 * (x1 - x0) * (y1 - y0)
    xx, yy = grid.center_mesh()
    values = np.zeros(grid.shape)
    top = yy >= ym
    left = xx < xm
    values[top & left] = counts[0] / quadrant_area
    values[top & ~left] = counts[1] / quadrant_area
    values[~top & ~left] = counts[2] / quadrant_area
    values[~top & left] = counts[3] / quadrant_area
    values[~mask.interior] = 0.0
    wanted = sum(counts)
    if wanted == 0.0:
        return [ScalarField(grid, np.zeros(grid.shape))]
    total = grid.cell_area * float(np.sum(values))
    if total <= 0.0:
        raise ConfigError("quadrant initial data has no mass on interior cells")
    values *= wanted / total
    return [ScalarField(grid, values)]


def _ramp_initial(
    grid: Grid, mask: CellMask, lo: float, hi: float, orientation: str, n_pop: int
) -> list[ScalarField]:
    """Linear-in-y profile spanning [lo, hi] across the interior cell rows."""
    if not all(math.isfinite(b) and b >= 0.0 for b in (lo, hi)):
        raise ConfigError(f"ramp bounds must be finite and nonnegative, got [{lo}, {hi}]")
    if orientation not in ("same", "opposed"):
        raise ConfigError(f"unknown ramp orientation {orientation!r}")
    xx, yy = grid.center_mesh()
    y_int = yy[mask.interior]
    y_min, y_max = float(np.min(y_int)), float(np.max(y_int))
    if y_max <= y_min:
        raise ConfigError("ramp initial data needs more than one interior row")
    ramp = lo + (hi - lo) * (yy - y_min) / (y_max - y_min)
    ramp[~mask.interior] = 0.0
    fields = [ScalarField(grid, ramp.copy())]
    for _ in range(1, n_pop):
        if orientation == "opposed":
            flipped = np.where(mask.interior, (lo + hi) - ramp, 0.0)
            fields.append(ScalarField(grid, flipped))
        else:
            fields.append(ScalarField(grid, ramp.copy()))
    return fields


def _build_crowd_scenario(cfg: dict) -> Scenario:
    dom_cfg = cfg.get("domain")
    if not dom_cfg:
        raise ConfigError("scenario config has no domain section")
    try:
        domain = Domain.rectangle(
            tuple(dom_cfg["box"]),
            exits=[tuple(map(tuple, seg)) for seg in dom_cfg.get("exits", [])],
            obstacles=[tuple(r) for r in dom_cfg.get("obstacles", [])],
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad domain section: {exc}") from exc

    numerics = cfg["numerics"]
    grid, mask = build_grid(domain, numerics["h"])

    pop_cfgs = cfg.get("populations") or []
    if not pop_cfgs:
        raise ConfigError("need at least one population")
    n = len(pop_cfgs)
    everyone = tuple(range(n))

    averagers: dict[float, DomainAverager] = {}

    def averager(support: float) -> DomainAverager:
        support = float(support)
        if support not in averagers:
            stencil = build_stencil(make_quartic_kernel(support), grid)
            averagers[support] = DomainAverager(grid, mask, stencil)
        return averagers[support]

    desired_cfg = cfg.get("desired", {})
    amp = _number("desired.discomfort_amp", desired_cfg.get("discomfort_amp", 0.3))
    rng = desired_cfg.get("discomfort_range")
    rng = None if rng is None else _number("desired.discomfort_range", rng)
    discomfort = wall_discomfort(grid, mask, amp, rng)

    populations: list[PopulationModel] = []
    for pop_cfg in pop_cfgs:
        try:
            law = SpeedLaw(
                amplitude=float(pop_cfg["speed_law"]["amplitude"]),
                capacity=float(pop_cfg["speed_law"]["capacity"]),
            )
            l1 = float(pop_cfg["kernels"]["l1"])
            l2_raw = pop_cfg["kernels"]["l2"]
            betas = tuple(float(b) for b in pop_cfg["betas"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad population section: {exc}") from exc
        if not all(math.isfinite(b) for b in betas):
            raise ConfigError(f"population betas must be finite numbers, got {list(betas)}")
        if len(betas) != n:
            raise ConfigError(
                f"population lists {len(betas)} avoidance weights, "
                f"need one per population ({n})"
            )
        l2 = (
            [float(v) for v in l2_raw]
            if isinstance(l2_raw, (list, tuple))
            else [float(l2_raw)] * n
        )
        if len(l2) != n:
            raise ConfigError("kernels.l2 must be a scalar or one value per population")

        target_idx = pop_cfg.get("target_exits")
        target_exits = None
        if target_idx is not None:
            # range indexing takes integers only, resolves negative indices
            # and rejects the rest; bool is an int but names no exit
            exit_indices = range(len(domain.exits))
            try:
                if any(isinstance(i, bool) for i in target_idx):
                    raise TypeError("exit indices must be integers, not booleans")
                target_exits = [exit_indices[i] for i in target_idx]
            except (IndexError, TypeError) as exc:
                raise ConfigError(f"bad target_exits {target_idx}: {exc}") from exc
        desired = build_desired_field(grid, mask, discomfort, exits=target_exits)
        populations.append(
            PopulationModel(
                speed_law=law,
                desired=desired,
                betas=betas,
                average=Channel("average", everyone, averager(l1)),
                gradients=tuple(
                    Channel("gradient", (j,), averager(support))
                    for j, support in enumerate(l2)
                ),
            )
        )

    model = ModelSpec(populations=populations)

    init_cfg = cfg.get("initial", {})
    init_kind = init_cfg.get("kind")
    if init_kind == "quadrants":
        if n != 1:
            raise ConfigError("quadrant initial data is single-population")
        initial = _quadrant_initial(domain, grid, mask, init_cfg.get("counts", []))
    elif init_kind == "ramp":
        initial = _ramp_initial(
            grid,
            mask,
            _number("initial.lo", init_cfg.get("lo", 0.0)),
            _number("initial.hi", init_cfg.get("hi", 4.0)),
            str(init_cfg.get("orientation", "same")),
            n,
        )
    else:
        raise ConfigError(f"unknown initial data kind {init_kind!r}")

    return Scenario(
        domain=domain,
        grid=grid,
        mask=mask,
        initial=initial,
        numerics=dict(numerics),
        output=dict(cfg.get("output", {})),
        model=model,
    )


def _bump(cx: float, cy: float, radius: float):
    def fn(x, y):
        d2 = ((x - cx) ** 2 + (y - cy) ** 2) / (radius * radius)
        return np.where(d2 < 1.0, (1.0 - np.minimum(d2, 1.0)) ** 4, 0.0)

    return fn


def _build_linear_scenario(cfg: dict) -> Scenario:
    problem_name = cfg.get("problem", "rotation-disc")
    numerics = cfg["numerics"]
    h = numerics["h"]
    domain = Domain.disc((0.0, 0.0), 1.0)
    grid, mask = build_grid(domain, h)
    if problem_name == "rotation-disc":
        velocity = RotationVelocity(center=(0.0, 0.0), omega=1.0)
        initial = ScalarField.from_function(grid, _bump(0.3, 0.0, 0.25), mask)
    elif problem_name == "contraction-disc":
        velocity = ContractionVelocity(rate=1.0)
        initial = ScalarField.from_function(grid, lambda x, y: np.full(x.shape, 2.0), mask)
    else:
        raise ConfigError(f"unknown linear problem {problem_name!r}")
    linear = LinearProblem(
        domain=domain,
        grid=grid,
        mask=mask,
        velocity=velocity,
        initial=initial,
    )
    return Scenario(
        domain=domain,
        grid=grid,
        mask=mask,
        initial=[initial],
        numerics=dict(numerics),
        output=dict(cfg.get("output", {})),
        linear=linear,
    )


def init_scenario(config: RunConfig) -> Scenario:
    """Build the scenario a config describes (geometry, model, initial data).

    Every problem with the config surfaces as :class:`ConfigError`: a
    ``ValueError`` from a constructor (mesh, kernel, discomfort, exits)
    keeps its message.
    """
    cfg = config.resolved()
    kind = cfg.get("scenario")
    try:
        if kind in ("evacuation", "corridor"):
            return _build_crowd_scenario(cfg)
        if kind == "custom-linear":
            return _build_linear_scenario(cfg)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown scenario kind {kind!r}")


# ---------------------------------------------------------------------------
# stepping


@dataclass
class StepBuffers:
    """What one :func:`run` or :func:`picard_solve` call reuses on every step.

    The transport work arrays; for a crowd scenario the kernel spectra of
    its channels, since only the densities change from step to step, with
    the non-local engine's work arrays and averaged fields; for a linear
    scenario the cell-centre mesh its velocity model is evaluated on.
    They live as long as the call, never on the scenario, so a kept
    scenario holds no work arrays and no spectra.
    """

    transport: TransportBuffers
    centers: tuple[np.ndarray, np.ndarray] | None
    spectra: KernelSpectra | None

    @classmethod
    def for_scenario(cls, scenario: Scenario) -> "StepBuffers":
        linear = scenario.linear is not None
        return cls(
            transport=TransportBuffers(scenario.grid.shape),
            centers=scenario.grid.center_mesh() if linear else None,
            spectra=None if linear else KernelSpectra(scenario.model.channels),
        )


def _velocities(
    scenario: Scenario, state: SimState, buffers: StepBuffers
) -> list[VectorField]:
    if scenario.linear is not None:
        assert buffers.centers is not None
        xx, yy = buffers.centers
        ux, uy = scenario.linear.velocity.velocity(state.t, xx, yy)
        ux = np.ascontiguousarray(ux, dtype=float)
        uy = np.ascontiguousarray(uy, dtype=float)
        ux.reshape(-1)[scenario.mask.outside] = 0.0
        uy.reshape(-1)[scenario.mask.outside] = 0.0
        return [VectorField(scenario.grid, ux, uy)]
    model = scenario.model
    assert model is not None and buffers.spectra is not None
    return eval_velocities(model, assemble_nonlocal(state.densities, buffers.spectra))


def _advance(
    scenario: Scenario,
    state: SimState,
    velocities: list[VectorField],
    dt: float,
    buffers: TransportBuffers,
) -> tuple[SimState, StepRecord]:
    theta = scenario.numerics["theta"]
    new_densities: list[ScalarField] = []
    outflux: list[float] = []
    for i, (rho, u) in enumerate(zip(state.densities, velocities)):
        result = lf_step_detailed(rho, u, dt, scenario.mask, theta, buffers)
        if not np.isfinite(result.density.values).all():
            raise NanAbortError(state.step_index + 1, population=i)
        new_densities.append(result.density)
        outflux.append(result.exit_outflux)
    new_state = SimState(
        t=state.t + dt, step_index=state.step_index + 1, densities=new_densities
    )
    return new_state, StepRecord(dt=dt, exit_outflux=tuple(outflux))


def step(
    scenario: Scenario,
    state: SimState,
    buffers: StepBuffers,
    dt: float | None = None,
    dt_max: float | None = None,
) -> tuple[SimState, StepRecord]:
    """Advance every population by one shared step.

    The couplings are frozen at the current state; the step size defaults
    to the tightest CFL bound across populations, optionally capped by
    ``dt_max`` (used to land exactly on snapshot times and the horizon).
    ``buffers`` are the caller's work arrays and kernel spectra for this
    scenario (:meth:`StepBuffers.for_scenario`), built once and passed to
    every step.
    """
    velocities = _velocities(scenario, state, buffers)
    if dt is None:
        cfl = scenario.numerics["cfl"]
        dt = min(cfl_dt(u, scenario.grid, cfl) for u in velocities)
        if dt_max is not None:
            dt = min(dt, dt_max)
    return _advance(scenario, state, velocities, dt, buffers.transport)


def _record(
    state: SimState, outflux: list[float], buffers: TransportBuffers
) -> DiagnosticsRecord:
    diags = [discrete_diagnostics(rho, buffers) for rho in state.densities]
    return DiagnosticsRecord(
        t=state.t,
        mass=tuple(d.mass for d in diags),
        sup=tuple(d.sup_norm for d in diags),
        tv=tuple(d.total_variation for d in diags),
        outflux=tuple(outflux),
        # walls are impermeable: the scheme gives every wall face zero flux
        wallflux=(0.0,) * len(diags),
    )


def run(config: RunConfig, scenario: Scenario | None = None) -> RunResult:
    """Run a scenario to its horizon, recording diagnostics every step.

    Writes per-capture snapshots and the diagnostics series when an output
    directory is configured; the step size is capped so capture times and
    the horizon are hit exactly.
    """
    t_begin = time.perf_counter()
    if scenario is None:
        scenario = init_scenario(config)
    T = scenario.numerics["T"]
    state = scenario.initial_state()
    n = len(state.densities)
    cum_out = [0.0] * n
    buffers = StepBuffers.for_scenario(scenario)
    records = [_record(state, cum_out, buffers.transport)]

    out_dir = scenario.output.get("dir")
    cadence = scenario.output.get("cadence")
    snapshot_paths: list[Path] = []
    snap_count = 0
    captured_at = -1.0

    def capture(current: SimState) -> None:
        nonlocal snap_count, captured_at
        captured_at = current.t
        if out_dir is None:
            return
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for i, rho in enumerate(current.densities):
            base = directory / f"snap_{snap_count:04d}_pop{i + 1}"
            csv_path, pgm_path = write_snapshot(rho, scenario.mask, current.t, base)
            snapshot_paths.extend([csv_path, pgm_path])
        snap_count += 1

    capture(state)
    next_snap = cadence if cadence else None
    eps = 1e-9 * max(1.0, T)
    while state.t < T - eps:
        stop = T if next_snap is None else min(T, next_snap)
        state, rec = step(scenario, state, buffers, dt_max=stop - state.t)
        for i in range(n):
            cum_out[i] += rec.exit_outflux[i]
        records.append(_record(state, cum_out, buffers.transport))
        if next_snap is not None and state.t >= next_snap - eps:
            capture(state)
            next_snap += cadence
    if captured_at < state.t - eps:
        # horizon was not itself a capture time; keep the final state anyway
        capture(state)

    series_path: Path | None = None
    if out_dir is not None:
        series_path = write_series(records, Path(out_dir) / "series.csv")

    return RunResult(
        records=records,
        state=state,
        series_path=series_path,
        snapshot_paths=snapshot_paths,
        wall_time=time.perf_counter() - t_begin,
    )


# ---------------------------------------------------------------------------
# Picard sweeps


def picard_dt(scenario: Scenario) -> float:
    """Fixed step for Picard sweeps, from the a-priori speed bound.

    Every iterate's velocities respect the same bound, so one step size is
    CFL-safe for the whole iteration and all sweeps share time nodes.
    """
    model = scenario.model
    if model is None:
        raise ConfigError("Picard sweeps need a crowd scenario")
    h = min(scenario.grid.dx, scenario.grid.dy)
    return scenario.numerics["cfl"] * h / (2.0 * model.velocity_bound + 1e-14)


def picard_solve(
    config: RunConfig,
    window: float | None = None,
    max_iter: int = 16,
    tol: float = 1e-10,
) -> PicardResult:
    """Iterate linearized sweeps over one window until the trajectory settles.

    Sweep k+1 solves, step by step, the *linear* transport problems whose
    velocities come from sweep k's trajectory (sweep 0 freezes the initial
    state in time, and every sweep starts from it, so its velocities are
    evaluated once per solve).  The reported
    distance d_k is the largest L1 gap between consecutive trajectories
    over the window, summed over populations.  Three consecutive
    increases of d_k flag non-contraction in the result instead of
    raising: the window is then too wide for the coupling strength, which
    the caller may well want to see.  The window defaults to 20 steps of
    :func:`picard_dt`; the sweeps stop after ``max_iter`` of them or once
    d_k <= ``tol``.
    """
    scenario = init_scenario(config)
    if max_iter < 1:
        raise ConfigError(f"max_iter must be at least 1, got {max_iter}")
    if not tol >= 0.0:
        raise ConfigError(f"tol must be nonnegative, got {tol}")

    dt = picard_dt(scenario)
    if window is None:
        window = 20.0 * dt
    if not 0.0 < window < math.inf:
        raise ConfigError(f"window must be finite and positive, got {window}")
    n_steps = max(1, int(np.ceil(window / dt - 1e-12)))
    # uniform nodes across the window keep every sweep on the same grid in time
    dt = window / n_steps

    # every sweep starts from state0, which _advance never writes, and the
    # crowd velocity does not depend on t: state0's velocities serve every
    # node frozen at state0 (all of sweep 0's, node 0 of each later sweep)
    state0 = scenario.initial_state()
    area = scenario.grid.cell_area
    buffers = StepBuffers.for_scenario(scenario)
    velocities0 = _velocities(scenario, state0, buffers)
    prev: list[list[ScalarField]] = [state0.densities] * (n_steps + 1)
    distances: list[float] = []
    converged = False
    non_contraction = False
    final_state = state0
    iterations = 0

    for _ in range(max_iter):
        iterations += 1
        state = state0
        trajectory: list[list[ScalarField]] = [state.densities]
        for j in range(n_steps):
            if prev[j] is state0.densities:
                velocities = velocities0
            else:
                frozen = SimState(t=j * dt, step_index=j, densities=prev[j])
                velocities = _velocities(scenario, frozen, buffers)
            state, _ = _advance(scenario, state, velocities, dt, buffers.transport)
            trajectory.append(state.densities)
        d_k = 0.0
        for node_new, node_old in zip(trajectory, prev):
            gap = sum(
                area * float(np.sum(np.abs(a.values - b.values)))
                for a, b in zip(node_new, node_old)
            )
            d_k = max(d_k, gap)
        distances.append(d_k)
        prev = trajectory
        final_state = state
        if d_k <= tol:
            converged = True
            break
        if len(distances) >= 3 and distances[-1] > distances[-2] > distances[-3]:
            non_contraction = True

    return PicardResult(
        state=final_state,
        distances=distances,
        converged=converged,
        iterations=iterations,
        non_contraction=non_contraction,
        dt=dt,
    )
