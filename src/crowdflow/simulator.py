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
from dataclasses import dataclass
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
    wave_speeds,
)

__all__ = [
    "SimState",
    "Scenario",
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
    """The densities at time t, after ``step_index`` steps, and ``outflux``:
    the mass each population has lost through the exits since t = 0, so
    that mass + outflux is each population's initial mass."""

    t: float
    step_index: int
    densities: list[ScalarField]
    outflux: tuple[float, ...]


@dataclass
class Scenario:
    """A ready-to-run problem: geometry, model and initial state.

    A crowd scenario carries ``model``, a linear reference problem
    ``linear``; exactly one of the two is set.
    """

    grid: Grid
    mask: CellMask
    initial: list[ScalarField]
    numerics: dict
    output: dict
    model: ModelSpec | None = None
    linear: LinearProblem | None = None

    def initial_state(self) -> SimState:
        densities = [d.copy() for d in self.initial]
        return SimState(0.0, 0, densities, (0.0,) * len(densities))


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
    series_path: Path | None
    snapshot_paths: list[Path]
    wall_time: float


@dataclass
class PicardResult:
    state: SimState
    distances: list[float]
    converged: bool
    iterations: int
    non_contraction: bool
    dt: float


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

    parsed = []
    targets = []
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
        targets.append(target_exits)
        parsed.append((law, betas, l1, l2))

    ws = build_desired_field(grid, mask, discomfort, targets)
    populations = [
        PopulationModel(
            speed_law=law,
            w=w,
            betas=betas,
            average=Channel("average", everyone, averager(l1)),
            gradients=tuple(
                Channel("gradient", (j,), averager(support))
                for j, support in enumerate(l2)
            ),
        )
        for (law, betas, l1, l2), w in zip(parsed, ws)
    ]

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
        grid=grid,
        mask=mask,
        initial=initial,
        numerics=dict(numerics),
        output=dict(cfg.get("output", {})),
        model=model,
    )


def _bump(cx: float, cy: float, radius: float):
    # the pow runs on the support d2 < 1 only (about 5% of the disc's
    # cells); every other cell is +0.0
    def fn(x, y):
        d2 = ((x - cx) ** 2 + (y - cy) ** 2) / (radius * radius)
        values = np.zeros_like(d2)
        inside = d2 < 1.0
        values[inside] = (1.0 - d2[inside]) ** 4
        return values

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
    scenario its velocity and the velocity's wave speeds, which do not
    change at all: the model is sampled once, on the cell centres, and
    zeroed off the interior.  They live as long as the call, never on the
    scenario, so a kept scenario holds no work arrays, no spectra and no
    sampled velocity.
    """

    transport: TransportBuffers
    velocity: VectorField | None
    speeds: tuple[float, float] | None
    spectra: KernelSpectra | None

    @classmethod
    def for_scenario(cls, scenario: Scenario) -> "StepBuffers":
        transport = TransportBuffers(scenario.grid.shape)
        if scenario.linear is None:
            return cls(transport, None, None, KernelSpectra(scenario.model.channels))
        ux, uy = scenario.linear.velocity.velocity(*scenario.grid.center_mesh())
        ux = np.ascontiguousarray(ux, dtype=float)
        uy = np.ascontiguousarray(uy, dtype=float)
        ux.reshape(-1)[scenario.mask.outside] = 0.0
        uy.reshape(-1)[scenario.mask.outside] = 0.0
        velocity = VectorField(scenario.grid, ux, uy)
        speeds = wave_speeds(velocity, scenario.mask, transport)
        return cls(transport, velocity, speeds, None)


def _velocities(
    scenario: Scenario, densities: list[ScalarField], buffers: StepBuffers
) -> tuple[list[VectorField], list[tuple[float, float]]]:
    """Every population's velocity at ``densities``, and its wave speeds."""
    if buffers.velocity is not None:
        return [buffers.velocity], [buffers.speeds]
    model = scenario.model
    assert model is not None and buffers.spectra is not None
    velocities = eval_velocities(model, assemble_nonlocal(densities, buffers.spectra))
    speeds = [wave_speeds(u, scenario.mask, buffers.transport) for u in velocities]
    return velocities, speeds


def _advance(
    scenario: Scenario,
    state: SimState,
    velocities: list[VectorField],
    speeds: list[tuple[float, float]],
    dt: float,
    buffers: TransportBuffers,
) -> SimState:
    theta = scenario.numerics["theta"]
    new_densities: list[ScalarField] = []
    outflux: list[float] = []
    for i, (rho, u, s) in enumerate(zip(state.densities, velocities, speeds)):
        result = lf_step_detailed(rho, u, s, dt, scenario.mask, theta, buffers)
        if not np.isfinite(result.density.values).all():
            raise NanAbortError(state.step_index + 1, population=i)
        new_densities.append(result.density)
        outflux.append(result.exit_outflux)
    return SimState(
        t=state.t + dt,
        step_index=state.step_index + 1,
        densities=new_densities,
        outflux=tuple(total + out for total, out in zip(state.outflux, outflux)),
    )


def step(
    scenario: Scenario,
    state: SimState,
    buffers: StepBuffers,
    dt_max: float | None = None,
) -> tuple[SimState, float]:
    """Advance every population by one shared step; return the new state and dt.

    The couplings are frozen at the current state; the step size defaults
    to the tightest CFL bound across populations, optionally capped by
    ``dt_max`` (used to land exactly on snapshot times and the horizon).
    ``buffers`` are the caller's work arrays and kernel spectra for this
    scenario (:meth:`StepBuffers.for_scenario`), built once and passed to
    every step.
    """
    velocities, speeds = _velocities(scenario, state.densities, buffers)
    cfl = scenario.numerics["cfl"]
    dt = min(cfl_dt(s, scenario.grid, cfl) for s in speeds)
    if dt_max is not None:
        dt = min(dt, dt_max)
    return _advance(scenario, state, velocities, speeds, dt, buffers.transport), dt


def _record(state: SimState, buffers: TransportBuffers) -> DiagnosticsRecord:
    diags = [discrete_diagnostics(rho, buffers) for rho in state.densities]
    return DiagnosticsRecord(
        t=state.t,
        mass=tuple(d.mass for d in diags),
        sup=tuple(d.sup_norm for d in diags),
        tv=tuple(d.total_variation for d in diags),
        outflux=state.outflux,
        # walls are impermeable: the scheme gives every wall face zero flux
        wallflux=(0.0,) * len(diags),
    )


def run(config: RunConfig, scenario: Scenario | None = None) -> RunResult:
    """Run a scenario to its horizon, recording diagnostics every step.

    A passed ``scenario`` supplies the horizon T and the output settings;
    ``config`` is then not read.  Writes per-capture snapshots and the
    diagnostics series when an output directory is configured.  The first
    and the last state are always captured, and every ``cadence`` in
    between (none when it is null or 0); the step size is capped so
    capture times and the horizon are hit exactly.  An output directory
    that cannot be made is a :class:`ConfigError` before the first step.
    """
    t_begin = time.perf_counter()
    if scenario is None:
        scenario = init_scenario(config)
    T = scenario.numerics["T"]
    out_dir = scenario.output.get("dir")
    if out_dir is not None:
        out_dir = Path(out_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output.dir {out_dir}: {exc.strerror}") from None
    cadence = scenario.output.get("cadence") or math.inf
    state = scenario.initial_state()
    n = len(state.densities)
    buffers = StepBuffers.for_scenario(scenario)
    records = [_record(state, buffers.transport)]
    snapshot_paths: list[Path] = []

    def capture(current: SimState) -> None:
        if out_dir is None:
            return
        index = len(snapshot_paths) // (2 * n)
        for i, rho in enumerate(current.densities):
            base = out_dir / f"snap_{index:04d}_pop{i + 1}"
            snapshot_paths.extend(write_snapshot(rho, scenario.mask, current.t, base))

    capture(state)
    captured_at = state.t
    next_snap = cadence
    eps = 1e-9 * max(1.0, T)
    while state.t < T - eps:
        state, _ = step(scenario, state, buffers, dt_max=min(T, next_snap) - state.t)
        records.append(_record(state, buffers.transport))
        if state.t >= next_snap - eps:
            capture(state)
            captured_at = state.t
            next_snap += cadence
    if captured_at < state.t - eps:
        # horizon was not itself a capture time; keep the final state anyway
        capture(state)

    series_path: Path | None = None
    if out_dir is not None:
        series_path = write_series(records, out_dir / "series.csv")

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
    bound = model.velocity_bound
    return cfl_dt((bound, bound), scenario.grid, scenario.numerics["cfl"])


def picard_solve(
    config: RunConfig,
    window: float | None = None,
    max_iter: int = 16,
    tol: float = 1e-10,
) -> PicardResult:
    """Iterate linearized sweeps over one window until the trajectory settles.

    Sweep k+1 solves, step by step, the *linear* transport problems whose
    velocities come from sweep k's trajectory (sweep 0 freezes the initial
    state in time, so its velocities are evaluated once and serve sweep 0
    only; every sweep starts from the initial state).  The reported
    distance d_k is the largest L1 gap between consecutive trajectories
    over the window, summed over populations.  Three consecutive
    increases of d_k flag non-contraction in the result instead of
    raising: the window is then too wide for the coupling strength, which
    the caller may well want to see.  The window defaults to 20 steps of
    :func:`picard_dt`; the sweeps stop after ``max_iter`` of them or once
    d_k <= ``tol``.

    Sweep k settles nodes 0..k of the window for good (causality): node
    j+1 of sweep k steps from node j of sweep k with velocities frozen at
    node j of sweep k-1, so by induction on j, nodes 0..k of sweep k are
    bitwise those of sweep k-1 (the step is deterministic, does not read
    t, and dt is uniform over the window).  So sweep k takes the previous
    trajectory's nodes 0..k as they are and advances only nodes k..m-1 of
    an m-step window: m - k steps, about m^2/2 in all for a solve run to
    d = 0, which sweep m reaches without a step.
    """
    if max_iter < 1:
        raise ConfigError(f"max_iter must be at least 1, got {max_iter}")
    if not tol >= 0.0:
        raise ConfigError(f"tol must be nonnegative, got {tol}")
    scenario = init_scenario(config)

    dt = picard_dt(scenario)
    if window is None:
        window = 20.0 * dt
    if not 0.0 < window < math.inf:
        raise ConfigError(f"window must be finite and positive, got {window}")
    n_steps = max(1, int(np.ceil(window / dt - 1e-12)))
    # uniform nodes across the window keep every sweep on the same grid in time
    dt = window / n_steps

    # state0's velocities serve every node of sweep 0, and sweep 0 only:
    # a later sweep k starts at node k >= 1 of the previous trajectory
    state0 = scenario.initial_state()
    area = scenario.grid.cell_area
    buffers = StepBuffers.for_scenario(scenario)
    flow0 = _velocities(scenario, state0.densities, buffers)
    prev: list[SimState] = [state0] * (n_steps + 1)
    distances: list[float] = []
    converged = False
    non_contraction = False

    for k in range(max_iter):
        # nodes 0..k are the previous sweep's, the same objects: _advance
        # never writes a state it steps from
        trajectory = prev[: min(k, n_steps) + 1]
        state = trajectory[-1]
        for j in range(len(trajectory) - 1, n_steps):
            flow = flow0 if k == 0 else _velocities(scenario, prev[j].densities, buffers)
            state = _advance(scenario, state, *flow, dt, buffers.transport)
            trajectory.append(state)
        d_k = 0.0
        for node_new, node_old in zip(trajectory, prev):
            if node_new is node_old:
                continue  # a shared node's gap is exactly 0.0
            gap = sum(
                area * float(np.sum(np.abs(a.values - b.values)))
                for a, b in zip(node_new.densities, node_old.densities)
            )
            d_k = max(d_k, gap)
        distances.append(d_k)
        prev = trajectory
        if d_k <= tol:
            converged = True
            break
        if len(distances) >= 3 and distances[-1] > distances[-2] > distances[-3]:
            non_contraction = True

    return PicardResult(
        state=prev[-1],
        distances=distances,
        converged=converged,
        iterations=len(distances),
        non_contraction=non_contraction,
        dt=dt,
    )
