import dataclasses
import functools
import gc
import importlib
import pkgutil
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import crowdflow
from crowdflow.averaging import Channel, DomainAverager, KernelSpectra, assemble_nonlocal
from crowdflow.config import RunConfig, preset
from crowdflow.errors import ConfigError, NanAbortError
from crowdflow.fields import ScalarField, VectorField
from crowdflow.geometry import Domain, build_grid
from crowdflow.kernels import build_stencil, make_quartic_kernel
from crowdflow.models import (
    ModelSpec,
    PopulationModel,
    SpeedLaw,
    eval_velocities,
)
from crowdflow.output import read_snapshot
from crowdflow.simulator import (
    Scenario,
    StepBuffers,
    init_scenario,
    picard_dt,
    picard_solve,
    run,
    step,
)
from crowdflow.transport import (
    RotationVelocity,
    cfl_dt,
    exact_solution,
    lf_step_detailed,
    wave_speeds,
)


def total_mass(grid, densities):
    return [grid.cell_area * float(np.sum(rho.values)) for rho in densities]


def room_config(**kw):
    kw.setdefault("h", 0.125)
    kw.setdefault("final_time", 0.5)
    return RunConfig(scenario="room-eq25", **kw)


def corridor_config(**kw):
    kw.setdefault("h", 0.0625)
    kw.setdefault("final_time", 0.25)
    return RunConfig(scenario="corridor-eq20", **kw)


# ---------------------------------------------------------------- initial data


def test_evacuation_initial_mass():
    scenario = init_scenario(room_config())
    (mass,) = total_mass(scenario.grid, scenario.initial)
    assert abs(mass - 48.0) <= 1e-9
    # the fullest quadrant, rescaled for the area lost to the obstacles
    sup = max(float(np.max(rho.values)) for rho in scenario.initial)
    assert abs(sup - 1.2618089213833894) <= 1e-6
    assert all(np.min(rho.values) >= 0.0 for rho in scenario.initial)


def test_corridor_initial_profile():
    scenario = init_scenario(corridor_config())
    assert len(scenario.initial) == 2
    for rho in scenario.initial:
        assert float(np.max(rho.values)) == 4.0
        mass = scenario.grid.cell_area * float(np.sum(rho.values))
        assert abs(mass - 128.0) <= 1e-9
    # same orientation: the two profiles coincide
    assert np.array_equal(scenario.initial[0].values, scenario.initial[1].values)


def test_corridor_opposed_ramps():
    same = init_scenario(corridor_config())
    opposed = init_scenario(
        corridor_config(overrides={"initial": {"orientation": "opposed"}})
    )
    interior = same.mask.interior
    flipped = 4.0 - same.initial[1].values[interior]
    assert np.max(np.abs(opposed.initial[1].values[interior] - flipped)) <= 1e-12
    assert np.array_equal(opposed.initial[0].values, same.initial[0].values)


def test_zero_counts_give_zero_state():
    cfg = room_config(overrides={"initial": {"counts": [0, 0, 0, 0]}})
    scenario = init_scenario(cfg)
    state = scenario.initial_state()
    assert all(np.all(rho.values == 0.0) for rho in state.densities)
    new_state, dt = step(scenario, state, StepBuffers.for_scenario(scenario))
    assert np.isfinite(dt) and dt > 0.0
    assert all(np.all(rho.values == 0.0) for rho in new_state.densities)


def test_custom_linear_passthrough():
    cfg = RunConfig(scenario="contraction-disc", h=1.0 / 16.0, final_time=0.1)
    scenario = init_scenario(cfg)
    assert scenario.linear is not None
    assert scenario.model is None
    state = scenario.initial_state()
    assert state.t == 0.0
    assert np.all(state.densities[0].values[scenario.mask.interior] == 2.0)


@pytest.mark.parametrize("h", [1 / 16, 1 / 32, 1 / 64, 1 / 128, 1 / 256])
def test_rotation_bump_is_the_quartic_on_every_cell(h):
    # the datum runs the pow on the bump's support only: the pow of that
    # packed subset must give the bytes of the pow over the whole mesh
    scenario = init_scenario(RunConfig(scenario="rotation-disc", h=h))
    xx, yy = scenario.grid.center_mesh()
    d2 = ((xx - 0.3) ** 2 + (yy - 0.0) ** 2) / (0.25 * 0.25)
    whole = np.where(d2 < 1.0, (1.0 - np.minimum(d2, 1.0)) ** 4, 0.0)
    whole[~scenario.mask.interior] = 0.0
    assert (whole > 0.0).any()
    assert scenario.initial[0].values.tobytes() == whole.tobytes()


# ---------------------------------------------------------------- stepping


def test_step_reduces_to_linear_advection_without_coupling():
    dom = Domain.rectangle((0.0, 2.0, 0.0, 2.0), exits=[((2.0, 0.0), (2.0, 2.0))])
    grid, mask = build_grid(dom, 0.125)
    stencil = build_stencil(make_quartic_kernel(0.5), grid)
    averager = DomainAverager(grid, mask, stencil)
    ones = np.where(mask.interior, 1.0, 0.0)
    const_dir = VectorField(grid, ones.copy(), np.zeros(grid.shape))
    pop = PopulationModel(
        SpeedLaw(0.7, np.inf),
        const_dir,
        betas=(0.0,),
        average=Channel("average", (0,), averager),
        gradients=(Channel("gradient", (0,), averager),),
    )
    model = ModelSpec(populations=[pop])
    rng = np.random.default_rng(8)
    rho0 = ScalarField(grid, np.where(mask.interior, rng.uniform(0, 2, grid.shape), 0.0))
    scenario = Scenario(
        grid=grid,
        mask=mask,
        initial=[rho0],
        numerics={"h": 0.125, "T": 1.0, "cfl": 0.5, "theta": 1.0},
        output={},
        model=model,
    )
    # the CFL step is 0.5 * 0.125 / 0.7, about 0.089, so the cap sets it
    dt = 0.05
    buffers = StepBuffers.for_scenario(scenario)
    new_state, taken = step(scenario, scenario.initial_state(), buffers, dt_max=dt)
    assert taken == dt
    u = VectorField(grid, 0.7 * const_dir.x, 0.7 * const_dir.y)
    speeds = wave_speeds(u, mask, buffers.transport)
    direct = lf_step_detailed(rho0, u, speeds, dt, mask, 1.0, buffers.transport).density
    assert np.array_equal(new_state.densities[0].values, direct.values)


def test_shared_step_is_tightest_cfl_bound():
    scenario = init_scenario(corridor_config())
    state = scenario.initial_state()
    out = assemble_nonlocal(state.densities, KernelSpectra(scenario.model.channels))
    v1, v2 = eval_velocities(scenario.model, out)
    buffers = StepBuffers.for_scenario(scenario)
    expected = min(
        cfl_dt(wave_speeds(v, scenario.mask, buffers.transport), scenario.grid, 0.5)
        for v in (v1, v2)
    )
    _, dt = step(scenario, state, buffers)
    assert dt == expected


@pytest.mark.parametrize("name", ["room-eq25", "corridor-eq20", "three-populations"])
def test_crowd_velocities_vanish_off_the_interior(monkeypatch, name):
    # so the interior wave speeds a step takes are the max |u| per axis
    # over the whole grid (the corridor has no cell off the interior; the
    # room's obstacles are off it)
    from crowdflow import simulator

    if name == "three-populations":
        config = dataclasses.replace(three_population_config(), final_time=0.1)
    else:
        config = RunConfig(scenario=name, h=0.0625, final_time=0.1)
    seen = []
    original = simulator._velocities

    def keeping(scenario, densities, buffers):
        velocities, speeds = original(scenario, densities, buffers)
        seen.append((scenario.mask, velocities, speeds))
        return velocities, speeds

    monkeypatch.setattr(simulator, "_velocities", keeping)
    result = run(config)
    assert len(seen) == result.state.step_index > 1
    for mask, velocities, speeds in seen:
        assert len(velocities) == len(speeds) == len(result.state.densities)
        for u, (ax, ay) in zip(velocities, speeds):
            assert not u.x[~mask.interior].any() and not u.y[~mask.interior].any()
            assert (ax, ay) == (np.max(np.abs(u.x)), np.max(np.abs(u.y)))


def test_run_mass_ledger_and_monotonicity():
    result = run(room_config(final_time=0.5))
    masses = [r.mass[0] for r in result.records]
    assert abs(masses[0] - 48.0) <= 1e-9
    assert all(b <= a + 1e-12 for a, b in zip(masses, masses[1:]))
    for rec in result.records:
        assert abs(masses[0] - rec.mass[0] - rec.outflux[0]) <= 1e-10 * masses[0]
    assert float(np.min(result.state.densities[0].values)) >= -1e-12
    assert result.state.t == 0.5
    assert result.wall_time > 0.0


def test_run_state_carries_the_outflux_ledger():
    result = run(corridor_config())
    assert result.state.outflux == result.records[-1].outflux
    assert all(out > 0.0 for out in result.state.outflux)


def test_picard_state_carries_the_outflux_ledger():
    result = picard_solve(room_config(), max_iter=3, tol=0.0)
    scenario = init_scenario(room_config())
    m0 = total_mass(scenario.grid, scenario.initial)
    m1 = total_mass(scenario.grid, result.state.densities)
    assert result.state.step_index == 20
    assert all(out > 0.0 for out in result.state.outflux)
    for initial, mass, out in zip(m0, m1, result.state.outflux, strict=True):
        assert abs(initial - mass - out) <= 1e-10 * initial


def test_nan_density_aborts_with_context():
    scenario = init_scenario(room_config())
    state = scenario.initial_state()
    state.densities[0].values[32, 32] = np.nan
    with pytest.raises(NanAbortError) as excinfo:
        step(scenario, state, StepBuffers.for_scenario(scenario))
    assert excinfo.value.step_index == 1
    assert "population 1" in str(excinfo.value)


def test_run_capture_cadence(tmp_path):
    out = tmp_path / "cap"
    result = run(room_config(final_time=0.5, snap_every=0.2, out_dir=str(out)))
    assert result.series_path is not None and result.series_path.exists()
    # captures at t = 0, 0.2, 0.4 and the horizon
    assert len(result.snapshot_paths) == 8
    assert all(p.exists() for p in result.snapshot_paths)
    csvs = sorted(out.glob("snap_*_pop1.csv"))
    assert len(csvs) == 4
    values, meta = read_snapshot(csvs[0])
    scenario = init_scenario(room_config())
    assert meta["t"] == 0.0
    assert np.array_equal(values, scenario.initial[0].values)
    times = [read_snapshot(p)[1]["t"] for p in csvs]
    assert times[0] == 0.0
    assert abs(times[1] - 0.2) <= 1e-9
    assert abs(times[-1] - 0.5) <= 1e-9


def test_run_makes_the_output_directory_once(tmp_path, monkeypatch):
    made = []
    original = Path.mkdir

    def mkdir(self, *args, **kwargs):
        made.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", mkdir)
    out = tmp_path / "cap"
    result = run(room_config(final_time=0.5, snap_every=0.2, out_dir=str(out)))
    assert len(result.snapshot_paths) == 8
    assert made == [out]


def capture_times(result, out, n):
    """The time of each capture of a run into ``out``, after checking that
    the snapshots are exactly captures 0, 1, ... with every population's
    CSV and raster, and that each capture's populations share one time,
    a time the series recorded."""
    csvs = [p for p in result.snapshot_paths if p.suffix == ".csv"]
    count = len(csvs) // n
    names = [f"snap_{k:04d}_pop{i + 1}" for k in range(count) for i in range(n)]
    assert [p.name for p in result.snapshot_paths] == [
        name + suffix for name in names for suffix in (".csv", ".pgm")
    ]
    assert sorted(p.name for p in out.glob("snap_*")) == sorted(
        p.name for p in result.snapshot_paths
    )
    times = []
    for k in range(count):
        at = {read_snapshot(p)[1]["t"] for p in csvs[k * n : (k + 1) * n]}
        assert len(at) == 1
        times.append(at.pop())
    recorded = {rec.t for rec in result.records}
    assert all(t in recorded for t in times)
    return times


def assert_times(times, expected):
    assert len(times) == len(expected)
    assert all(abs(t - e) <= 1e-9 for t, e in zip(times, expected))


def test_run_to_time_zero_captures_once(tmp_path):
    out = tmp_path / "cap"
    result = run(corridor_config(final_time=0.0, out_dir=str(out)))
    assert len(result.records) == 1
    assert capture_times(result, out, 2) == [0.0]


@pytest.mark.parametrize(
    "output",
    [{"snap_every": 0.0}, {"overrides": {"output": {"cadence": None}}}],
    ids=["zero", "null"],
)
def test_run_without_a_cadence_captures_first_and_last(tmp_path, output):
    out = tmp_path / "cap"
    result = run(room_config(final_time=0.5, out_dir=str(out), **output))
    times = capture_times(result, out, 1)
    assert_times(times, [0.0, 0.5])
    assert times[-1] == result.state.t


@pytest.mark.parametrize("horizon, cadence", [(0.5, 0.5), (0.7, 0.35)])
def test_run_captures_a_horizon_on_the_cadence_once(tmp_path, horizon, cadence):
    out = tmp_path / "cap"
    result = run(room_config(final_time=horizon, snap_every=cadence, out_dir=str(out)))
    times = capture_times(result, out, 1)
    assert_times(times, [k * cadence for k in range(round(horizon / cadence) + 1)])
    assert times[-1] == result.state.t


def test_two_population_run_captures_mid_run_and_at_the_horizon(tmp_path):
    out = tmp_path / "cap"
    result = run(corridor_config(final_time=0.5, snap_every=0.2, out_dir=str(out)))
    times = capture_times(result, out, 2)
    assert_times(times, [0.0, 0.2, 0.4, 0.5])
    assert times[-1] == result.state.t


def test_series_bytes_are_reproducible(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run(room_config(final_time=0.3, out_dir=str(out_a)))
    run(room_config(final_time=0.3, out_dir=str(out_b)))
    assert (out_a / "series.csv").read_bytes() == (out_b / "series.csv").read_bytes()


def workspace_arrays(spectra):
    """Every array a KernelSpectra owns: its buffers and its averaged fields."""
    arrays = [*spectra.hats.values(), spectra.summed, spectra.product, spectra.real]
    for field in spectra.averaged:
        arrays += [field.values] if isinstance(field, ScalarField) else [field.x, field.y]
    return arrays


def keep_spectra(monkeypatch, keep):
    """Route the step's assemble_nonlocal calls through ``keep(spectra)``."""
    from crowdflow import simulator

    original = simulator.assemble_nonlocal

    def keeping(rho_all, spectra):
        keep(spectra)
        return original(rho_all, spectra)

    monkeypatch.setattr(simulator, "assemble_nonlocal", keeping)


def test_reused_buffers_never_alias_densities(monkeypatch):
    from crowdflow import simulator

    workspaces = {}
    keep_spectra(monkeypatch, lambda spectra: workspaces.setdefault(id(spectra), spectra))
    handed = []
    original = simulator.lf_step_detailed

    def keeping(rho, u, speeds, dt, mask, theta, buffers):
        result = original(rho, u, speeds, dt, mask, theta, buffers)
        for work in (buffers.padded, *buffers.diffs, *buffers.columns):
            assert not np.shares_memory(result.density.values, work)
        handed.append((result.density.values, result.density.values.tobytes()))
        return result

    monkeypatch.setattr(simulator, "lf_step_detailed", keeping)
    config = corridor_config(final_time=0.1)
    scenario = init_scenario(config)
    first = run(config, scenario=scenario)
    picard_solve(room_config(), max_iter=2)
    assert len(handed) > 20
    # every density handed out is its own array, unchanged by later steps
    for k, (values, data) in enumerate(handed):
        assert values.tobytes() == data
        assert not any(np.shares_memory(values, other) for other, _ in handed[k + 1 :])
    # and none of them is a buffer or an averaged output of the engine
    assert len(workspaces) == 2
    work = [a for spectra in workspaces.values() for a in workspace_arrays(spectra)]
    for values, _ in handed:
        assert not any(np.shares_memory(values, a) for a in work)

    # the run left the scenario as it found it
    second = run(config, scenario=scenario)
    assert repr(second.records) == repr(first.records)
    for a, b in zip(first.state.densities, second.state.densities):
        assert a.values.tobytes() == b.values.tobytes()


def test_linear_run_refines_toward_exact():
    errors = []
    for h in (1.0 / 16.0, 1.0 / 32.0):
        cfg = RunConfig(scenario="rotation-disc", h=h, final_time=0.25)
        scenario = init_scenario(cfg)
        result = run(cfg, scenario=scenario)
        ref = exact_solution(scenario.linear, 0.25)
        gap = scenario.grid.cell_area * float(
            np.sum(np.abs(result.state.densities[0].values - ref.values))
        )
        errors.append(gap)
    assert errors[1] < errors[0]


@dataclasses.dataclass(frozen=True)
class CountingVelocity:
    """Delegates to a velocity model and counts the velocity evaluations."""

    model: RotationVelocity
    calls: list = dataclasses.field(default_factory=list)

    def velocity(self, x, y):
        self.calls.append(np.shape(x))
        return self.model.velocity(x, y)

    def divergence(self, x, y):
        return self.model.divergence(x, y)


def test_room_refines_toward_one_density_at_short_times():
    # room-eq25 to T = 0.5 at h = 1/8, 1/16 and 1/32, compared by block means
    # on the h = 1/8 mesh: the L1 gap between consecutive meshes shrinks.
    # The ratio of the two gaps read 1.22-1.66 over eight head-count data
    # (1.299 on the preset's, gaps 7.2139 and 5.5516), so 1.1 keeps half the
    # smallest decrease measured as margin.  At longer horizons the gaps
    # grow instead: the presets are not resolved at these meshes.
    coarse = []
    for k in (1, 2, 4):
        values = run(room_config(h=0.125 / k)).state.densities[0].values
        nx, ny = values.shape
        coarse.append(values.reshape(nx // k, k, ny // k, k).mean(axis=(1, 3)))
    gaps = [0.125**2 * float(np.sum(np.abs(a - b))) for a, b in zip(coarse, coarse[1:])]
    assert gaps[1] < gaps[0] / 1.1, gaps


def test_linear_run_samples_its_velocity_once():
    cfg = RunConfig(scenario="rotation-disc", h=1.0 / 32.0, final_time=0.25)
    plain = init_scenario(cfg)
    counting = CountingVelocity(plain.linear.velocity)
    counted = dataclasses.replace(
        plain, linear=dataclasses.replace(plain.linear, velocity=counting)
    )
    result = run(cfg, scenario=counted)
    assert result.state.step_index > 1
    assert counting.calls == [plain.grid.shape]
    expected = run(cfg, scenario=plain).state.densities[0].values
    assert result.state.densities[0].values.tobytes() == expected.tobytes()


def test_linear_run_takes_its_wave_speeds_once(monkeypatch):
    from crowdflow import simulator

    calls = []
    original = simulator.wave_speeds

    def counting(u, mask, buffers):
        calls.append(u)
        return original(u, mask, buffers)

    monkeypatch.setattr(simulator, "wave_speeds", counting)
    cfg = RunConfig(scenario="rotation-disc", h=1.0 / 32.0, final_time=0.25)
    scenario = init_scenario(cfg)
    result = run(cfg, scenario=scenario)
    assert result.state.step_index > 1
    assert len(calls) == 1
    # and a crowd run takes them once per population and step
    calls.clear()
    result = run(room_config(final_time=0.1))
    assert len(calls) == result.state.step_index > 1


# ---------------------------------------------------------------- populations


def test_corridor_evaluates_each_channel_once():
    model = init_scenario(corridor_config()).model
    first, second = model.populations
    # one total average (shared) and one gradient per population density
    assert len(model.channels) == 3
    assert first.average == second.average


def test_corridor_computes_wall_distance_once(monkeypatch):
    from crowdflow import models

    calls = []
    original = models.grid_distance

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(models, "grid_distance", counting)
    init_scenario(corridor_config())
    # one wall distance shared by both populations, then one search that
    # runs both populations' exit seed sets
    assert len(calls) == 2
    assert [len(seed_sets) for _, _, seed_sets, *_ in calls] == [1, 2]


def test_corridor_damps_each_gradient_channel_once(monkeypatch):
    from crowdflow import models

    scenario = init_scenario(corridor_config())
    calls = []
    original = models._damped

    def counting(gradient):
        calls.append(1)
        return original(gradient)

    monkeypatch.setattr(models, "_damped", counting)
    step(scenario, scenario.initial_state(), StepBuffers.for_scenario(scenario))
    # both populations steer away from the same two gradient channels
    assert len(calls) == 2


@pytest.mark.parametrize("config", [room_config, corridor_config])
def test_setup_builds_z_gradient_once_per_gradient_averager(monkeypatch, config):
    from crowdflow import averaging

    built = []
    original = averaging._indicator_sums

    def counting(grid, mask, stencil, coefficient_sets, deep=None):
        sets = list(coefficient_sets)
        # z sums the weights; grad z sums the two gradient-weight columns
        if np.array_equal(sets, stencil.grad_weights.T):
            built.append(stencil)
        return original(grid, mask, stencil, sets, deep)

    monkeypatch.setattr(averaging, "_indicator_sums", counting)
    scenario = init_scenario(config())
    channels = scenario.model.channels
    gradient = {id(c.averager.stencil) for c in channels if c.kind == "gradient"}
    average_only = {id(c.averager.stencil) for c in channels} - gradient
    # both presets have an averager that only feeds the speed law
    assert average_only
    assert sorted(id(s) for s in built) == sorted(gradient)
    # nothing is left to build in the time loop
    step(scenario, scenario.initial_state(), StepBuffers.for_scenario(scenario))
    assert len(built) == len(gradient)


@pytest.mark.parametrize("config", [room_config, corridor_config])
def test_time_loop_never_runs_a_distance_search(monkeypatch, config):
    # desired fields are built once, at set-up; the solve only reads them
    from crowdflow import models

    scenario = init_scenario(config(final_time=0.1))
    calls = []
    original = models.grid_distance

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(models, "grid_distance", counting)
    result = run(config(final_time=0.1), scenario=scenario)
    assert len(result.records) > 3
    assert calls == []


DIRECT_SUM = (
    "stencil_apply",
    "compute_z",
    "compute_z_gradient",
    "convolve_bounded",
    "gradient_convolve_bounded",
)


def direct_sum_calls(action):
    """Run ``action`` and return the direct-sum functions it called.

    A profile hook sees every Python call, so a call into the tests' oracle
    module, or into any function by one of its names, is caught wherever it
    is made from.
    """
    import direct_sum

    oracle_file = direct_sum.__file__
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename == oracle_file or code.co_name in DIRECT_SUM:
                calls.append(f"{code.co_filename}:{code.co_name}")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = action()
    finally:
        sys.setprofile(previous)
    return result, calls


@pytest.mark.parametrize("config", [room_config, corridor_config])
def test_setup_never_calls_the_direct_sum(config):
    # z and grad z come from FFTs; the direct sum's cost grows as h^-4
    scenario, calls = direct_sum_calls(lambda: init_scenario(config()))
    assert scenario.model.channels
    assert calls == []


@pytest.mark.parametrize("config", [room_config, corridor_config])
def test_time_loop_never_calls_the_direct_sum(config):
    # the direct stencil sum is the oracle; the step path runs on the FFT engine
    scenario = init_scenario(config(final_time=0.1))
    result, calls = direct_sum_calls(
        lambda: run(config(final_time=0.1), scenario=scenario)
    )
    assert len(result.records) > 3
    assert calls == []


TRACER = ("trace_characteristic", "CharacteristicPath", "UniformVelocity")


def test_package_holds_no_direct_sum_or_tracer():
    # the direct stencil sum is the tests' oracle (tests/direct_sum.py); set-up
    # and the time loop run on the FFT engine, so no module may define it, and
    # exact_solution is the package's one characteristics integrator
    modules = [crowdflow] + [
        importlib.import_module(f"crowdflow.{info.name}")
        for info in pkgutil.iter_modules(crowdflow.__path__)
    ]
    assert len(modules) > 10
    for module in modules:
        for name in DIRECT_SUM + TRACER:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert name not in getattr(module, "__all__", ())


def count_kernel_spectra(monkeypatch):
    from crowdflow import averaging

    built = []
    original = averaging._kernel_spectrum

    def counting(stencil, coeffs, shape):
        built.append(1)
        return original(stencil, coeffs, shape)

    monkeypatch.setattr(averaging, "_kernel_spectrum", counting)
    return built


@pytest.mark.parametrize("config", [room_config, corridor_config])
def test_run_transforms_each_kernel_once(monkeypatch, config):
    scenario = init_scenario(config(final_time=0.1))
    built = count_kernel_spectra(monkeypatch)
    result = run(config(final_time=0.1), scenario=scenario)
    assert len(result.records) > 3
    # room: weights of l1, weights and both gradient columns of l2; the
    # corridor's two gradient channels share the l2 transforms
    assert len(built) == 4


def test_picard_transforms_each_kernel_once(monkeypatch):
    from crowdflow import simulator

    built = count_kernel_spectra(monkeypatch)
    original = simulator.init_scenario

    def building(config):
        scenario = original(config)
        built.clear()  # grad z at set-up transforms its kernels too
        return scenario

    monkeypatch.setattr(simulator, "init_scenario", building)
    result = picard_solve(room_config(), max_iter=3, tol=0.0)
    assert result.iterations == 3
    assert len(built) == 4


def test_kernel_spectra_do_not_outlive_the_run(monkeypatch):
    from crowdflow import averaging

    config = room_config(final_time=0.1)
    scenario = init_scenario(config)
    averagers = {id(c.averager): c.averager for c in scenario.model.channels}.values()
    attributes = [set(vars(av)) for av in averagers]
    spectra = []
    original = averaging._kernel_spectrum

    def keeping(stencil, coeffs, shape):
        spectrum = original(stencil, coeffs, shape)
        spectra.append(weakref.ref(spectrum))
        return spectrum

    monkeypatch.setattr(averaging, "_kernel_spectrum", keeping)
    workspaces = []

    def keep_workspace(kernel_spectra):
        if not workspaces:
            workspaces.append(weakref.ref(kernel_spectra))
            workspaces.extend(weakref.ref(a) for a in workspace_arrays(kernel_spectra))

    keep_spectra(monkeypatch, keep_workspace)
    result = run(config, scenario=scenario)
    gc.collect()
    assert len(spectra) == 4
    assert len(workspaces) == 8
    # neither the kept scenario nor the result holds a spectrum, the
    # spectra object or any of its work arrays
    assert all(ref() is None for ref in spectra + workspaces)
    assert [set(vars(av)) for av in averagers] == attributes
    assert result.state.t == 0.1


def test_population_count_mismatches_rejected():
    no_populations = preset("corridor-eq20")
    no_populations["populations"] = []
    short_betas = preset("corridor-eq20")
    short_betas["populations"][0]["betas"] = [0.2]
    long_l2 = preset("corridor-eq20")
    long_l2["populations"][0]["kernels"]["l2"] = [0.5, 0.5, 0.5]
    for cfg in (no_populations, short_betas, long_l2):
        with pytest.raises(ConfigError, match="population"):
            init_scenario(RunConfig(scenario=cfg, h=0.0625))


def three_population_config():
    cfg = preset("corridor-eq20")
    cfg["populations"][0]["betas"] = [0.2, 0.5, 0.3]
    cfg["populations"][1]["betas"] = [0.5, 0.2, 0.3]
    cfg["populations"].append(
        {
            "speed_law": {"amplitude": 1.25, "capacity": 4.5},
            "kernels": {"l1": 0.1875, "l2": [0.5, 0.5, 0.75]},
            "betas": [0.3, 0.3, 0.2],
            "target_exits": [1],
        }
    )
    return RunConfig(scenario=cfg, h=0.0625, final_time=0.5)


@pytest.fixture(scope="module")
def three_populations():
    config = three_population_config()
    return config, init_scenario(config)


def test_three_population_corridor_run(three_populations):
    config, scenario = three_populations
    # total average, one gradient per density, and population 3's wider
    # view of its own density
    assert len(scenario.model.channels) == 5
    result = run(config, scenario=scenario)
    m0 = result.records[0].mass
    assert len(m0) == 3
    for rec in result.records:
        for i in range(3):
            assert abs(m0[i] - rec.mass[i] - rec.outflux[i]) <= 1e-10 * m0[i]
    assert min(float(np.min(rho.values)) for rho in result.state.densities) >= -1e-12
    assert result.state.t == 0.5


def test_three_population_relabeling_permutes_velocities(three_populations):
    _, scenario = three_populations
    model = scenario.model
    order = (2, 0, 1)  # new population k is old population order[k]
    new_label = {old: new for new, old in enumerate(order)}

    def relabel(channel):
        sources = tuple(sorted(new_label[i] for i in channel.sources))
        return Channel(channel.kind, sources, channel.averager)

    relabeled = ModelSpec(
        populations=[
            PopulationModel(
                pop.speed_law,
                pop.w,
                tuple(pop.betas[j] for j in order),
                relabel(pop.average),
                tuple(relabel(pop.gradients[j]) for j in order),
            )
            for pop in (model.populations[i] for i in order)
        ]
    )
    rng = np.random.default_rng(43)
    interior = scenario.mask.interior
    rhos = [
        ScalarField(scenario.grid, np.where(interior, rng.uniform(0, 2, interior.shape), 0.0))
        for _ in range(3)
    ]
    v = eval_velocities(model, assemble_nonlocal(rhos, KernelSpectra(model.channels)))
    w = eval_velocities(
        relabeled, assemble_nonlocal([rhos[i] for i in order], KernelSpectra(relabeled.channels))
    )
    for k, i in enumerate(order):
        assert np.max(np.abs(w[k].x - v[i].x)) <= 1e-13
        assert np.max(np.abs(w[k].y - v[i].y)) <= 1e-13


def same_channels(a, b):
    assert list(a) == list(b)
    for channel, x in a.items():
        y = b[channel]
        if channel.kind == "average":
            assert np.array_equal(x.values, y.values)
        else:
            assert np.array_equal(x.x, y.x) and np.array_equal(x.y, y.y)


@pytest.mark.parametrize(
    "config",
    [room_config, corridor_config, three_population_config],
    ids=["room", "corridor", "three-populations"],
)
def test_run_spectra_give_the_same_bits(config):
    scenario = init_scenario(config())
    spectra = StepBuffers.for_scenario(scenario).spectra
    interior = scenario.mask.interior
    rng = np.random.default_rng(29)
    # two calls on the run's spectra: reusing them changes nothing
    for _ in range(2):
        rhos = [
            ScalarField(scenario.grid, np.where(interior, rng.uniform(0, 3, interior.shape), 0.0))
            for _ in scenario.initial
        ]
        fresh = assemble_nonlocal(rhos, KernelSpectra(scenario.model.channels))
        same_channels(assemble_nonlocal(rhos, spectra), fresh)


# ---------------------------------------------------------------- Picard sweeps


@pytest.mark.parametrize("kwargs", [{"max_iter": 0}, {"tol": -1.0}, {"tol": float("nan")}])
def test_picard_checks_its_arguments_before_set_up(monkeypatch, kwargs):
    from crowdflow import simulator

    built = []
    original = simulator.init_scenario

    def counting(config):
        built.append(config)
        return original(config)

    monkeypatch.setattr(simulator, "init_scenario", counting)
    with pytest.raises(ConfigError):
        picard_solve(room_config(), **kwargs)
    assert built == []
    picard_solve(room_config(), max_iter=1)
    assert len(built) == 1


def test_picard_zero_data_converges_immediately():
    cfg = room_config(overrides={"initial": {"counts": [0, 0, 0, 0]}})
    result = picard_solve(cfg)
    assert result.converged
    assert result.iterations == 1
    assert result.distances == [0.0]


def test_picard_density_independent_velocity_converges_in_one_sweep():
    cfg = preset("room-eq25")
    cfg["populations"][0]["speed_law"]["capacity"] = float("inf")
    cfg["populations"][0]["betas"] = [0.0]
    result = picard_solve(RunConfig(scenario=cfg, h=0.125), max_iter=6, tol=0.0)
    # the first sweep already lands on the fixed point; the second detects it
    assert result.converged
    assert result.iterations == 2
    assert result.distances[0] > 0.0
    assert result.distances[1] == 0.0


def test_picard_bound_holds_for_a_negative_avoidance_weight():
    # a damped gradient is shorter than one, so avoidance adds at most |beta|
    # to the speed whichever way beta points: the bound sums |beta|
    cfg = preset("room-eq25")
    cfg["populations"][0]["betas"] = [-0.6]
    config = RunConfig(scenario=cfg, h=0.125)
    scenario = init_scenario(config)
    spectra = StepBuffers.for_scenario(scenario).spectra
    (vel,) = eval_velocities(
        scenario.model, assemble_nonlocal(scenario.initial_state().densities, spectra)
    )
    assert np.max(vel.magnitude()) <= scenario.model.velocity_bound
    result = picard_solve(config, max_iter=3, tol=0.0)
    assert result.iterations == 3
    assert all(np.isfinite(d) for d in result.distances)


def picard_events(monkeypatch):
    """Log picard_solve's assemblies ("A") and steps (("S", node stepped from))."""
    from crowdflow import simulator

    events = []
    keep_spectra(monkeypatch, lambda spectra: events.append("A"))
    original = simulator._advance

    def advancing(scenario, state, *args):
        events.append(("S", state.step_index))
        return original(scenario, state, *args)

    monkeypatch.setattr(simulator, "_advance", advancing)
    return events


def expected_sweeps(m, sweeps):
    """Sweep 0 assembles once and steps every node; sweep k >= 1 assembles
    and steps nodes k..m-1 only, and sweep m does nothing."""
    events = ["A"] + [("S", j) for j in range(m)]
    for k in range(1, sweeps):
        for j in range(k, m):
            events += ["A", ("S", j)]
    return events


def test_picard_sweep_zero_assembles_once(monkeypatch):
    events = picard_events(monkeypatch)
    result = picard_solve(room_config(), max_iter=3, tol=0.0)
    assert result.iterations == 3
    # the initial state's velocities serve all 20 nodes of sweep 0; sweep
    # k >= 1 starts at node k, so 1 + 19 + 18 assemblies for 20 + 19 + 18 steps
    assert events == expected_sweeps(20, 3)
    assert events.count("A") == 38


def test_picard_sweep_m_assembles_and_advances_nothing(monkeypatch):
    cfg = room_config()
    window = 4.0 * picard_dt(init_scenario(cfg))
    events = picard_events(monkeypatch)
    result = picard_solve(cfg, window=window, max_iter=8, tol=0.0)
    # a 4-step window settles one node per sweep; sweep 4 only confirms it
    assert result.iterations == 5
    assert result.converged
    assert result.distances[-1] == 0.0
    assert all(d > 0.0 for d in result.distances[:-1])
    assert events == expected_sweeps(4, 5)


def room_counts_config(counts):
    return room_config(overrides={"initial": {"counts": counts}})


@pytest.mark.parametrize(
    "config, max_iter",
    [
        *(
            (functools.partial(room_counts_config, counts), max_iter)
            for counts in ([16, 8, 12, 12], [4, 20, 6, 18])
            for max_iter in (1, 3, 5, 25)
        ),
        (corridor_config, 6),
    ],
)
def test_picard_matches_full_sweeps_bitwise(config, max_iter):
    from full_sweeps import full_sweeps

    fast = picard_solve(config(), max_iter=max_iter, tol=0.0)
    full = full_sweeps(config(), max_iter=max_iter, tol=0.0)
    assert fast.distances == full.distances
    assert fast.iterations == full.iterations
    assert fast.converged == full.converged
    assert fast.non_contraction == full.non_contraction
    assert fast.dt == full.dt
    assert fast.state.t == full.state.t
    assert fast.state.step_index == full.state.step_index
    assert len(fast.state.densities) == len(full.state.densities)
    for a, b in zip(fast.state.densities, full.state.densities):
        assert a.values.tobytes() == b.values.tobytes()


def test_picard_coupling_constant_agrees_across_meshes():
    # L = (d1/d0)/tau over one window tau = 20 picard_dt at h = 1/8 on both
    # meshes.  It read 0.6715 at h = 1/8 and 0.7075 at h = 1/16 on the
    # preset, and the h = 1/16 value ran 5.4% to 10.3% above the h = 1/8
    # one over nine head-count data; the margin is half again that largest gap
    tau = 20.0 * picard_dt(init_scenario(room_config()))
    coupling = []
    for h in (0.125, 0.0625):
        result = picard_solve(room_config(h=h), window=tau, max_iter=2, tol=0.0)
        d0, d1 = result.distances
        assert d0 > 0.0 and d1 > 0.0
        coupling.append(d1 / d0 / tau)
    assert abs(coupling[1] / coupling[0] - 1.0) <= 0.15


def test_picard_contracts_and_matches_direct_stepping():
    cfg = room_config()
    scenario = init_scenario(cfg)
    window = 16.0 * picard_dt(scenario)
    result = picard_solve(cfg, window=window, max_iter=30, tol=1e-12)
    assert result.converged
    assert all(b < a for a, b in zip(result.distances, result.distances[1:]))
    state = result.state
    fresh = init_scenario(cfg)
    direct = fresh.initial_state()
    buffers = StepBuffers.for_scenario(fresh)
    n = int(round(window / result.dt))
    for _ in range(n):
        # the a-priori bound keeps the Picard step within every CFL bound
        direct, dt = step(fresh, direct, buffers, dt_max=result.dt)
        assert dt == result.dt
    gap = fresh.grid.cell_area * float(
        np.sum(
            np.abs(direct.densities[0].values - state.densities[0].values)
        )
    )
    assert gap <= 1e-8
