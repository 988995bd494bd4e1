"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``criterion NN PASS/FAIL`` line so the whole
battery can be read off the captured output at a glance.

Criterion 07 asks for 90% of the room's mass out by t = 30 on the desk
mesh (h = 0.125) besides its ledger, wall-flux, positivity and runtime
checks.  Its egress depends on the exit faces carrying the Lax-Friedrichs
viscous term as the internal faces do.  With only the upwind value
rho * max(u_n, 0) at the exits, the internal faces' viscosity (global
speed alpha) keeps feeding the door cells after the speed law has pinned
the door speed near zero at capacity, and the room stalls with 15% of its
mass out; it is not the renormalized average at the door that traps the
crowd."""

import functools
import os
import subprocess
import sys
import time

import numpy as np

import crowdflow
from crowdflow.averaging import DomainAverager
from crowdflow.config import RunConfig, preset
from crowdflow.fields import ScalarField
from crowdflow.geometry import Domain, Grid, build_grid
from crowdflow.kernels import build_stencil, make_quartic_kernel
from crowdflow.simulator import (
    StepBuffers,
    init_scenario,
    picard_dt,
    picard_solve,
    run,
    step,
)
from crowdflow.transport import (
    ContractionVelocity,
    LinearProblem,
    TransportBuffers,
    _rk4_stage,
    discrete_diagnostics,
    exact_solution,
)
from direct_sum import compute_z, convolve_bounded

# Run the CLI as `python -m crowdflow` on the package imported above, so the
# subprocess exercises the code under test whether or not an installed copy
# or console script exists, and whatever the working directory.
CROWDFLOW = [sys.executable, "-m", "crowdflow"]
_SOURCE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(crowdflow.__file__)))


def _cli_env(**overrides):
    env = dict(os.environ, **overrides)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = _SOURCE_ROOT + (os.pathsep + inherited if inherited else "")
    return env


def _report(num, name, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"criterion {num:02d} {status}: {name}", flush=True)
    assert not problems, f"criterion {num:02d} ({name}): " + "; ".join(problems)


def contraction_problem(h):
    dom = Domain.disc((0.0, 0.0), 1.0)
    grid, mask = build_grid(dom, h)
    initial = ScalarField(grid, np.where(mask.interior, 2.0, 0.0))
    return LinearProblem(
        domain=dom,
        grid=grid,
        mask=mask,
        velocity=ContractionVelocity(),
        initial=initial,
    )


def room_domain():
    return Domain.rectangle(
        (0.0, 8.0, -4.0, 4.0),
        exits=[((8.0, -1.0), (8.0, 1.0))],
        obstacles=[(6.5, 7.0, 1.0, 1.625), (6.5, 7.0, -1.625, -1.0)],
    )


@functools.lru_cache(maxsize=1)
def rotation_run_errors():
    """L1 errors of the full solver on the rotating-bump problem, plus timing."""
    errors = []
    t0 = time.perf_counter()
    for h in (1.0 / 32.0, 1.0 / 64.0, 1.0 / 128.0):
        cfg = RunConfig(scenario="rotation-disc", h=h, final_time=0.5)
        scenario = init_scenario(cfg)
        result = run(cfg, scenario=scenario)
        ref = exact_solution(scenario.linear, 0.5)
        gap = scenario.grid.cell_area * float(
            np.sum(np.abs(result.state.densities[0].values - ref.values))
        )
        errors.append(gap)
    return errors, time.perf_counter() - t0


def test_criterion_01_contraction_closed_form():
    problems = []
    h = 1.0 / 128.0
    prob = contraction_problem(h)
    xm, ym = prob.grid.center_mesh()
    radius = np.hypot(xm, ym)
    buffers = TransportBuffers(prob.grid.shape)
    tvs = {}
    for t in (0.25, 0.5, 1.0):
        sol = exact_solution(prob, t)
        sup = float(np.max(sol.values))
        expected = 2.0 * np.exp(2.0 * t)
        if abs(sup - expected) > 1e-6:
            problems.append(f"sup at t={t}: {sup} vs {expected}")
        positive = prob.mask.interior & (sol.values > 1e-12)
        supp_radius = float(np.max(radius[positive]))
        if abs(supp_radius - np.exp(-t)) > 2 * h:
            problems.append(
                f"support radius at t={t}: {supp_radius} vs {np.exp(-t)}"
            )
        core = prob.mask.interior & (radius <= np.exp(-t) - 2 * h)
        if not np.all(sol.values[core] > 0.0):
            problems.append(f"support has holes at t={t}")
        tvs[t] = discrete_diagnostics(sol, buffers).total_variation
    for t1, t2 in ((0.25, 0.5), (0.5, 1.0)):
        ratio = tvs[t2] / tvs[t1]
        expected = np.exp(t2 - t1)
        if abs(ratio - expected) > 0.03 * expected:
            problems.append(f"tv ratio {t1}->{t2}: {ratio} vs {expected}")
    _report(1, "contracting disc matches the closed form", problems)


def test_criterion_02_characteristics_against_exponential():
    problems = []
    prob = contraction_problem(1.0 / 32.0)
    for t in (0.25, 0.5, 1.0):
        # backward characteristics of u = -x expand by e^t, so start the
        # probes at radius 0.8 e^{-t} to keep X(0) = x e^t inside the disc
        r = 0.8 * np.exp(-t)
        # the RK4 steps exact_solution takes, here 64 of them along each path
        taus = np.linspace(t, 0.0, 65)
        for angle in (0.3, 2.0, 4.4):
            start = (r * np.cos(angle), r * np.sin(angle))
            x, y, acc = start[0], start[1], 0.0
            left = False
            for tau0, tau1 in zip(taus[:-1], taus[1:]):
                x, y, acc = _rk4_stage(prob.velocity, x, y, acc, float(tau1 - tau0))
                left = left or not prob.domain.inside(np.array(x), np.array(y))
            expected = np.exp(t) * np.array(start)
            rel = np.max(np.abs(np.array([x, y]) - expected)) / np.max(
                np.abs(expected)
            )
            if left or rel > 1e-8:
                problems.append(
                    f"t={t}, x={start}: left the disc {left}, rel error {rel:.2e}"
                )
    _report(2, "backward characteristics reproduce x*exp(t)", problems)


def test_criterion_03_stencil_weight_sums():
    problems = []
    for support in (0.625, 1.5, 0.1875, 0.5):
        kern = make_quartic_kernel(support)
        for divisor, lo, hi in ((20, 0.99, 1.01), (80, 0.999, 1.001)):
            h = support / divisor
            grid = Grid(nx=4, ny=4, h=h, origin=(0.0, 0.0))
            total = build_stencil(kern, grid).weight_sum
            if not (lo <= total <= hi):
                problems.append(f"l={support} at h=l/{divisor}: {total}")
    _report(3, "stencil weights integrate to one", problems)


def test_criterion_04_normalizer_on_the_room():
    problems = []
    dom = room_domain()
    grid, mask = build_grid(dom, 0.03125)
    xm, ym = grid.center_mesh()
    wall_dist = np.minimum.reduce([xm, 8.0 - xm, ym + 4.0, 4.0 - ym])
    for x0, x1, y0, y1 in dom.obstacles:
        dx = np.maximum(np.maximum(x0 - xm, xm - x1), 0.0)
        dy = np.maximum(np.maximum(y0 - ym, ym - y1), 0.0)
        wall_dist = np.minimum(wall_dist, np.hypot(dx, dy))
    for support in (0.625, 1.5):
        stencil = build_stencil(make_quartic_kernel(support), grid)
        # the direct sum and the FFT z the simulator divides by
        for name, z in (
            ("direct", compute_z(grid, mask, stencil).values),
            ("averager", DomainAverager(grid, mask, stencil).z.values),
        ):
            deep = mask.interior & (wall_dist > support + 1e-9)
            if not np.all(z[deep] == stencil.weight_sum):
                problems.append(f"{name}: deep z differs from the free-space sum (l={support})")
            z_min = float(np.min(z[mask.interior]))
            if not z_min > 0.2:
                problems.append(f"{name}: min interior z {z_min} (l={support})")
            for ci, cj in ((0, 0), (0, -1), (-1, 0), (-1, -1)):
                corner = z[ci, cj]
                if abs(corner - 0.25) > 0.05:
                    problems.append(f"{name}: corner z {corner} (l={support})")
    _report(4, "boundary normalizer: free-space deep, a quarter in corners", problems)


def test_criterion_05_averages_stay_in_local_bounds():
    problems = []
    dom = Domain.rectangle((0.0, 4.0, 0.0, 4.0), obstacles=[(1.75, 2.25, 1.75, 2.25)])
    grid, mask = build_grid(dom, 0.125)
    stencil = build_stencil(make_quartic_kernel(0.5), grid)
    averager = DomainAverager(grid, mask, stencil)
    interior = mask.interior
    nx, ny = grid.shape
    const = ScalarField(grid, np.where(interior, 0.7, 0.0))
    fixed = convolve_bounded(const, stencil, averager.z, mask).values
    if np.max(np.abs(fixed[interior] - 0.7)) > 1e-12:
        problems.append("constant density is not a fixed point")
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(100):
        vals = np.where(interior, rng.uniform(0.0, 3.0, grid.shape), 0.0)
        avg = convolve_bounded(ScalarField(grid, vals), stencil, averager.z, mask).values
        lo = np.full(grid.shape, np.inf)
        hi = np.full(grid.shape, -np.inf)
        for (di, dj), w in zip(stencil.offsets, stencil.weights):
            if w == 0.0:
                continue
            i0, i1 = max(0, di), nx + min(0, di)
            j0, j1 = max(0, dj), ny + min(0, dj)
            if i0 >= i1 or j0 >= j1:
                continue
            src = vals[i0 - di : i1 - di, j0 - dj : j1 - dj]
            src_ok = interior[i0 - di : i1 - di, j0 - dj : j1 - dj]
            lo[i0:i1, j0:j1] = np.where(
                src_ok, np.minimum(lo[i0:i1, j0:j1], src), lo[i0:i1, j0:j1]
            )
            hi[i0:i1, j0:j1] = np.where(
                src_ok, np.maximum(hi[i0:i1, j0:j1], src), hi[i0:i1, j0:j1]
            )
        slack = 3.0 * 1e-12
        below = np.max((lo - avg)[interior])
        above = np.max((avg - hi)[interior])
        worst = max(worst, below, above)
    if worst > slack:
        problems.append(f"average left its local range by {worst:.2e}")
    _report(5, "averages are convex combinations of nearby values", problems)


def test_criterion_06_solver_convergence_on_rotation():
    problems = []
    errors, elapsed = rotation_run_errors()
    if not (errors[0] > errors[1] > errors[2]):
        problems.append(f"errors not decreasing: {errors}")
    for coarse, fine in zip(errors, errors[1:]):
        if coarse / fine < 1.4:
            problems.append(f"halving ratio {coarse / fine:.3f} below 1.4")
    if elapsed >= 60.0:
        problems.append(f"convergence study took {elapsed:.1f}s")
    _report(6, "finite-volume errors shrink under mesh halving", problems)


def test_criterion_07_evacuation_room(tmp_path):
    problems = []
    out = tmp_path / "desk"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [
            *CROWDFLOW,
            "run",
            "--scenario",
            "room-eq25",
            "--h",
            "0.125",
            "--T",
            "7.5",
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
        env=_cli_env(),
        timeout=300,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        problems.append(f"CLI run failed: rc={proc.returncode}: {proc.stderr[-200:]}")
    if elapsed >= 120.0:
        problems.append(f"run took {elapsed:.1f}s")
    if not problems:
        rows = (out / "series.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
        mass = data[:, header.index("mass_1")]
        outflux = data[:, header.index("outflux_1")]
        wallflux = data[:, header.index("wallflux_1")]
        if abs(mass[0] - 48.0) > 1e-9:
            problems.append(f"initial mass {mass[0]}")
        if np.any(np.diff(mass) > 1e-12 * 48.0):
            problems.append("mass increased during the run")
        if np.any(wallflux != 0.0):
            problems.append("nonzero wall flux recorded")
        ledger = np.abs(np.diff(mass) + np.diff(outflux))
        if np.max(ledger) > 1e-10 * 48.0:
            problems.append(f"mass ledger off by {np.max(ledger):.2e}")
    # long horizon, in process: positivity throughout, near-total egress
    scenario = init_scenario(RunConfig(scenario="room-eq25", h=0.125, final_time=30.0))
    state = scenario.initial_state()
    buffers = StepBuffers.for_scenario(scenario)
    min_density = 0.0
    eps = 1e-9 * 30.0
    while state.t < 30.0 - eps:
        state, _ = step(scenario, state, buffers, dt_max=30.0 - state.t)
        min_density = min(min_density, float(np.min(state.densities[0].values)))
    if min_density < -1e-12:
        problems.append(f"density dipped to {min_density:.2e}")
    left = scenario.grid.cell_area * float(np.sum(state.densities[0].values))
    if left > 0.1 * 48.0:
        problems.append(f"only {(1 - left / 48.0) * 100:.1f}% exited by t=30")
    _report(7, "room evacuation: ledger, positivity, egress", problems)


def test_criterion_08_corridor_two_populations():
    problems = []
    cfg = RunConfig(scenario="corridor-eq20", h=0.0625, final_time=8.0)
    result = run(cfg)
    masses = np.array([rec.mass for rec in result.records])
    outs = np.array([rec.outflux for rec in result.records])
    for pop in (0, 1):
        ledger = np.abs(np.diff(masses[:, pop]) + np.diff(outs[:, pop]))
        if np.max(ledger) > 1e-10 * masses[0, pop]:
            problems.append(
                f"population {pop + 1} ledger off by {np.max(ledger):.2e}"
            )
    # equal-amplitude variant is exactly mirror symmetric
    mirror_cfg = preset("corridor-eq20")
    mirror_cfg["populations"][1]["speed_law"]["amplitude"] = 1.0
    scenario = init_scenario(
        RunConfig(scenario=mirror_cfg, h=0.0625, final_time=8.0)
    )
    state = scenario.initial_state()
    buffers = StepBuffers.for_scenario(scenario)
    captures = [1.6, 3.2, 4.8, 6.4, 8.0]
    eps = 1e-9 * 8.0
    worst = 0.0
    for stop in captures:
        while state.t < stop - eps:
            state, _ = step(scenario, state, buffers, dt_max=stop - state.t)
        a = state.densities[0].values
        b = state.densities[1].values
        worst = max(worst, float(np.max(np.abs(b - a[::-1, :]))))
    if worst > 1e-9:
        problems.append(f"mirror asymmetry {worst:.2e}")
    relation = ">" if worst > 1e-9 else "<="
    name = "corridor: per-population ledgers and mirror symmetry"
    _report(8, f"{name} (mirror asymmetry {worst:.3e} {relation} 1e-9)", problems)


def test_criterion_09_picard_contraction():
    problems = []
    cfg = RunConfig(scenario="room-eq25", h=0.125)
    fixed = picard_solve(cfg, max_iter=5, tol=0.0)
    if len(fixed.distances) != 5:
        problems.append(f"expected 5 sweeps, got {len(fixed.distances)}")
    if not all(b < a for a, b in zip(fixed.distances, fixed.distances[1:])):
        problems.append(f"distances not decreasing: {fixed.distances}")
    scenario = init_scenario(cfg)
    window = 16.0 * picard_dt(scenario)
    solved = picard_solve(cfg, window=window, max_iter=30, tol=1e-12)
    if not solved.converged:
        problems.append("window iteration did not converge")
    direct = scenario.initial_state()
    buffers = StepBuffers.for_scenario(scenario)
    for _ in range(int(round(window / solved.dt))):
        # the a-priori bound keeps the Picard step within every CFL bound
        direct, dt = step(scenario, direct, buffers, dt_max=solved.dt)
        if dt != solved.dt:
            problems.append(f"CFL step {dt} below the Picard step {solved.dt}")
    gap = scenario.grid.cell_area * float(
        np.sum(np.abs(direct.densities[0].values - solved.state.densities[0].values))
    )
    finest = rotation_run_errors()[0][-1]
    if gap > 2.0 * finest:
        problems.append(f"fixed point vs stepping gap {gap:.2e} > {2 * finest:.2e}")
    _report(9, "Picard sweeps contract and land on the marching solution", problems)


def test_criterion_10_bitwise_reproducibility(tmp_path):
    problems = []
    outputs = []
    for name, threads in (("one", "1"), ("four", "4")):
        out = tmp_path / name
        env = _cli_env(OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [
                *CROWDFLOW,
                "run",
                "--scenario",
                "room-eq25",
                "--h",
                "0.125",
                "--T",
                "1.5",
                "--out",
                str(out),
                "--snap-every",
                "0.5",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        if proc.returncode != 0:
            problems.append(f"run '{name}' failed: {proc.stderr[-200:]}")
        outputs.append(out)
    if not problems:
        a, b = outputs
        if (a / "series.csv").read_bytes() != (b / "series.csv").read_bytes():
            problems.append("series files differ")
        names_a = sorted(p.name for p in a.glob("snap_*"))
        names_b = sorted(p.name for p in b.glob("snap_*"))
        if names_a != names_b or not names_a:
            problems.append(f"snapshot sets differ: {names_a} vs {names_b}")
        else:
            for name in names_a:
                if (a / name).read_bytes() != (b / name).read_bytes():
                    problems.append(f"{name} differs between runs")
    _report(10, "identical runs produce identical bytes", problems)
