"""The benchmark's workloads: inputs made from a seed, the timed solve, and
the checks on its outputs.

Every workload drives crowdflow through its public API only, looking each
function up on the package at call time (``crowdflow.run`` rather than a
name bound at import), so the traced run can wrap it from outside.

Seeds only ever reach the solver as ``RunConfig`` overrides.  Seed 0
reproduces the presets' initial data exactly.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import crowdflow
from crowdflow.simulator import picard_dt

PRESET_SEED = 0

# Correctness bounds, all taken from the repository's acceptance criteria.
LEDGER_TOL = 1e-10       # |d mass + d outflux| per step, relative to m0 (criteria 07, 08)
MASS_GROWTH_TOL = 1e-12  # mass may never grow by more than this share of m0 (criterion 07)
MIN_DENSITY = -1e-12     # positivity floor (criterion 07)

# L1 gap between the finite-volume rotation run at h = 1/128, T = 0.25
# (criterion 06's finest mesh at half its horizon) and exact_solution: the
# seed code measured 4.60858e-3; the bound rounds that up at the fourth
# significant digit.
ORACLE_L1_BOUND = 4.609e-3

PICARD_SWEEPS = 5         # criterion 09's sweep count, with tol = 0 so all run
PICARD_WINDOW_STEPS = 20  # picard_solve's default window, made explicit


class Checks:
    """Correctness checks counted as failed out of attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


@dataclass(frozen=True)
class Case:
    """One workload instance.

    ``solve(scenario)`` is the timed part and returns the workload's answer;
    the scenario is the one the timed ``init_scenario`` built from
    ``config``.  ``check(scenario, answer, checks)`` runs untimed and
    returns the time steps the solve advanced.
    """

    config: crowdflow.RunConfig
    solve: Callable[[crowdflow.Scenario], Any]
    check: Callable[[crowdflow.Scenario, Any, Checks], int]
    mesh: str


def room_counts(seed: int) -> list[float]:
    """Quadrant head counts (clockwise from top-left), 48 in total."""
    if seed == PRESET_SEED:
        return list(crowdflow.preset("room-eq25")["initial"]["counts"])
    rng = np.random.default_rng(seed)
    return [float(4 + c) for c in rng.multinomial(32, [0.25] * 4)]


def corridor_ramp(seed: int) -> tuple[float, float]:
    """Ramp bounds (lo, hi) of the corridor's initial density.

    Only the top of the ramp varies: the nearly empty bottom row sets the
    fastest walkers and so the CFL step, and holding it at the preset's 0
    keeps the number of steps to the horizon the same for every seed.
    """
    initial = crowdflow.preset("corridor-eq20")["initial"]
    if seed == PRESET_SEED:
        return float(initial["lo"]), float(initial["hi"])
    rng = np.random.default_rng(seed)
    return float(initial["lo"]), float(rng.uniform(3.5, 4.0))


def check_run(scenario: crowdflow.Scenario, result: crowdflow.RunResult, checks: Checks) -> int:
    """Ledger, monotone mass, zero wall flux and positivity of one run.

    Returns the number of time steps the run advanced.
    """
    mass = np.array([rec.mass for rec in result.records])
    outflux = np.array([rec.outflux for rec in result.records])
    wallflux = np.array([rec.wallflux for rec in result.records])
    m0 = mass[0]
    ledger = np.abs(np.diff(mass, axis=0) + np.diff(outflux, axis=0))
    checks.expect(
        bool(np.all(ledger <= LEDGER_TOL * m0)),
        f"mass ledger off by {float(np.max(ledger, initial=0.0)):.3e}",
    )
    checks.expect(
        bool(np.all(np.diff(mass, axis=0) <= MASS_GROWTH_TOL * m0)),
        "mass increased during the run",
    )
    checks.expect(bool(np.all(wallflux == 0.0)), "nonzero wall flux recorded")
    check_positive(checks, result.state)
    return len(result.records) - 1


def check_positive(checks: Checks, state: crowdflow.SimState) -> None:
    low = min(float(np.min(rho.values)) for rho in state.densities)
    checks.expect(low >= MIN_DENSITY, f"density dipped to {low:.3e}")


def _run(config: crowdflow.RunConfig) -> Callable[[crowdflow.Scenario], Any]:
    def solve(scenario: crowdflow.Scenario) -> crowdflow.RunResult:
        return crowdflow.run(config, scenario=scenario)

    return solve


def room_fine(seed: int, tiny: bool, work_dir: Path) -> Case:
    h, T = (0.125, 0.1) if tiny else (0.0625, 0.03)
    config = crowdflow.RunConfig(
        scenario="room-eq25",
        h=h,
        final_time=T,
        overrides={"initial": {"counts": room_counts(seed)}},
    )
    return Case(config, _run(config), check_run, f"room-eq25 h={h} T={T}")


def corridor(seed: int, tiny: bool, work_dir: Path) -> Case:
    # h = 1/16 is the coarsest mesh that resolves the corridor's short kernel;
    # snapshots are taken at the start and at the horizon
    T = 0.02 if tiny else 0.1
    lo, hi = corridor_ramp(seed)
    out_dir = work_dir / "corridor"
    config = crowdflow.RunConfig(
        scenario="corridor-eq20",
        h=0.0625,
        final_time=T,
        snap_every=T,
        out_dir=str(out_dir),
        overrides={"initial": {"lo": lo, "hi": hi}},
    )

    def check(scenario: crowdflow.Scenario, result: crowdflow.RunResult, checks: Checks) -> int:
        steps = check_run(scenario, result, checks)
        files = 2 * len(result.state.densities) * 2  # csv + pgm, two captures
        checks.expect(
            len(result.snapshot_paths) == files
            and all(p.is_file() for p in result.snapshot_paths),
            f"expected {files} snapshot files, got {len(result.snapshot_paths)}",
        )
        lines = result.series_path.read_text(encoding="ascii").count("\n")
        checks.expect(
            lines == len(result.records) + 1,
            f"series.csv has {lines} lines for {len(result.records)} records",
        )
        shutil.rmtree(out_dir)
        return steps

    return Case(config, _run(config), check, f"corridor-eq20 h=0.0625 T={T}")


def rotation_oracle(seed: int, tiny: bool, work_dir: Path) -> Case:
    # The datum is fixed in the solver's _build_linear_scenario (a quartic
    # bump at (0.3, 0)), so this workload ignores the seed.  It is small
    # enough that the smoke test runs it at full size too.
    h, T = 1.0 / 128.0, 0.25
    config = crowdflow.RunConfig(scenario="rotation-disc", h=h, final_time=T)

    def solve(scenario: crowdflow.Scenario) -> tuple:
        result = crowdflow.run(config, scenario=scenario)
        return result, crowdflow.exact_solution(scenario.linear, T)

    def check(scenario: crowdflow.Scenario, answer: tuple, checks: Checks) -> int:
        result, exact = answer
        steps = check_run(scenario, result, checks)
        gap = scenario.grid.cell_area * float(
            np.sum(np.abs(result.state.densities[0].values - exact.values))
        )
        checks.expect(
            gap <= ORACLE_L1_BOUND, f"L1 gap to the oracle {gap:.6e} > {ORACLE_L1_BOUND:.6e}"
        )
        return steps

    return Case(config, solve, check, f"rotation-disc h={h} T={T}")


def room_picard(seed: int, tiny: bool, work_dir: Path) -> Case:
    sweeps = 3 if tiny else PICARD_SWEEPS
    config = crowdflow.RunConfig(
        scenario="room-eq25",
        h=0.125,
        overrides={"initial": {"counts": room_counts(seed)}},
    )

    def window(scenario: crowdflow.Scenario) -> float:
        return PICARD_WINDOW_STEPS * picard_dt(scenario)

    def solve(scenario: crowdflow.Scenario) -> crowdflow.PicardResult:
        # picard_solve builds its own scenario from the config; the timed
        # set-up one only fixes the window, as picard_solve's default would
        return crowdflow.picard_solve(
            config, window=window(scenario), max_iter=sweeps, tol=0.0
        )

    def check(scenario: crowdflow.Scenario, result: crowdflow.PicardResult, checks: Checks) -> int:
        d = result.distances
        checks.expect(len(d) == sweeps, f"expected {sweeps} sweeps, got {len(d)}")
        checks.expect(
            all(b < a for a, b in zip(d, d[1:])), f"distances not decreasing: {d}"
        )
        check_positive(checks, result.state)
        area = scenario.grid.cell_area
        m0 = sum(area * float(np.sum(r.values)) for r in scenario.initial)
        m1 = sum(area * float(np.sum(r.values)) for r in result.state.densities)
        checks.expect(m1 <= m0 * (1.0 + MASS_GROWTH_TOL), "mass increased over the window")
        return result.iterations * round(window(scenario) / result.dt)

    return Case(
        config, solve, check, f"room-eq25 h=0.125 picard {sweeps}x{PICARD_WINDOW_STEPS}"
    )


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS: dict[str, Callable[[int, bool, Path], Case]] = {
    "room-fine": room_fine,
    "corridor": corridor,
    "rotation-oracle": rotation_oracle,
    "room-picard": room_picard,
}
