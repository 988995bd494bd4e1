"""Full Picard sweeps: the oracle the tests hold ``picard_solve`` to.

:func:`full_sweeps` is the fixed-point iteration of
:func:`crowdflow.simulator.picard_solve` written the long way: every sweep
starts again from the initial state and advances every node of the
window, with velocities frozen at the previous sweep's node.
``picard_solve`` reuses the nodes the previous sweep already settled
(causality), so the two must agree bit for bit: same distances, same
sweep count and flags, same final densities.  Its cost is m steps per
sweep of an m-step window, so no module of the package runs it.
"""

from __future__ import annotations

import math

import numpy as np

from crowdflow.config import RunConfig
from crowdflow.fields import ScalarField
from crowdflow.simulator import (
    PicardResult,
    StepBuffers,
    _advance,
    _velocities,
    init_scenario,
    picard_dt,
)


def full_sweeps(
    config: RunConfig,
    window: float | None = None,
    max_iter: int = 16,
    tol: float = 1e-10,
) -> PicardResult:
    """``picard_solve(config, window, max_iter, tol)``, every sweep in full."""
    scenario = init_scenario(config)
    dt = picard_dt(scenario)
    if window is None:
        window = 20.0 * dt
    n_steps = max(1, math.ceil(window / dt - 1e-12))
    dt = window / n_steps

    state0 = scenario.initial_state()
    area = scenario.grid.cell_area
    buffers = StepBuffers.for_scenario(scenario)
    prev: list[list[ScalarField]] = [state0.densities] * (n_steps + 1)
    distances: list[float] = []
    converged = False
    non_contraction = False
    final_state = state0

    for iterations in range(1, max_iter + 1):
        state = state0
        trajectory = [state.densities]
        for j in range(n_steps):
            velocities, speeds = _velocities(scenario, prev[j], buffers)
            state = _advance(scenario, state, velocities, speeds, dt, buffers.transport)
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
