import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from crowdflow.fields import ScalarField, VectorField
from crowdflow.geometry import Domain, FaceKind, Grid, build_grid
from crowdflow.transport import (
    ContractionVelocity,
    LinearProblem,
    RotationVelocity,
    TransportBuffers,
    _rk4_stage,
    cfl_dt,
    discrete_diagnostics,
    exact_solution,
    lf_step_detailed,
    wave_speeds,
)


def disc_problem(h, velocity, initial_fn):
    dom = Domain.disc((0.0, 0.0), 1.0)
    grid, mask = build_grid(dom, h)
    r0 = ScalarField.from_function(grid, initial_fn, mask)
    return LinearProblem(
        domain=dom, grid=grid, mask=mask, velocity=velocity, initial=r0
    )


def bump(cx, cy, radius):
    def fn(x, y):
        s2 = ((x - cx) ** 2 + (y - cy) ** 2) / radius**2
        return np.where(s2 < 1.0, (1.0 - np.minimum(s2, 1.0)) ** 4, 0.0)

    return fn


def velocity_field(problem):
    xm, ym = problem.grid.center_mesh()
    ux, uy = problem.velocity.velocity(xm, ym)
    ux = np.where(problem.mask.interior, ux, 0.0)
    uy = np.where(problem.mask.interior, uy, 0.0)
    return VectorField(problem.grid, ux, uy)


def l1_norm(grid, values):
    return grid.cell_area * float(np.sum(np.abs(values)))


def backward_characteristic(problem, t, point, n):
    """The nodes of n equal RK4 steps from (t, point) back to time zero.

    These are the steps :func:`exact_solution` takes for every cell at
    once; returns the nodes and the forward-time divergence integral.
    """
    taus = np.linspace(t, 0.0, n + 1)
    x, y, acc = point[0], point[1], 0.0
    nodes = [(x, y)]
    for tau0, tau1 in zip(taus[:-1], taus[1:]):
        x, y, acc = _rk4_stage(problem.velocity, x, y, acc, float(tau1 - tau0))
        nodes.append((x, y))
    return np.array(nodes, dtype=float), -float(acc)


# ---------------------------------------------------------------- characteristics


def test_contraction_characteristic_endpoint():
    prob = disc_problem(1.0 / 32.0, ContractionVelocity(), lambda x, y: 2.0)
    t = 0.5
    start = (0.25, -0.15)
    nodes, divergence_integral = backward_characteristic(prob, t, start, 64)
    assert prob.domain.inside(nodes[:, 0], nodes[:, 1]).all()
    expected = np.exp(t) * np.array(start)
    assert np.max(np.abs(nodes[-1] - expected)) <= 1e-8 * np.exp(t)
    assert abs(divergence_integral - (-2.0 * t)) <= 1e-8


def test_zero_velocity_characteristic_is_constant():
    prob = disc_problem(1.0 / 16.0, RotationVelocity(omega=0.0), lambda x, y: 1.0)
    nodes, divergence_integral = backward_characteristic(prob, 0.75, (0.3, 0.4), 32)
    assert np.max(np.abs(nodes - np.array([0.3, 0.4]))) == 0.0
    assert divergence_integral == 0.0


# ---------------------------------------------------------------- exact solution


def test_contraction_closed_form():
    h = 1.0 / 64.0
    t = 0.25
    prob = disc_problem(h, ContractionVelocity(), lambda x, y: 2.0)
    sol = exact_solution(prob, t)
    xm, ym = prob.grid.center_mesh()
    r = np.hypot(xm, ym)
    core = prob.mask.interior & (r <= np.exp(-t) - 2 * h)
    outside = prob.mask.interior & (r >= np.exp(-t) + 2 * h)
    expected = 2.0 * np.exp(2.0 * t)
    assert np.max(np.abs(sol.values[core] - expected)) <= 1e-6 * expected
    assert np.all(sol.values[outside] == 0.0)


def test_zero_velocity_exact_identity():
    prob = disc_problem(1.0 / 32.0, RotationVelocity(omega=0.0), bump(0.2, -0.1, 0.4))
    sol = exact_solution(prob, 0.7)
    assert np.array_equal(
        sol.values[prob.mask.interior], prob.initial.values[prob.mask.interior]
    )


def test_exact_solution_at_time_zero_is_the_datum():
    prob = disc_problem(1.0 / 32.0, RotationVelocity((0.0, 0.0), 1.0), bump(0.2, -0.1, 0.4))
    sol = exact_solution(prob, 0.0)
    interior = prob.mask.interior
    assert sol.values[interior].tobytes() == prob.initial.values[interior].tobytes()
    assert np.all(sol.values[~interior] == 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        exact_solution(prob, -0.1)


@dataclass(frozen=True)
class UniformDrift:
    """u = (10, 0): every path crosses the unit disc within t = 1."""

    def velocity(self, x, y):
        return np.full(np.shape(x), 10.0), np.zeros(np.shape(x))

    def divergence(self, x, y):
        return np.zeros(np.shape(x))


def test_exact_solution_is_zero_once_every_path_has_left():
    prob = disc_problem(1.0 / 16.0, UniformDrift(), lambda x, y: 1.0)
    sol = exact_solution(prob, 1.0)
    assert np.all(sol.values == 0.0)


def test_rotation_transports_bump():
    h = 1.0 / 64.0
    t = np.pi / 2.0
    prob = disc_problem(h, RotationVelocity((0.0, 0.0), 1.0), bump(0.3, 0.0, 0.25))
    sol = exact_solution(prob, t)
    rotated = ScalarField.from_function(prob.grid, bump(0.0, 0.3, 0.25), prob.mask)
    assert np.max(np.abs(sol.values - rotated.values)) <= 0.02
    buffers = TransportBuffers(prob.grid.shape)
    d_sol = discrete_diagnostics(sol, buffers)
    d_0 = discrete_diagnostics(prob.initial, buffers)
    assert abs(d_sol.mass - d_0.mass) <= 0.01 * d_0.mass
    assert abs(d_sol.sup_norm - d_0.sup_norm) <= 0.01 * d_0.sup_norm


def test_exact_solution_l1_contraction_in_data():
    h = 1.0 / 32.0
    t = 0.3
    prob_a = disc_problem(h, ContractionVelocity(), bump(0.2, 0.1, 0.3))
    prob_b = disc_problem(h, ContractionVelocity(), bump(-0.1, 0.0, 0.25))
    sol_a = exact_solution(prob_a, t)
    sol_b = exact_solution(prob_b, t)
    gap_t = l1_norm(prob_a.grid, sol_a.values - sol_b.values)
    gap_0 = l1_norm(prob_a.grid, prob_a.initial.values - prob_b.initial.values)
    assert gap_t <= 1.05 * gap_0 + 1e-12


def test_exact_solution_sup_bounds():
    t = 0.5
    prob = disc_problem(1.0 / 32.0, ContractionVelocity(), lambda x, y: 2.0)
    buffers = TransportBuffers(prob.grid.shape)
    sup_t = discrete_diagnostics(exact_solution(prob, t), buffers).sup_norm
    # |div u| = 2, so the growth envelope is exp(2 t)
    assert sup_t <= 2.0 * np.exp(2.0 * t) * (1.0 + 1e-6)
    rot = disc_problem(1.0 / 32.0, RotationVelocity(), bump(0.3, 0.0, 0.25))
    sup_rot = discrete_diagnostics(exact_solution(rot, t), buffers).sup_norm
    sup_0 = discrete_diagnostics(rot.initial, buffers).sup_norm
    assert sup_rot <= sup_0 + 1e-12


# ---------------------------------------------------------------- finite volumes


def exit_box(size=2.0):
    return Domain.rectangle(
        (0.0, size, 0.0, size), exits=[((size, 0.0), (size, size))]
    )


def box_with_exit(h=0.125, size=2.0):
    return build_grid(exit_box(size), h)


def test_lf_zero_velocity_identity():
    grid, mask = box_with_exit()
    rng = np.random.default_rng(7)
    rho = ScalarField(grid, np.where(mask.interior, rng.uniform(0, 1, grid.shape), 0.0))
    buffers = TransportBuffers(grid.shape)
    still = VectorField.zeros(grid)
    speeds = wave_speeds(still, mask, buffers)
    assert speeds == (0.0, 0.0)
    out, _ = lf_step_detailed(rho, still, speeds, 0.01, mask, 1.0, buffers)
    assert np.array_equal(out.values, rho.values)


def test_lf_closed_box_conserves_mass():
    dom = Domain.rectangle((0.0, 2.0, 0.0, 2.0))
    grid, mask = build_grid(dom, 0.125)
    xm, ym = grid.center_mesh()
    ux = np.where(mask.interior, 0.4 * np.sin(1.7 * xm) * np.cos(ym), 0.0)
    uy = np.where(mask.interior, -0.3 * np.cos(xm * ym), 0.0)
    u = VectorField(grid, ux, uy)
    rng = np.random.default_rng(12)
    rho = ScalarField(grid, np.where(mask.interior, rng.uniform(0, 2, grid.shape), 0.0))
    buffers = TransportBuffers(grid.shape)
    speeds = wave_speeds(u, mask, buffers)
    dt = cfl_dt(speeds, grid, 0.5)
    density, outflux = lf_step_detailed(rho, u, speeds, dt, mask, 1.0, buffers)
    mass_before = grid.cell_area * np.sum(rho.values)
    mass_after = grid.cell_area * np.sum(density.values)
    assert abs(mass_after - mass_before) <= 1e-12 * mass_before
    assert outflux == 0.0


def test_lf_exit_outflux_ledger():
    grid, mask = box_with_exit()
    u = VectorField(
        grid,
        np.where(mask.interior, 1.0, 0.0),
        np.zeros(grid.shape),
    )
    rng = np.random.default_rng(3)
    rho = ScalarField(grid, np.where(mask.interior, rng.uniform(0, 2, grid.shape), 0.0))
    buffers = TransportBuffers(grid.shape)
    speeds = wave_speeds(u, mask, buffers)
    dt = cfl_dt(speeds, grid, 0.5)
    masses = [grid.cell_area * np.sum(rho.values)]
    for _ in range(5):
        rho, outflux = lf_step_detailed(rho, u, speeds, dt, mask, 1.0, buffers)
        mass = grid.cell_area * np.sum(rho.values)
        assert outflux >= 0.0
        assert abs(masses[-1] - mass - outflux) <= 1e-13 * masses[0]
        masses.append(mass)
    assert all(b <= a for a, b in zip(masses, masses[1:]))
    assert masses[-1] < masses[0]  # something did leave


def test_lf_exit_drains_a_stalled_door():
    # mass sits in the exit column with zero normal speed there, while motion
    # elsewhere keeps the global wave speed alpha > 0: the viscous part of
    # the exit flux must still carry mass out, as it carries mass in
    grid, mask = box_with_exit()
    nx = grid.shape[0]
    door = np.zeros(grid.shape, dtype=bool)
    door[nx - 1, :] = True
    ux = np.where(mask.interior & ~door, 1.0, 0.0)
    u = VectorField(grid, ux, np.zeros(grid.shape))
    rho = ScalarField(grid, np.where(mask.interior & door, 3.0, 0.0))
    buffers = TransportBuffers(grid.shape)
    speeds = wave_speeds(u, mask, buffers)
    dt = cfl_dt(speeds, grid, 0.5)
    mass_before = grid.cell_area * np.sum(rho.values)
    density, outflux = lf_step_detailed(rho, u, speeds, dt, mask, 1.0, buffers)
    mass_after = grid.cell_area * np.sum(density.values)
    assert outflux > 0.0
    assert abs(mass_before - mass_after - outflux) <= 1e-13 * mass_before
    assert np.min(density.values) >= -1e-12


def four_exit_box(h=0.125):
    """Box with a central obstacle and one exit on each of its four sides."""
    dom = Domain.rectangle(
        (0.0, 2.0, 0.0, 2.0),
        exits=[
            ((0.0, 0.5), (0.0, 1.5)),
            ((2.0, 0.5), (2.0, 1.5)),
            ((0.5, 0.0), (1.5, 0.0)),
            ((0.5, 2.0), (1.5, 2.0)),
        ],
        obstacles=[(0.75, 1.25, 0.75, 1.25)],
    )
    return build_grid(dom, h)


def random_flow(grid, mask, seed):
    """Positive density and a random velocity on the interior, zero elsewhere."""
    rng = np.random.default_rng(seed)
    rho = ScalarField(grid, np.where(mask.interior, rng.uniform(0.1, 2.0, grid.shape), 0.0))
    u = VectorField(
        grid,
        np.where(mask.interior, rng.uniform(-1.0, 1.0, grid.shape), 0.0),
        np.where(mask.interior, rng.uniform(-1.0, 1.0, grid.shape), 0.0),
    )
    return rho, u


def lf_oracle(rho, u, dt, mask, theta):
    """lf_step_detailed face by face in Python floats.

    Returns the new density, the exit outflux and the exit fluxes split by
    which side of the face is interior.  The outflow of each axis is summed
    with np.sum over the exit faces in row-major order, the order and the
    pairwise summation the vectorized step uses; everything else is one
    face or one cell at a time.
    """
    grid = rho.grid
    nx, ny = grid.shape
    r, inside = rho.values, mask.interior
    cells = list(zip(*np.nonzero(inside)))
    ax = max((abs(float(u.x[c])) for c in cells), default=0.0)
    ay = max((abs(float(u.y[c])) for c in cells), default=0.0)
    branches = {True: [], False: []}

    def family(kinds, comp, visc, low_cell):
        flux = np.zeros(kinds.shape)
        outflow = []
        for f in range(kinds.shape[0]):
            for g in range(kinds.shape[1]):
                lo, hi = low_cell(f, g), (f, g)
                if kinds[f, g] == FaceKind.INTERNAL:
                    rl, rr = float(r[lo]), float(r[hi])
                    ul, ur = float(comp[lo]), float(comp[hi])
                    flux[f, g] = 0.5 * (rl * ul + rr * ur) - 0.5 * visc * (rr - rl)
                elif kinds[f, g] == FaceKind.EXIT:
                    left = min(lo) >= 0 and bool(inside[lo])
                    if left:
                        value = max(0.5 * float(r[lo]) * (float(comp[lo]) + visc), 0.0)
                    else:
                        value = min(0.5 * float(r[hi]) * (float(comp[hi]) - visc), 0.0)
                    flux[f, g] = value
                    outflow.append(value if left else -value)
                    branches[left].append(value)
        return flux, float(np.sum(np.array(outflow)))

    fx, out_x = family(mask.face_x, u.x, theta * ax, lambda f, g: (f - 1, g))
    fy, out_y = family(mask.face_y, u.y, theta * ay, lambda f, g: (f, g - 1))
    new = np.zeros(grid.shape)
    for i in range(nx):
        for j in range(ny):
            if inside[i, j]:
                div = (fx[i + 1, j] - fx[i, j]) / grid.h + (fy[i, j + 1] - fy[i, j]) / grid.h
                new[i, j] = float(r[i, j]) - dt * div
    return new, dt * (out_x * grid.h + out_y * grid.h), branches


def test_four_exit_box_ids_follow_the_sides():
    grid, mask = four_exit_box()
    x_faces, y_faces = mask.face_sets
    f_x, _ = x_faces.exit_face
    _, f_y = y_faces.exit_face
    # exits 0 and 1 on the left and right sides, 2 and 3 on the bottom and top
    assert np.array_equal(np.where(f_x == 0, 0, 1), x_faces.exit_id)
    assert np.array_equal(np.where(f_y == 0, 2, 3), y_faces.exit_id)
    assert set(np.unique(f_x)) == {0, grid.nx}
    assert set(np.unique(f_y)) == {0, grid.ny}
    assert np.array_equal(
        np.bincount(np.concatenate([x_faces.exit_id, y_faces.exit_id])), [8, 8, 8, 8]
    )


def assert_matches_oracle(grid, mask, cases):
    """lf_step_detailed equals lf_oracle bit for bit, per (seed, theta) case.

    Exits with the interior on the low side of the face take the max
    branch, the others the min branch; each case needs mass through both.
    """
    buffers = TransportBuffers(grid.shape)
    for seed, theta in cases:
        rho, u = random_flow(grid, mask, seed)
        speeds = wave_speeds(u, mask, buffers)
        dt = cfl_dt(speeds, grid, 0.5)
        expected, outflux, branches = lf_oracle(rho, u, dt, mask, theta)
        assert any(v > 0.0 for v in branches[True])
        assert any(v < 0.0 for v in branches[False])
        # reused buffers (dirty from the previous case) and fresh ones alike
        for bufs in (buffers, TransportBuffers(grid.shape)):
            density, step_outflux = lf_step_detailed(rho, u, speeds, dt, mask, theta, bufs)
            assert density.values.tobytes() == expected.tobytes()
            assert step_outflux == outflux


def test_lf_matches_per_face_oracle_bitwise():
    grid, mask = four_exit_box()
    assert_matches_oracle(grid, mask, ((5, 1.0), (6, 0.7), (7, 0.3)))


def test_lf_matches_per_face_oracle_on_a_wide_box_with_top_and_bottom_exits():
    # the y faces are built on rows read flat, each row followed by one
    # zero: the faces where a row wraps into the next are the box's bottom
    # and top edges, walls and exits here, next to interior cells in every
    # row.  The check is cell by cell, on a box with nx != ny
    dom = Domain.rectangle(
        (0.0, 3.0, 0.0, 1.25),
        exits=[((0.5, 0.0), (2.25, 0.0)), ((1.0, 1.25), (2.75, 1.25))],
    )
    grid, mask = build_grid(dom, 0.125)
    assert grid.shape == (24, 10) and mask.interior.all()
    x_faces, y_faces = mask.face_sets
    assert x_faces.exit_face[0].size == 0
    assert set(np.unique(y_faces.exit_face[1])) == {0, grid.ny}
    assert_matches_oracle(grid, mask, ((21, 1.0), (22, 0.6)))


def test_lf_step_allocates_only_the_new_density():
    # Beside the new density, numpy's iterator takes a 64 KiB buffer per
    # row-strided operand.  The step has one at a time (r*u into the column
    # layout, then the y differences out of it), discrete_diagnostics two
    # (both operands of its y differences): on this 256 x 256 grid the
    # peak measured the density plus 129,680 bytes.  The bound adds 16 KiB
    # to those two buffers; a grid-sized temporary (512 KiB) or a third
    # buffer breaks it
    grid, mask = four_exit_box(h=1.0 / 128.0)
    rho, u = random_flow(grid, mask, 11)
    buffers = TransportBuffers(grid.shape)
    speeds = wave_speeds(u, mask, buffers)
    dt = cfl_dt(speeds, grid, 0.5)
    first, _ = lf_step_detailed(rho, u, speeds, dt, mask, 1.0, buffers)
    discrete_diagnostics(first, buffers)
    tracemalloc.start()
    try:
        second, _ = lf_step_detailed(first, u, speeds, dt, mask, 1.0, buffers)
        discrete_diagnostics(second, buffers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= rho.values.nbytes + 2 * 65536 + 16384


def test_lf_positivity_under_cfl():
    grid, mask = box_with_exit()
    rng = np.random.default_rng(42)
    buffers = TransportBuffers(grid.shape)
    for _ in range(5):
        ux = np.where(mask.interior, rng.uniform(-1, 1, grid.shape), 0.0)
        uy = np.where(mask.interior, rng.uniform(-1, 1, grid.shape), 0.0)
        u = VectorField(grid, ux, uy)
        rho = ScalarField(
            grid, np.where(mask.interior, rng.uniform(0, 3, grid.shape), 0.0)
        )
        speeds = wave_speeds(u, mask, buffers)
        dt = cfl_dt(speeds, grid, 0.45)
        for _ in range(3):
            rho, _ = lf_step_detailed(rho, u, speeds, dt, mask, 1.0, buffers)
            assert np.min(rho.values) >= -1e-12


def test_lf_rejects_bad_arguments():
    grid, mask = box_with_exit()
    rho = ScalarField.zeros(grid)
    u = VectorField(grid, np.full(grid.shape, 2.0), np.zeros(grid.shape))
    buffers = TransportBuffers(grid.shape)
    speeds = wave_speeds(u, mask, buffers)
    with pytest.raises(ValueError):
        lf_step_detailed(rho, u, speeds, -0.1, mask, 1.0, buffers)
    with pytest.raises(ValueError):
        lf_step_detailed(rho, u, speeds, 0.01, mask, 0.0, buffers)
    with pytest.raises(ValueError, match="stability bound"):
        lf_step_detailed(rho, u, speeds, 1.0, mask, 1.0, buffers)


def test_cfl_dt_values():
    grid = Grid(nx=16, ny=16, h=0.03125, origin=(0.0, 0.0))
    assert abs(cfl_dt((2.0, 2.0), grid, 0.5) - 0.00390625) <= 1e-12
    still = cfl_dt((0.0, 0.0), grid, 0.5)
    assert np.isfinite(still) and still > 1.0
    coarse = Grid(nx=8, ny=8, h=0.0625, origin=(0.0, 0.0))
    assert np.isclose(cfl_dt((2.0, 2.0), coarse, 0.5), 2 * cfl_dt((2.0, 2.0), grid, 0.5), rtol=1e-12)
    with pytest.raises(ValueError):
        cfl_dt((2.0, 2.0), grid, 1.5)


def test_wave_speeds_read_the_interior_only():
    grid, mask = four_exit_box()
    buffers = TransportBuffers(grid.shape)
    _, u = random_flow(grid, mask, 9)
    inside = mask.interior
    expected = (float(np.max(np.abs(u.x[inside]))), float(np.max(np.abs(u.y[inside]))))
    # a velocity off the interior (the obstacle) is no wave speed
    u.x[~inside] = 50.0
    u.y[~inside] = -50.0
    assert wave_speeds(u, mask, buffers) == expected


def test_lf_step_never_reads_a_velocity_off_the_interior():
    # a linear run's sampled field is not masked: off the interior a
    # velocity enters the step only as r*u with r = 0, on faces the step
    # then zeroes or rebuilds from the interior cell
    room = Domain.rectangle(
        (0.0, 8.0, -4.0, 4.0),
        exits=[((8.0, -1.0), (8.0, 1.0))],
        obstacles=[(6.5, 7.0, 1.0, 1.625), (6.5, 7.0, -1.625, -1.0)],
    )
    grid, mask = build_grid(room, 0.125)
    rho, u = random_flow(grid, mask, 13)
    off = ~mask.interior
    assert off.any()
    rng = np.random.default_rng(14)
    wild = VectorField(grid, u.x.copy(), u.y.copy())
    wild.x[off] = rng.uniform(-1e6, 1e6, np.count_nonzero(off))
    wild.y[off] = rng.uniform(-1e6, 1e6, np.count_nonzero(off))
    buffers = TransportBuffers(grid.shape)
    speeds = wave_speeds(u, mask, buffers)
    assert wave_speeds(wild, mask, buffers) == speeds
    dt = cfl_dt(speeds, grid, 0.5)
    density, outflux = lf_step_detailed(rho, u, speeds, dt, mask, 1.0, buffers)
    wild_density, wild_outflux = lf_step_detailed(rho, wild, speeds, dt, mask, 1.0, buffers)
    assert outflux > 0.0
    assert wild_outflux == outflux
    assert wild_density.values.tobytes() == density.values.tobytes()


def test_wave_speeds_ignore_a_swirl_off_the_disc():
    # each rotation component varies along one axis only, over which the
    # disc spans its whole box, so its maxima do not tell the box from the
    # disc; the swirl r * (-y, x), sampled on the whole box and not zeroed,
    # is fastest in the exterior corners
    prob = disc_problem(0.0625, RotationVelocity(), bump(0.0, 0.0, 0.5))
    grid, mask = prob.grid, prob.mask
    xm, ym = grid.center_mesh()
    r = np.hypot(xm, ym)
    u = VectorField(grid, -r * ym, r * xm)
    inside = mask.interior
    expected = (float(np.max(np.abs(u.x[inside]))), float(np.max(np.abs(u.y[inside]))))
    assert max(expected) < 1.0 < min(float(np.max(np.abs(u.x))), float(np.max(np.abs(u.y))))
    assert wave_speeds(u, mask, TransportBuffers(grid.shape)) == expected


def test_diagnostics_zero_and_single_cell():
    grid = Grid(nx=8, ny=8, h=0.25, origin=(0.0, 0.0))
    buffers = TransportBuffers(grid.shape)
    zero = discrete_diagnostics(ScalarField.zeros(grid), buffers)
    assert zero.mass == 0.0 and zero.sup_norm == 0.0 and zero.total_variation == 0.0
    vals = np.zeros(grid.shape)
    vals[3, 4] = 1.7
    d = discrete_diagnostics(ScalarField(grid, vals), buffers)
    assert np.isclose(d.mass, 0.25**2 * 1.7, rtol=1e-13)
    assert d.sup_norm == 1.7
    assert np.isclose(d.total_variation, 4 * 0.25 * 1.7, rtol=1e-13)


def test_diagnostics_disc_indicator_tv():
    h = 1.0 / 128.0
    grid = Grid(nx=256, ny=256, h=h, origin=(-1.0, -1.0))
    xm, ym = grid.center_mesh()
    vals = np.where(xm**2 + ym**2 < 0.25, 2.0, 0.0)
    d = discrete_diagnostics(ScalarField(grid, vals), TransportBuffers(grid.shape))
    # the axis-aligned staircase sees 4/pi times the Euclidean perimeter
    expected = 2.0 * (4.0 / np.pi) * (2.0 * np.pi * 0.5)
    assert abs(d.total_variation - expected) <= 0.1 * expected


def fv_error(prob, final_time, theta):
    u = velocity_field(prob)
    buffers = TransportBuffers(prob.grid.shape)
    speeds = wave_speeds(u, prob.mask, buffers)
    dt = cfl_dt(speeds, prob.grid, 0.5)
    n = max(1, int(np.ceil(final_time / dt)))
    dt = final_time / n
    rho = prob.initial
    for _ in range(n):
        rho, _ = lf_step_detailed(rho, u, speeds, dt, prob.mask, theta, buffers)
    ref = exact_solution(prob, final_time)
    return l1_norm(prob.grid, rho.values - ref.values)


def rotation_fv_error(h, final_time, theta):
    prob = disc_problem(h, RotationVelocity((0.0, 0.0), 1.0), bump(0.3, 0.0, 0.25))
    return fv_error(prob, final_time, theta)


def test_fv_error_shrinks_under_refinement():
    err_coarse = rotation_fv_error(1.0 / 16.0, 0.25, 0.5)
    err_fine = rotation_fv_error(1.0 / 32.0, 0.25, 0.5)
    assert err_fine < err_coarse


@dataclass(frozen=True)
class ShearToExit:
    """u = (a(y), 0) with a rising from 0.5 to 1 along the exit x = 2."""

    def velocity(self, x, y):
        return 0.5 + 0.25 * y, np.zeros(np.shape(x))

    def divergence(self, x, y):
        return np.zeros(np.shape(x))


def exit_fv_error(h, final_time):
    grid, mask = box_with_exit(h)
    prob = LinearProblem(
        domain=exit_box(),
        grid=grid,
        mask=mask,
        velocity=ShearToExit(),
        initial=ScalarField.from_function(grid, bump(1.5, 1.0, 0.4), mask),
    )
    return fv_error(prob, final_time, 1.0)


def test_fv_exit_error_shrinks_under_refinement():
    # the exit speed is below the global wave speed on most of the exit,
    # so the exit flux differs there from the plain upwind value
    err_coarse = exit_fv_error(1.0 / 16.0, 0.5)
    err_fine = exit_fv_error(1.0 / 32.0, 0.5)
    assert err_fine < err_coarse


def test_fv_stability_in_velocity():
    h = 1.0 / 32.0
    final_time = 0.25
    prob = disc_problem(h, RotationVelocity((0.0, 0.0), 1.0), bump(0.3, 0.0, 0.25))
    base_u = velocity_field(prob)
    dt = cfl_dt(wave_speeds(base_u, prob.mask, TransportBuffers(prob.grid.shape)), prob.grid, 0.45)
    n = int(np.ceil(final_time / dt))
    dt = final_time / n

    def advance(omega):
        p = disc_problem(h, RotationVelocity((0.0, 0.0), omega), bump(0.3, 0.0, 0.25))
        u = velocity_field(p)
        rho = p.initial
        buffers = TransportBuffers(p.grid.shape)
        speeds = wave_speeds(u, p.mask, buffers)
        for _ in range(n):
            rho, _ = lf_step_detailed(rho, u, speeds, dt, p.mask, 1.0, buffers)
        return rho.values

    base = advance(1.0)
    gaps = [
        l1_norm(prob.grid, advance(1.0 + delta) - base) for delta in (0.1, 0.05)
    ]
    ratio = gaps[0] / gaps[1]
    assert 1.5 <= ratio <= 2.6
