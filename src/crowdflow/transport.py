"""Linear transport on a bounded domain: exact oracle and finite volumes.

For a divergence-form linear equation  d/dt r + div(r u(t, x)) = 0  with
zero inflow, the exact solution follows characteristics: integrate
dx/dtau = u(tau, x) backward from (t, x); if the path reaches tau = 0
inside the domain the value is the initial datum there times
exp(-integral of div u along the path), and if the path hits the boundary
first the value is zero (whatever flows in from outside carries nothing).
:func:`exact_solution` evaluates this per cell center and doubles as the
reference the finite-volume scheme is tested against.

The scheme itself is a dimensionwise Lax-Friedrichs flux with one global
wave speed per axis and a tunable viscosity factor, plus boundary fluxes
that express the model: walls are impermeable, and exits take the same
Lax-Friedrichs flux against the empty exterior, clamped to outflow only.
A step allocates one array, the new density: r*u, the face fluxes, the
density jumps and the divergence are written in place into
:class:`TransportBuffers`, which a run allocates once, and the faces to
zero or to treat as exits come from index sets the :class:`CellMask`
computes once.  The elementwise operations are those of the plain
formulas, in the same order, so the result does not depend on whether the
buffers are fresh or reused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .fields import ScalarField, VectorField, sample_bilinear
from .geometry import CellMask, Domain, FaceSets, Grid

__all__ = [
    "VelocityModel",
    "ContractionVelocity",
    "RotationVelocity",
    "LinearProblem",
    "exact_solution",
    "lf_step_detailed",
    "TransportStepResult",
    "TransportBuffers",
    "cfl_dt",
    "FieldDiagnostics",
    "discrete_diagnostics",
]


class VelocityModel(Protocol):
    """Analytic velocity field with divergence, evaluable anywhere nearby.

    ``velocity`` returns new arrays, which the caller may overwrite.
    """

    def velocity(self, t: float, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ...

    def divergence(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        ...


@dataclass(frozen=True)
class ContractionVelocity:
    """u = -rate * x, pulling everything toward the origin."""

    rate: float = 1.0

    def velocity(self, t, x, y):
        return -self.rate * x, -self.rate * y

    def divergence(self, t, x, y):
        return np.full(np.shape(x), -2.0 * self.rate)


@dataclass(frozen=True)
class RotationVelocity:
    """Rigid rotation about a center, divergence free."""

    center: tuple[float, float] = (0.0, 0.0)
    omega: float = 1.0

    def velocity(self, t, x, y):
        return -self.omega * (y - self.center[1]), self.omega * (x - self.center[0])

    def divergence(self, t, x, y):
        return np.zeros(np.shape(x))


@dataclass
class LinearProblem:
    """Linear transport data: geometry, velocity model, initial field."""

    domain: Domain
    grid: Grid
    mask: CellMask
    velocity: VelocityModel
    initial: ScalarField


def _default_dtau(problem: LinearProblem, t: float) -> float:
    xx, yy = problem.grid.center_mesh()
    ux, uy = problem.velocity.velocity(t, xx, yy)
    vmax = max(float(np.max(np.abs(ux))), float(np.max(np.abs(uy))), 0.0)
    h = min(problem.grid.dx, problem.grid.dy)
    if vmax > 0.0:
        return min(0.5 * h / vmax, t / 32.0)
    return t / 32.0


def _rk4_stage(model: VelocityModel, tau, x, y, a, step):
    """One RK4 step of size `step` on (x, y, accumulated divergence)."""

    def f(s, px, py):
        ux, uy = model.velocity(s, px, py)
        return ux, uy, model.divergence(s, px, py)

    k1 = f(tau, x, y)
    k2 = f(tau + 0.5 * step, x + 0.5 * step * k1[0], y + 0.5 * step * k1[1])
    k3 = f(tau + 0.5 * step, x + 0.5 * step * k2[0], y + 0.5 * step * k2[1])
    k4 = f(tau + step, x + step * k3[0], y + step * k3[1])
    nx = x + step / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    ny = y + step / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    na = a + step / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    return nx, ny, na


def exact_solution(
    problem: LinearProblem, t: float, dtau: float | None = None
) -> ScalarField:
    """Exact linear-transport solution at time t, sampled on cell centers.

    All interior cell centers are integrated backward together; cells whose
    path leaves the domain get value zero, the rest get the bilinearly
    interpolated initial datum at the foot of the path times the Jacobian
    factor exp(-integral div u).  The paths take fourth-order Runge-Kutta
    steps of at most ``dtau`` (default min(h / 2 max|u|, t/32)), which must
    be positive and finite.
    """
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if dtau is not None and not 0.0 < dtau < math.inf:
        raise ValueError(f"characteristic step must be positive and finite, got {dtau}")
    grid, mask = problem.grid, problem.mask
    out = np.zeros(grid.shape)
    if t == 0.0:
        out[mask.interior] = problem.initial.values[mask.interior]
        return ScalarField(grid, out)
    if dtau is None:
        dtau = _default_dtau(problem, t)
    n_steps = max(1, int(math.ceil(t / dtau - 1e-12)))
    taus = np.linspace(t, 0.0, n_steps + 1)

    xx, yy = grid.center_mesh()
    # only the live paths are kept, packed; ``pos`` is each one's place
    # among the interior cells, and a step where some path leaves compacts
    x = xx[mask.interior].astype(float)
    y = yy[mask.interior].astype(float)
    acc = np.zeros_like(x)
    pos = np.arange(x.size)
    model = problem.velocity
    inside = problem.domain.inside
    for s in range(n_steps):
        if not pos.size:
            break
        step = float(taus[s + 1] - taus[s])
        x, y, acc = _rk4_stage(model, float(taus[s]), x, y, acc, step)
        still = inside(x, y)
        if not still.all():
            x, y, acc, pos = x[still], y[still], acc[still], pos[still]

    values = np.zeros(mask.interior_count)
    if pos.size:
        r0 = sample_bilinear(problem.initial, x, y)
        # `acc` holds the backward integral, which is minus the forward one
        values[pos] = r0 * np.exp(acc)
    out[mask.interior] = values
    return ScalarField(grid, out)


# ---------------------------------------------------------------------------
# finite volumes


@dataclass
class TransportStepResult:
    density: ScalarField
    exit_outflux: float  # mass that left through exit faces during the step


class TransportBuffers:
    """Work arrays of :func:`lf_step_detailed` and :func:`discrete_diagnostics`.

    Two flat arrays of (nx + 2) * (ny + 2) floats, each viewed in the
    shapes the two functions need one after another.  The first holds the
    face fluxes of one axis at a time, or the zero-bordered density; the
    second holds a cell-sized array (r*u, |u|, a divergence term), the
    density jumps across internal faces, or the differences of the
    bordered density.  Nothing read from them survives a call, so one set
    serves every population and every step of a run, and both functions
    run on the caller's set.
    """

    def __init__(self, shape: tuple[int, int]) -> None:
        nx, ny = shape
        slots = np.empty((2, (nx + 2) * (ny + 2)))

        def view(k: int, rows: int, cols: int) -> np.ndarray:
            return slots[k, : rows * cols].reshape(rows, cols)

        self.flux = (view(0, nx + 1, ny), view(0, nx, ny + 1))
        self.padded = view(0, nx + 2, ny + 2)
        self.cells = view(1, nx, ny)
        self.jumps = (view(1, nx - 1, ny), view(1, nx, ny - 1))
        self.diffs = (view(1, nx + 1, ny + 2), view(1, nx + 2, ny + 1))


def _neighbours(a: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the low and the high neighbour across each inner face."""
    if axis == 0:
        return a[:-1], a[1:]
    return a[:, :-1], a[:, 1:]


def _axis_fluxes(
    flux: np.ndarray,
    r: np.ndarray,
    u: np.ndarray,
    ru: np.ndarray,
    jump: np.ndarray,
    faces: FaceSets,
    visc: float,
    axis: int,
) -> float:
    """Fill ``flux`` for one family of faces; return the outflow through its exits.

    ``visc`` is theta times the axis's global wave speed.  Every inner face
    gets the Lax-Friedrichs flux, written in place through ``ru`` (r*u) and
    then ``jump``, which may share its memory; the non-internal faces are
    then zeroed and the exit faces overwritten with the same flux against
    the exterior held at zero density, clamped to outflow.  The outflow is
    the summed flux out of the domain, per unit face length.
    """
    np.multiply(r, u, out=ru)
    inner = flux[1:-1] if axis == 0 else flux[:, 1:-1]
    ru_l, ru_r = _neighbours(ru, axis)
    r_l, r_r = _neighbours(r, axis)
    np.add(ru_l, ru_r, out=inner)
    np.multiply(inner, 0.5, out=inner)
    np.subtract(r_r, r_l, out=jump)
    np.multiply(jump, 0.5 * visc, out=jump)
    np.subtract(inner, jump, out=inner)
    flux.reshape(-1)[faces.non_internal] = 0.0

    left = faces.exit_left
    rc = r[faces.exit_cell]
    uc = u[faces.exit_cell]
    exit_flux = np.where(
        left,
        np.maximum(0.5 * rc * (uc + visc), 0.0),
        np.minimum(0.5 * rc * (uc - visc), 0.0),
    )
    flux[faces.exit_face] = exit_flux
    return float(np.sum(np.where(left, exit_flux, -exit_flux)))


def lf_step_detailed(
    rho: ScalarField,
    u: VectorField,
    dt: float,
    mask: CellMask,
    theta: float,
    buffers: TransportBuffers,
) -> TransportStepResult:
    """One conservative update; also reports the mass leaving through exits.

    Internal faces use the Lax-Friedrichs flux
        F = (rho_L u_L + rho_R u_R) / 2 - theta * alpha * (rho_R - rho_L) / 2
    with alpha the per-axis global max |u|.  Wall faces carry zero flux.
    Exit faces use the same flux against the empty exterior (rho = 0 on
    the outer side, the zero-inflow datum), clamped so only outflow
    survives:
        max(rho_L (u_L + theta * alpha) / 2, 0)   interior cell on the left,
        min(rho_R (u_R - theta * alpha) / 2, 0)   interior cell on the right.
    The viscous part therefore carries mass out of a door cell just as it
    carries mass into it, even where the local speed is near zero; where
    the flow leaves at the full wave speed with theta = 1 this is the
    upwind value rho_in * u_n.  The returned outflux is exactly the
    discrete mass drop.

    All intermediates live in the caller's ``buffers`` and in the returned
    density, the only new array, which also accumulates the divergence.
    """
    grid = rho.grid
    if dt <= 0.0:
        raise ValueError(f"time step must be positive, got {dt}")
    if not (0.0 < theta <= 1.0):
        raise ValueError(f"viscosity factor must be in (0, 1], got {theta}")
    interior = mask.interior
    work = buffers.cells
    ax = float(np.max(np.abs(u.x, out=work), where=interior, initial=0.0))
    ay = float(np.max(np.abs(u.y, out=work), where=interior, initial=0.0))
    if dt * (ax / grid.dx + ay / grid.dy) > 1.0 + 1e-9:
        raise ValueError(
            f"time step {dt} violates the stability bound "
            f"1 / (|u1|/dx + |u2|/dy) = {1.0 / (ax / grid.dx + ay / grid.dy)}"
        )

    r = rho.values
    fx, fy = buffers.flux
    jx, jy = buffers.jumps
    x_faces, y_faces = mask.face_sets
    # the divergence (dfx/dx + dfy/dy) * dt is accumulated in ``new``, so
    # one axis's fluxes are differenced before the other's are built
    new = np.empty(grid.shape)
    out_x = _axis_fluxes(fx, r, u.x, work, jx, x_faces, theta * ax, axis=0)
    np.subtract(fx[1:], fx[:-1], out=new)
    np.divide(new, grid.dx, out=new)
    out_y = _axis_fluxes(fy, r, u.y, work, jy, y_faces, theta * ay, axis=1)
    np.subtract(fy[:, 1:], fy[:, :-1], out=work)
    np.divide(work, grid.dy, out=work)
    np.add(new, work, out=new)
    np.multiply(new, dt, out=new)
    np.subtract(r, new, out=new)
    new.reshape(-1)[mask.outside] = 0.0
    return TransportStepResult(
        density=ScalarField(grid, new),
        exit_outflux=dt * (out_x * grid.dy + out_y * grid.dx),
    )


def cfl_dt(u: VectorField, grid: Grid, cfl_number: float = 0.5) -> float:
    """Stable step size cfl * h / (max|u1| + max|u2| + tiny)."""
    if not (0.0 < cfl_number < 1.0):
        raise ValueError(f"CFL number must be in (0, 1), got {cfl_number}")
    # max|v| as max(max v, -min v): two reads and no temporary
    ax = max(float(np.max(u.x)), -float(np.min(u.x)))
    ay = max(float(np.max(u.y)), -float(np.min(u.y)))
    h = min(grid.dx, grid.dy)
    return cfl_number * h / (ax + ay + 1e-14)


@dataclass(frozen=True)
class FieldDiagnostics:
    mass: float
    sup_norm: float
    total_variation: float


def discrete_diagnostics(rho: ScalarField, buffers: TransportBuffers) -> FieldDiagnostics:
    """Mass, sup norm and grid total variation of a density field.

    The variation counts jumps across every face *including* the jump to
    the zero exterior, so a sharp blob touching nothing still pays its full
    perimeter; that is the quantity whose growth the exact solution
    controls.  The padded copy and the differences live in the caller's
    ``buffers``.
    """
    grid = rho.grid
    v = rho.values
    mass = grid.cell_area * float(np.sum(v))
    sup = float(np.max(np.abs(v, out=buffers.cells))) if v.size else 0.0
    p = buffers.padded
    p[0, :] = 0.0
    p[-1, :] = 0.0
    p[:, 0] = 0.0
    p[:, -1] = 0.0
    p[1:-1, 1:-1] = v
    # the two difference arrays share memory: sum each before the next
    dx_p, dy_p = buffers.diffs
    jumps_x = float(np.sum(np.abs(np.subtract(p[1:], p[:-1], out=dx_p), out=dx_p)))
    jumps_y = float(np.sum(np.abs(np.subtract(p[:, 1:], p[:, :-1], out=dy_p), out=dy_p)))
    tv = grid.dy * jumps_x + grid.dx * jumps_y
    return FieldDiagnostics(mass=mass, sup_norm=sup, total_variation=tv)
