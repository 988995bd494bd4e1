"""Linear transport on a bounded domain: exact oracle and finite volumes.

For a divergence-form linear equation  d/dt r + div(r u(x)) = 0  with
zero inflow, the exact solution follows characteristics: integrate
dx/dtau = u(x) backward from (t, x); if the path reaches tau = 0
inside the domain the value is the initial datum there times
exp(-integral of div u along the path), and if the path hits the boundary
first the value is zero (whatever flows in from outside carries nothing).
:func:`exact_solution` evaluates this per cell center and doubles as the
reference the finite-volume scheme is tested against.

The scheme itself is a dimensionwise Lax-Friedrichs flux with one global
wave speed per axis and a tunable viscosity factor, plus boundary fluxes
that express the model: walls are impermeable, and exits take the same
Lax-Friedrichs flux against the empty exterior, clamped to outflow only.
The wave speeds are the velocity's, so :func:`wave_speeds` takes them once
per velocity field and both :func:`cfl_dt` and the step read them.  A step
allocates one array, the new density, which also accumulates the
divergence: r*u, the face fluxes, the density jumps and the y part of the
divergence are written in place into :class:`TransportBuffers`, which a
run allocates once, and the faces to zero or to treat as exits come from
index sets the :class:`CellMask` computes once.  The face fluxes of both
axes are built on flat, contiguous arrays: the y faces read copies of the
density and r*u with one zero column appended, so that, read flat, each
cell's y neighbour is the next element.  The elementwise operations are
those of the plain formulas, in the same order, so the result does not
depend on whether the buffers are fresh or reused.
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
    "TransportBuffers",
    "cfl_dt",
    "wave_speeds",
    "FieldDiagnostics",
    "discrete_diagnostics",
]


class VelocityModel(Protocol):
    """Time-independent analytic velocity field with divergence, evaluable
    anywhere nearby.

    ``velocity`` returns new arrays, which the caller may overwrite.
    ``divergence`` may return a float where the divergence is constant;
    it then stands for that value at every point.
    """

    def velocity(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ...

    def divergence(self, x: np.ndarray, y: np.ndarray) -> np.ndarray | float:
        ...


@dataclass(frozen=True)
class ContractionVelocity:
    """u = -rate * x, pulling everything toward the origin."""

    rate: float = 1.0

    def velocity(self, x, y):
        return -self.rate * x, -self.rate * y

    def divergence(self, x, y):
        return -2.0 * self.rate


@dataclass(frozen=True)
class RotationVelocity:
    """Rigid rotation about a center, divergence free."""

    center: tuple[float, float] = (0.0, 0.0)
    omega: float = 1.0

    def velocity(self, x, y):
        return -self.omega * (y - self.center[1]), self.omega * (x - self.center[0])

    def divergence(self, x, y):
        return 0.0


@dataclass
class LinearProblem:
    """Linear transport data: geometry, velocity model, initial field."""

    domain: Domain
    grid: Grid
    mask: CellMask
    velocity: VelocityModel
    initial: ScalarField


def _rk4_stage(model: VelocityModel, x, y, a, step):
    """One RK4 step of size `step` on (x, y, accumulated divergence)."""

    def f(px, py):
        ux, uy = model.velocity(px, py)
        return ux, uy, model.divergence(px, py)

    k1 = f(x, y)
    k2 = f(x + 0.5 * step * k1[0], y + 0.5 * step * k1[1])
    k3 = f(x + 0.5 * step * k2[0], y + 0.5 * step * k2[1])
    k4 = f(x + step * k3[0], y + step * k3[1])
    nx = x + step / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    ny = y + step / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    na = a + step / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    return nx, ny, na


def exact_solution(problem: LinearProblem, t: float) -> ScalarField:
    """Exact linear-transport solution at time t, sampled on cell centers.

    All interior cell centers are integrated backward together; cells whose
    path leaves the domain get value zero, the rest get the bilinearly
    interpolated initial datum at the foot of the path times the Jacobian
    factor exp(-integral div u).  The paths take ceil(t / dtau) equal
    fourth-order Runge-Kutta steps, with dtau = min(h / (2 vmax), t / 32)
    where vmax is the largest |u1| or |u2| over every cell center, and
    dtau = t / 32 where the velocity vanishes on all of them.
    """
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    grid, mask = problem.grid, problem.mask
    out = np.zeros(grid.shape)
    if t == 0.0:
        out[mask.interior] = problem.initial.values[mask.interior]
        return ScalarField(grid, out)
    xx, yy = grid.center_mesh()
    # the sampled velocity is not kept through the integration
    speeds = [float(np.max(np.abs(u))) for u in problem.velocity.velocity(xx, yy)]
    vmax = max(*speeds, 0.0)
    dtau = min(0.5 * grid.h / vmax, t / 32.0) if vmax > 0.0 else t / 32.0
    n_steps = max(1, int(math.ceil(t / dtau - 1e-12)))
    # the field is autonomous: the nodes only fix the step sizes
    taus = np.linspace(t, 0.0, n_steps + 1)

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
        x, y, acc = _rk4_stage(model, x, y, acc, step)
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


class TransportBuffers:
    """Work arrays of :func:`lf_step_detailed`, :func:`wave_speeds` and
    :func:`discrete_diagnostics`.

    Three flat arrays of (nx + 2) * (ny + 2) floats, each viewed in the
    shapes the functions need one after another.  The first holds the face
    fluxes of one axis at a time, or the zero-bordered density; the second
    holds a cell-sized array (r*u, |u|), r*u in the column layout, the
    density jumps across internal faces, the y flux differences in the
    column layout, or the differences of the bordered density; the third
    holds the density in the column layout.  The column layout is an
    (nx, ny + 1) array whose last column is zero: read flat, the two cells
    beside y face k are elements k - 1 and k, and the faces where a row
    wraps into the next are the box's bottom and top edges, which are
    never internal.  Nothing read from the buffers survives a call, so one
    set serves every population and every step of a run, and the
    functions run on the caller's set.
    """

    def __init__(self, shape: tuple[int, int]) -> None:
        nx, ny = shape
        slots = np.empty((3, (nx + 2) * (ny + 2)))

        def view(k: int, rows: int, cols: int) -> np.ndarray:
            return slots[k, : rows * cols].reshape(rows, cols)

        self.flux = (view(0, nx + 1, ny), view(0, nx, ny + 1))
        self.padded = view(0, nx + 2, ny + 2)
        self.cells = view(1, nx, ny)
        self.columns = (view(2, nx, ny + 1), view(1, nx, ny + 1))
        self.diffs = (view(1, nx + 1, ny + 2), view(1, nx + 2, ny + 1))
        self.columns[0][:, ny] = 0.0


def _axis_fluxes(
    flux: np.ndarray,
    r_flat: np.ndarray,
    ru_flat: np.ndarray,
    stride: int,
    r: np.ndarray,
    u: np.ndarray,
    faces: FaceSets,
    visc: float,
) -> float:
    """Fill ``flux`` for one family of faces; return the outflow through its exits.

    ``r_flat`` and ``ru_flat`` hold the density and r*u, read flat, laid
    out so that the cells beside flat face k are elements k - ``stride``
    and k; the inner faces are those from ``stride`` up to their size.
    ``visc`` is theta times the axis's global wave speed.  Every inner face
    gets the Lax-Friedrichs flux, the density jumps overwriting r*u once
    it is read; the non-internal faces are then zeroed and the exit faces
    overwritten with the same flux against the exterior held at zero
    density, clamped to outflow, from the cell-shaped ``r`` and ``u``.
    The outflow is the summed flux out of the domain, per unit face length.
    """
    n = r_flat.size
    inner = flux.reshape(-1)[stride:n]
    np.add(ru_flat[:-stride], ru_flat[stride:], out=inner)
    np.multiply(inner, 0.5, out=inner)
    jump = ru_flat[: n - stride]
    np.subtract(r_flat[stride:], r_flat[:-stride], out=jump)
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
    speeds: tuple[float, float],
    dt: float,
    mask: CellMask,
    theta: float,
    buffers: TransportBuffers,
) -> tuple[ScalarField, float]:
    """One conservative update: the new density, and the mass that left
    through exit faces during the step.

    Internal faces use the Lax-Friedrichs flux
        F = (rho_L u_L + rho_R u_R) / 2 - theta * alpha * (rho_R - rho_L) / 2
    with alpha the per-axis global max |u|, given as ``speeds`` (what
    :func:`wave_speeds` returns for ``u``).  Wall faces carry zero flux.
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
    ax, ay = speeds
    h = grid.h
    if dt * (ax / h + ay / h) > 1.0 + 1e-9:
        raise ValueError(
            f"time step {dt} violates the stability bound "
            f"1 / (|u1|/h + |u2|/h) = {1.0 / (ax / h + ay / h)}"
        )

    ny = grid.ny
    r = rho.values
    fx, fy = buffers.flux
    x_faces, y_faces = mask.face_sets
    # the divergence (dfx/dx + dfy/dy) * dt is accumulated in ``new``, so
    # one axis's fluxes are differenced before the other's are built
    new = np.empty(grid.shape)
    ru = buffers.cells
    np.multiply(r, u.x, out=ru)
    out_x = _axis_fluxes(fx, r.reshape(-1), ru.reshape(-1), ny, r, u.x, x_faces, theta * ax)
    np.subtract(fx[1:], fx[:-1], out=new)
    np.divide(new, h, out=new)

    r_cols, ru_cols = buffers.columns
    np.copyto(r_cols[:, :ny], r)
    np.multiply(r, u.y, out=ru_cols[:, :ny])
    ru_cols[:, ny] = 0.0
    r_flat, ru_flat = r_cols.reshape(-1), ru_cols.reshape(-1)
    out_y = _axis_fluxes(fy, r_flat, ru_flat, 1, r, u.y, y_faces, theta * ay)
    # the jumps are read; the y differences take their place, and the
    # layout's last column, which is no cell, is never read
    diff = ru_flat[:-1]
    fy_flat = fy.reshape(-1)
    np.subtract(fy_flat[1:], fy_flat[:-1], out=diff)
    np.divide(diff, h, out=diff)
    np.add(new, ru_cols[:, :ny], out=new)
    np.multiply(new, dt, out=new)
    np.subtract(r, new, out=new)
    new.reshape(-1)[mask.outside] = 0.0
    return ScalarField(grid, new), dt * (out_x * h + out_y * h)


def wave_speeds(
    u: VectorField, mask: CellMask, buffers: TransportBuffers
) -> tuple[float, float]:
    """The largest |u| per axis over the interior cells, 0.0 without any.

    These are the global wave speeds of :func:`lf_step_detailed` and the
    speeds :func:`cfl_dt` bounds the step by; a field that does not change
    needs them once.
    """
    work = buffers.cells

    def interior_max(component: np.ndarray) -> float:
        np.abs(component, out=work)
        work.reshape(-1)[mask.outside] = 0.0
        return float(work.max())

    return interior_max(u.x), interior_max(u.y)


def cfl_dt(speeds: tuple[float, float], grid: Grid, cfl_number: float) -> float:
    """Stable step size cfl * h / (max|u1| + max|u2| + tiny), given the
    per-axis wave speeds (:func:`wave_speeds`)."""
    if not (0.0 < cfl_number < 1.0):
        raise ValueError(f"CFL number must be in (0, 1), got {cfl_number}")
    ax, ay = speeds
    return cfl_number * grid.h / (ax + ay + 1e-14)


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
    sup = float(np.max(np.abs(v, out=buffers.cells)))
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
    tv = grid.h * jumps_x + grid.h * jumps_y
    return FieldDiagnostics(mass=mass, sup_norm=sup, total_variation=tv)
