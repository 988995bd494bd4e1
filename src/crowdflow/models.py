"""Crowd velocity law built from averaged densities.

Population i walks at a congestion-limited speed along a precomputed
desired direction (shortest way to its exit, nudged away from walls) and
drifts away from crowded regions:

    V_i = v_i(avg_i sum_k rho_k) * ( w_i - sum_j beta_ij * g_ij / sqrt(1 + |g_ij|^2) )

with g_ij the averaged density gradient of population j as seen by
population i.  One law covers any number of populations; each population
names the averaged channels it reads, and channels shared between
populations are evaluated once.  The 1/sqrt(1+|g|^2) damping keeps every
avoidance term shorter than beta_ij no matter how steep the crowd gradient
gets, so speeds stay below an a-priori bound.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .averaging import Channel, NonlocalEval
from .fields import ScalarField, VectorField
from .geometry import CellMask, FaceKind, Grid, Segment, _segment_point_distance

__all__ = [
    "SpeedLaw",
    "DesiredField",
    "build_desired_field",
    "wall_discomfort",
    "grid_distance",
    "PopulationModel",
    "ModelSpec",
    "eval_velocities",
]


@dataclass(frozen=True)
class SpeedLaw:
    """v(r) = amplitude * min(1, max(0, (1 - (r/capacity)^3)^3)).

    Free walking speed below congestion, zero at and beyond the capacity
    density; the clamps also keep the law flat for (unphysical) negative
    densities, so tiny numerical undershoots cannot produce overspeed.
    """

    amplitude: float
    capacity: float

    def __post_init__(self) -> None:
        if self.amplitude < 0.0 or self.capacity <= 0.0:
            raise ValueError(
                f"speed law needs amplitude >= 0 and capacity > 0, "
                f"got ({self.amplitude}, {self.capacity})"
            )

    def __call__(self, density: np.ndarray | float) -> np.ndarray:
        r = np.asarray(density, dtype=float)
        # cubes by multiplication: ``** 3`` takes a slow path on the
        # ~1e-17 values FFT averages leave in empty regions
        q = r / self.capacity
        shape = 1.0 - q * q * q
        shape = shape * shape * shape
        return self.amplitude * np.minimum(1.0, np.maximum(0.0, shape))


# ---------------------------------------------------------------------------
# desired directions


_MOVES = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1),           (0, 1),
    (1, -1),  (1, 0),  (1, 1),
)


def grid_distance(
    grid: Grid,
    passable: np.ndarray,
    seeds: Sequence[tuple[int, int, float]],
) -> np.ndarray:
    """Multi-source shortest-path distance on the 8-neighbor cell graph.

    Axis moves cost the cell spacing, diagonal moves its hypotenuse;
    impassable cells are never entered.  Returns +inf where unreachable.
    """
    dist = np.full(grid.shape, np.inf)
    heap: list[tuple[float, int, int]] = []
    for i, j, d0 in seeds:
        if passable[i, j] and d0 < dist[i, j]:
            dist[i, j] = d0
            heapq.heappush(heap, (d0, i, j))
    costs = {
        (di, dj): math.hypot(di * grid.dx, dj * grid.dy) for di, dj in _MOVES
    }
    nx, ny = grid.shape
    while heap:
        d, i, j = heapq.heappop(heap)
        if d > dist[i, j]:
            continue
        for (di, dj), c in costs.items():
            ni, nj = i + di, j + dj
            if 0 <= ni < nx and 0 <= nj < ny and passable[ni, nj]:
                nd = d + c
                if nd < dist[ni, nj]:
                    dist[ni, nj] = nd
                    heapq.heappush(heap, (nd, ni, nj))
    return dist


def _masked_gradient(
    values: np.ndarray, usable: np.ndarray, dx: float, dy: float
) -> tuple[np.ndarray, np.ndarray]:
    """Centered differences, one-sided where a neighbor is unusable.

    Unusable cells may hold +inf (unreachable distance); their values are
    replaced by zero before differencing so no inf leaks into the
    arithmetic of branches that are discarded anyway.
    """
    clean = np.where(usable, values, 0.0)

    def axis_gradient(shift_minus, shift_plus, ok_minus, ok_plus, spacing):
        g = np.zeros_like(clean)
        both = ok_minus & ok_plus
        g = np.where(both, (shift_plus - shift_minus) / (2.0 * spacing), g)
        only_plus = ok_plus & ~ok_minus
        g = np.where(only_plus, (shift_plus - clean) / spacing, g)
        only_minus = ok_minus & ~ok_plus
        g = np.where(only_minus, (clean - shift_minus) / spacing, g)
        return g

    vp = np.pad(clean, 1, constant_values=0.0)
    up = np.pad(usable, 1, constant_values=False)
    gx = axis_gradient(
        vp[:-2, 1:-1], vp[2:, 1:-1], up[:-2, 1:-1], up[2:, 1:-1], dx
    )
    gy = axis_gradient(
        vp[1:-1, :-2], vp[1:-1, 2:], up[1:-1, :-2], up[1:-1, 2:], dy
    )
    return gx, gy


@dataclass
class DesiredField:
    """Preferred walking directions for one population.

    ``direction`` is the unit steepest-descent direction of the geodesic
    distance to the target exits, ``discomfort`` the inward push near
    walls, ``w`` their sum (what the velocity law actually consumes).
    """

    distance: ScalarField
    direction: VectorField
    discomfort: VectorField
    w: VectorField


def wall_discomfort(
    grid: Grid,
    mask: CellMask,
    discomfort_amp: float = 0.3,
    discomfort_range: float | None = None,
) -> VectorField:
    """Inward push away from walls, amp * max(0, 1 - d_wall / range).

    d_wall is the 8-neighbor Dijkstra distance from the wall-adjacent
    interior cells; the default range is ten cells.  It depends only on
    the geometry, so every population of a scenario can share one.
    """
    interior = mask.interior
    if discomfort_range is None:
        discomfort_range = 10.0 * min(grid.dx, grid.dy)
    if discomfort_amp < 0.0 or discomfort_range <= 0.0:
        raise ValueError("discomfort amplitude must be >= 0 and range > 0")

    wall_adjacent = np.zeros(grid.shape, dtype=bool)
    wall_adjacent |= (mask.face_x[:-1, :] == FaceKind.WALL) & interior
    wall_adjacent |= (mask.face_x[1:, :] == FaceKind.WALL) & interior
    wall_adjacent |= (mask.face_y[:, :-1] == FaceKind.WALL) & interior
    wall_adjacent |= (mask.face_y[:, 1:] == FaceKind.WALL) & interior
    disc_x = np.zeros(grid.shape)
    disc_y = np.zeros(grid.shape)
    if wall_adjacent.any():
        wall_seeds = [(int(i), int(j), 0.0) for i, j in zip(*np.nonzero(wall_adjacent))]
        d_wall = grid_distance(grid, interior, wall_seeds)
        usable = interior & np.isfinite(d_wall)
        wx, wy = _masked_gradient(d_wall, usable, grid.dx, grid.dy)
        wnorm = np.hypot(wx, wy)
        wsafe = np.where(wnorm > 1e-12, wnorm, 1.0)
        good = usable & (wnorm > 1e-12)
        strength = np.where(
            good,
            discomfort_amp
            * np.maximum(0.0, 1.0 - np.where(usable, d_wall, 0.0) / discomfort_range),
            0.0,
        )
        disc_x = strength * wx / wsafe
        disc_y = strength * wy / wsafe
    return VectorField(grid, disc_x, disc_y)


def build_desired_field(
    grid: Grid,
    mask: CellMask,
    exits: Sequence[Segment] | None = None,
    discomfort_amp: float = 0.3,
    discomfort_range: float | None = None,
    discomfort: VectorField | None = None,
) -> DesiredField:
    """Geodesic directions to the chosen exits plus wall discomfort.

    The geodesic distance is the 8-neighbor Dijkstra distance seeded at
    interior cells touching the target exit faces (half a cell from the
    face itself); ``exits`` narrows the targets to faces near the given
    segments, None targets every exit face.  The discomfort is
    :func:`wall_discomfort` with the given amplitude and range, unless a
    ``discomfort`` field already computed for this geometry is passed, in
    which case amplitude and range are not used.
    """
    interior = mask.interior
    if discomfort is None:
        discomfort = wall_discomfort(grid, mask, discomfort_amp, discomfort_range)

    half = 0.5 * min(grid.dx, grid.dy)
    x0, y0 = grid.origin

    def face_selected(kind: np.ndarray, axis: str) -> np.ndarray:
        selected = kind == FaceKind.EXIT
        if exits is not None and selected.any():
            if axis == "x":
                mx, my = np.meshgrid(
                    x0 + np.arange(grid.nx + 1) * grid.dx, grid.y_centers(), indexing="ij"
                )
            else:
                mx, my = np.meshgrid(
                    grid.x_centers(), y0 + np.arange(grid.ny + 1) * grid.dy, indexing="ij"
                )
            near = np.zeros(selected.shape, dtype=bool)
            for seg in exits:
                near |= _segment_point_distance(mx, my, seg) < half
            selected &= near
        return selected

    exit_x = face_selected(mask.face_x, "x")
    exit_y = face_selected(mask.face_y, "y")

    seeds: list[tuple[int, int, float]] = []
    for f, j in zip(*np.nonzero(exit_x)):
        i = f - 1 if f > 0 and interior[f - 1, j] else f
        if 0 <= i < grid.nx and interior[i, j]:
            seeds.append((int(i), int(j), 0.5 * grid.dx))
    for i, f in zip(*np.nonzero(exit_y)):
        j = f - 1 if f > 0 and interior[i, f - 1] else f
        if 0 <= j < grid.ny and interior[i, j]:
            seeds.append((int(i), int(j), 0.5 * grid.dy))
    if not seeds:
        raise ValueError("no target exit faces touch an interior cell")

    dist = grid_distance(grid, interior, seeds)
    if np.isinf(dist[interior]).any():
        raise ValueError("some interior cells cannot reach the target exits")

    gx, gy = _masked_gradient(dist, interior, grid.dx, grid.dy)
    norm = np.hypot(gx, gy)
    safe = np.where(norm > 1e-12, norm, 1.0)
    dir_x = np.where(interior & (norm > 1e-12), -gx / safe, 0.0)
    dir_y = np.where(interior & (norm > 1e-12), -gy / safe, 0.0)

    dist_field = np.where(interior, dist, 0.0)
    return DesiredField(
        distance=ScalarField(grid, dist_field),
        direction=VectorField(grid, dir_x, dir_y),
        discomfort=discomfort,
        w=VectorField(grid, dir_x + discomfort.x, dir_y + discomfort.y),
    )


# ---------------------------------------------------------------------------
# velocity law


@dataclass
class PopulationModel:
    """Everything one population needs: speed law, directions, the averaged
    channels it reads and one avoidance weight per gradient channel.

    ``average`` feeds the speed law; ``gradients[j]`` is the averaged
    gradient that ``betas[j]`` steers away from.
    """

    speed_law: SpeedLaw
    desired: DesiredField
    betas: tuple[float, ...]
    average: Channel
    gradients: tuple[Channel, ...]

    def __post_init__(self) -> None:
        if len(self.gradients) != len(self.betas):
            raise ValueError(
                f"population has {len(self.betas)} avoidance weights "
                f"but {len(self.gradients)} gradient channels"
            )


@dataclass
class ModelSpec:
    """Populations plus what they imply: the distinct averaged channels
    (in first-use order, each evaluated once per step) and the a-priori
    speed bound max_i v_i,max * (max |w_i| + sum_j beta_ij)."""

    populations: list[PopulationModel]
    channels: tuple[Channel, ...] = field(init=False)
    velocity_bound: float = field(init=False)

    def __post_init__(self) -> None:
        self.channels = tuple(
            dict.fromkeys(
                channel
                for pop in self.populations
                for channel in (pop.average, *pop.gradients)
            )
        )
        bound = 0.0
        for pop in self.populations:
            wmax = float(np.max(pop.desired.w.magnitude()))
            bound = max(bound, pop.speed_law.amplitude * (wmax + sum(pop.betas)))
        self.velocity_bound = bound


def _damped(gradient: VectorField) -> tuple[np.ndarray, np.ndarray]:
    """g / sqrt(1 + |g|^2); always shorter than one."""
    denom = np.sqrt(1.0 + gradient.x**2 + gradient.y**2)
    return gradient.x / denom, gradient.y / denom


def eval_velocities(spec: ModelSpec, nonlocal_eval: NonlocalEval) -> list[VectorField]:
    """Velocity of every population, in population order.

    V_i = v_i(avg_i) * (w_i - sum_j beta_ij * damp(g_ij)), where each
    population finds its average and gradients among the evaluated
    channels by channel, not by position.
    """
    results = dict(zip(nonlocal_eval.channels, nonlocal_eval.results))
    out: list[VectorField] = []
    for pop in spec.populations:
        w = pop.desired.w
        speed = pop.speed_law(results[pop.average].values)
        ux = w.x.copy()
        uy = w.y.copy()
        for beta, channel in zip(pop.betas, pop.gradients):
            ax, ay = _damped(results[channel])
            ux -= beta * ax
            uy -= beta * ay
        out.append(VectorField(w.grid, speed * ux, speed * uy))
    return out
