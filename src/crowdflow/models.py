"""Crowd velocity law built from averaged densities.

Population i walks at a congestion-limited speed along a precomputed
desired direction (shortest way to its target exits, nudged away from
walls) and drifts away from crowded regions:

    V_i = v_i(avg_i sum_k rho_k) * ( w_i - sum_j beta_ij * g_ij / sqrt(1 + |g_ij|^2) )

with g_ij the averaged density gradient of population j as seen by
population i.  One law covers any number of populations; each population
names the averaged channels it reads, and channels shared between
populations are evaluated once.  The 1/sqrt(1+|g|^2) damping keeps every
avoidance term shorter than beta_ij no matter how steep the crowd gradient
gets, so speeds stay below an a-priori bound; the law damps each gradient
channel once, in place, in the averaged fields it is handed.

Target exits are indices into ``Domain.exits``; the desired field seeds its
distance search from the exit faces the mask assigns to them, so which
face belongs to which exit is decided once, by the geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .averaging import Channel
from .fields import ScalarField, VectorField
from .geometry import CellMask, FaceKind, Grid

__all__ = [
    "SpeedLaw",
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
        if not (0.0 <= self.amplitude < math.inf and self.capacity > 0.0):
            raise ValueError(
                f"speed law needs a finite amplitude >= 0 and capacity > 0, "
                f"got ({self.amplitude}, {self.capacity})"
            )

    def __call__(self, density: np.ndarray | float) -> np.ndarray:
        r = np.asarray(density, dtype=float)
        # cubes by multiplication: ``** 3`` takes a slow path on the
        # ~1e-17 values FFT averages leave in empty regions.  The steps of
        # amplitude * min(1, max(0, (1 - q*q*q) ** 3)), q = r / capacity,
        # run in place in two arrays, in that order; r is never written.
        q = np.divide(r, self.capacity, out=np.empty_like(r))
        shape = np.multiply(q, q, out=np.empty_like(r))
        shape *= q
        np.subtract(1.0, shape, out=shape)
        np.multiply(shape, shape, out=q)
        q *= shape
        np.maximum(0.0, q, out=q)
        np.minimum(1.0, q, out=q)
        return np.multiply(self.amplitude, q, out=q)


# ---------------------------------------------------------------------------
# desired directions


_MOVES = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1),           (0, 1),
    (1, -1),  (1, 0),  (1, 1),
)


def _seed_rows(seeds: Sequence[tuple[int, int, float]], nx: int, ny: int) -> np.ndarray:
    """One seed set as checked (n, 3) rows (i, j, d0) of an nx x ny grid."""
    try:
        rows = np.array(seeds, dtype=float)
    except ValueError:  # ragged rows, or entries that are not numbers
        rows = None
    if rows is None or (rows.size and (rows.ndim != 2 or rows.shape[1] != 3)):
        raise ValueError("every seed must be a row (i, j, d0) of three numbers")
    rows = rows.reshape(-1, 3)
    index = rows[:, :2]
    if not (np.isfinite(index) & (index == np.floor(index))).all():
        raise ValueError("seed cell indices must be whole numbers")
    if ((index < 0) | (index >= (nx, ny))).any():
        raise ValueError(f"a seed cell lies off the {nx} x {ny} grid")
    return rows


def grid_distance(
    grid: Grid,
    passable: np.ndarray,
    seed_sets: Sequence[Sequence[tuple[int, int, float]]],
    limit: float = math.inf,
) -> list[np.ndarray]:
    """Multi-source shortest-path distances on the 8-neighbor cell graph.

    Returns one distance array per seed set, each the distance to the
    nearest seed of its own set.  Axis moves cost the cell spacing,
    diagonal moves its hypotenuse; impassable cells are never entered, and
    neither are seeds on them.  Each seed (i, j, d0) starts cell (i, j) at
    offset d0, the smallest offset winning where seeds of one set share a
    cell; a seed row that is not three entries long, a seed cell index
    that is not a whole number, or a seed cell off the grid raises
    ``ValueError``.  Distances are +inf where unreachable.  The search
    stops once the smallest unsettled distance of every set exceeds
    ``limit``: every cell within the limit still holds its exact distance,
    cells beyond it an upper bound or +inf.

    Cells are settled in bands (Dial's buckets, Delta-stepping): with m the
    smallest tentative distance of the unsettled cells and w = h the
    cheapest move, every unsettled cell below m + w is final, because
    any path into it through unsettled cells adds a move of at least w to
    a distance of at least m, and float addition is monotone.  Each round
    settles such a band and relaxes its 8 neighbors with one
    ``np.minimum.at``.  The labels are the fixed point
    d[v] = min(offset, min over neighbors k of d[k] + c_kv), the one a
    heap Dijkstra reaches, so they match it bit for bit.

    The seed sets share the rounds: set k searches its own copy of the
    padded index space, offset by k (nx + 2)(ny + 2), and the impassable
    ring around each copy keeps every move inside it.  With m taken over
    all sets, a round settles within each set part of that set's own
    band, so every set reaches the same fixed point as a search of it
    alone.
    """
    nx, ny = grid.shape
    # row-major cells of the grid padded by one impassable ring, so a move
    # is an index step and never needs a bounds check
    stride = ny + 2
    padded = np.zeros((nx + 2, stride), dtype=bool)
    padded[1:-1, 1:-1] = passable
    closed = np.tile(~padded.ravel(), len(seed_sets))  # impassable or settled
    dist = np.full(closed.size, math.inf)
    steps = np.array([di * stride + dj for di, dj in _MOVES])
    costs = np.array([math.hypot(di * grid.h, dj * grid.h) for di, dj in _MOVES])
    width = grid.h

    sets = [_seed_rows(seeds, nx, ny) for seeds in seed_sets]
    copy = np.repeat(np.arange(len(sets)), [len(rows) for rows in sets])
    seed_rows = np.concatenate([np.empty((0, 3)), *sets])
    i, j = seed_rows[:, :2].astype(np.intp).T
    cells = copy * padded.size + (i + 1) * stride + j + 1
    offsets = seed_rows[:, 2]
    keep = ~closed[cells] & (offsets < math.inf)
    np.minimum.at(dist, cells[keep], offsets[keep])
    # queued: reached and in the frontier or settled; stamp keeps one copy
    # of each cell a round reaches twice
    queued = np.isfinite(dist)
    stamp = np.zeros(dist.size, dtype=np.intp)
    frontier = np.flatnonzero(queued)
    while frontier.size:
        tentative = dist[frontier]
        m = tentative.min()
        if m > limit:
            break
        in_band = tentative < m + width
        band = frontier[in_band]
        frontier = frontier[~in_band]
        closed[band] = True
        reach = (band[:, None] + steps).ravel()
        candidate = (tentative[in_band][:, None] + costs).ravel()
        unsettled = ~closed[reach]
        reach = reach[unsettled]
        np.minimum.at(dist, reach, candidate[unsettled])
        fresh = reach[~queued[reach]]
        order = np.arange(fresh.size)
        stamp[fresh] = order
        fresh = fresh[stamp[fresh] == order]
        queued[fresh] = True
        frontier = np.concatenate((frontier, fresh))
    copies = dist.reshape(len(sets), nx + 2, stride)
    return [d[1:-1, 1:-1].copy() for d in copies]


def _masked_gradient(
    values: np.ndarray, usable: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Centered differences, one-sided where a neighbor is unusable.

    Unusable cells may hold +inf (unreachable distance); their values are
    replaced by zero before differencing so no inf leaks into the
    arithmetic of branches that are discarded anyway.
    """
    clean = np.where(usable, values, 0.0)

    def axis_gradient(shift_minus, shift_plus, ok_minus, ok_plus):
        g = np.zeros_like(clean)
        both = ok_minus & ok_plus
        g = np.where(both, (shift_plus - shift_minus) / (2.0 * h), g)
        only_plus = ok_plus & ~ok_minus
        g = np.where(only_plus, (shift_plus - clean) / h, g)
        only_minus = ok_minus & ~ok_plus
        g = np.where(only_minus, (clean - shift_minus) / h, g)
        return g

    vp = np.pad(clean, 1, constant_values=0.0)
    up = np.pad(usable, 1, constant_values=False)
    gx = axis_gradient(vp[:-2, 1:-1], vp[2:, 1:-1], up[:-2, 1:-1], up[2:, 1:-1])
    gy = axis_gradient(vp[1:-1, :-2], vp[1:-1, 2:], up[1:-1, :-2], up[1:-1, 2:])
    return gx, gy


def wall_discomfort(
    grid: Grid,
    mask: CellMask,
    discomfort_amp: float,
    discomfort_range: float | None,
) -> VectorField:
    """Inward push away from walls, amp * max(0, 1 - d_wall / range).

    d_wall is the 8-neighbor grid distance (:func:`grid_distance`) from
    the wall-adjacent interior cells; a range of None is ten cells.  It
    depends only on the geometry, so every population of a scenario can
    share one.  The push is nonzero only where d_wall < range, and its
    centred differences read one axis step further, so the search stops
    two diagonal steps beyond the range: everything read is still exact.
    An infinite range pushes with the full amplitude on every cell the
    search reaches.
    """
    interior = mask.interior
    if discomfort_range is None:
        discomfort_range = 10.0 * grid.h
    if not (0.0 <= discomfort_amp < math.inf and discomfort_range > 0.0):
        raise ValueError("discomfort amplitude must be finite and >= 0 and range > 0")

    wall_adjacent = np.zeros(grid.shape, dtype=bool)
    wall_adjacent |= (mask.face_x[:-1, :] == FaceKind.WALL) & interior
    wall_adjacent |= (mask.face_x[1:, :] == FaceKind.WALL) & interior
    wall_adjacent |= (mask.face_y[:, :-1] == FaceKind.WALL) & interior
    wall_adjacent |= (mask.face_y[:, 1:] == FaceKind.WALL) & interior
    disc_x = np.zeros(grid.shape)
    disc_y = np.zeros(grid.shape)
    if wall_adjacent.any():
        wall_seeds = [(int(i), int(j), 0.0) for i, j in zip(*np.nonzero(wall_adjacent))]
        limit = discomfort_range + 2.0 * math.hypot(grid.h, grid.h)
        [d_wall] = grid_distance(grid, interior, [wall_seeds], limit)
        usable = interior & np.isfinite(d_wall)
        wx, wy = _masked_gradient(d_wall, usable, grid.h)
        wnorm = np.hypot(wx, wy)
        wsafe = np.where(wnorm > 1e-12, wnorm, 1.0)
        good = usable & (wnorm > 1e-12)
        strength = np.where(
            good,
            discomfort_amp
            * np.maximum(0.0, 1.0 - np.where(usable, d_wall, 0.0) / discomfort_range),
            0.0,
        )
        # +0.0 where there is no push, whatever the sign of the distance
        # gradient there
        pushed = strength > 0.0
        disc_x = np.where(pushed, strength * wx / wsafe, 0.0)
        disc_y = np.where(pushed, strength * wy / wsafe, 0.0)
    return VectorField(grid, disc_x, disc_y)


def build_desired_field(
    grid: Grid,
    mask: CellMask,
    discomfort: VectorField,
    targets: Sequence[Sequence[int] | None],
) -> list[VectorField]:
    """Each population's desired direction w: the way to its exits plus a wall push.

    Returns one w per entry of ``targets``, the unit steepest-descent
    direction of the geodesic distance to the target exits plus
    ``discomfort``.  An entry lists the target segments by their index in
    ``Domain.exits`` (the mask's ``exit_id``); None targets every exit.
    The geodesic distance is the 8-neighbor grid distance
    (:func:`grid_distance`) seeded at the interior cell beside each target
    exit face, half a cell from the face itself; one search runs every
    entry's seed set.  ``discomfort`` is the geometry's
    :func:`wall_discomfort`, which every population of a scenario shares.
    """
    interior = mask.interior
    d0 = 0.5 * grid.h
    seed_sets = []
    for exits in targets:
        seeds: list[tuple[int, int, float]] = []
        for faces in mask.face_sets:
            target = slice(None) if exits is None else np.isin(faces.exit_id, exits)
            i, j = faces.exit_cell
            seeds += [(a, b, d0) for a, b in zip(i[target].tolist(), j[target].tolist())]
        if not seeds:
            raise ValueError(f"no exit face belongs to the target exits {exits}")
        seed_sets.append(seeds)

    fields = []
    for dist in grid_distance(grid, interior, seed_sets):
        if np.isinf(dist[interior]).any():
            raise ValueError("some interior cells cannot reach the target exits")
        gx, gy = _masked_gradient(dist, interior, grid.h)
        norm = np.hypot(gx, gy)
        safe = np.where(norm > 1e-12, norm, 1.0)
        dir_x = np.where(interior & (norm > 1e-12), -gx / safe, 0.0)
        dir_y = np.where(interior & (norm > 1e-12), -gy / safe, 0.0)
        fields.append(VectorField(grid, dir_x + discomfort.x, dir_y + discomfort.y))
    return fields


# ---------------------------------------------------------------------------
# velocity law


@dataclass
class PopulationModel:
    """Everything one population needs: speed law, desired direction, the
    averaged channels it reads and one avoidance weight per gradient channel.

    ``w`` is the desired direction (:func:`build_desired_field`);
    ``average`` feeds the speed law; ``gradients[j]`` is the averaged
    gradient that ``betas[j]`` steers away from.
    """

    speed_law: SpeedLaw
    w: VectorField
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
    speed bound max_i v_i,max * (max |w_i| + sum_j |beta_ij|): each damped
    gradient is shorter than one, so avoidance adds at most |beta_ij| to the
    direction's length, whichever way beta_ij points."""

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
            wmax = float(np.max(pop.w.magnitude()))
            bound = max(bound, pop.speed_law.amplitude * (wmax + sum(abs(b) for b in pop.betas)))
        self.velocity_bound = bound


def _damped(gradient: VectorField) -> None:
    """Overwrite g with g / sqrt(1 + |g|^2), which is shorter than one.

    sqrt(1.0 + gx**2 + gy**2) accumulates in one work array, then the
    two quotients overwrite the components.  damp(+0.0) = +0.0, so zeros
    stay zeros with no sign bit.
    """
    denom = np.square(gradient.x)
    np.add(1.0, denom, out=denom)
    denom += np.square(gradient.y)
    np.sqrt(denom, out=denom)
    np.divide(gradient.y, denom, out=gradient.y)
    np.divide(gradient.x, denom, out=gradient.x)


def eval_velocities(
    spec: ModelSpec, averaged: Mapping[Channel, ScalarField | VectorField]
) -> list[VectorField]:
    """Velocity of every population, in population order.

    V_i = v_i(avg_i) * (w_i - sum_j beta_ij * damp(g_ij)), where each
    population looks up its average and gradients in ``averaged`` (what
    :func:`~crowdflow.averaging.assemble_nonlocal` returns for
    ``spec.channels``) by channel, not by position.

    The law damps every gradient channel of ``spec.channels`` once, in
    place: it consumes the gradient fields of ``averaged``, which are valid
    only until the next ``assemble_nonlocal`` call anyway, and a second
    call on the same mapping would damp them twice.  Average channels are
    only read, since several populations read one average through
    different speed laws.  Off the interior the gradients hold +0.0, and
    damping keeps it +0.0.
    """
    for channel in spec.channels:
        if channel.kind == "gradient":
            _damped(averaged[channel])
    out: list[VectorField] = []
    for pop in spec.populations:
        w = pop.w
        ux = w.x.copy()
        uy = w.y.copy()
        for beta, channel in zip(pop.betas, pop.gradients):
            ux -= beta * averaged[channel].x
            uy -= beta * averaged[channel].y
        speed = pop.speed_law(averaged[pop.average].values)
        ux *= speed
        uy *= speed
        out.append(VectorField(w.grid, ux, uy))
    return out
