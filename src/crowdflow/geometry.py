"""Bounded 2D domains and their cell/face discretizations.

A :class:`Domain` is an open subset of the plane described by a vectorized
membership predicate plus a bounding box and a list of exit segments on its
boundary.  Cells are square: one mesh width h serves both axes.
:func:`build_grid` lays a uniform cell grid over the bounding box and
classifies cells (interior / obstacle / exterior) by sampling the
predicate at cell centers; :func:`classify_faces` tags every cell face as
internal, wall or exit and names the exit segment that owns each exit
face.  Density is only ever stored on interior cells; wall faces carry
zero flux and exit faces let mass leave.  Exit ownership is worked out
here and nowhere else: the transport step and the desired-direction
fields read it from the mask's :class:`FaceSets`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from enum import IntEnum
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "CellKind",
    "FaceKind",
    "Domain",
    "Grid",
    "FaceSets",
    "CellMask",
    "build_grid",
    "classify_faces",
]

# Rectangles are stored as (x0, x1, y0, y1), segments as ((ax, ay), (bx, by)).
Rect = tuple[float, float, float, float]
Segment = tuple[tuple[float, float], tuple[float, float]]


class CellKind(IntEnum):
    INTERIOR = 0
    OBSTACLE = 1
    EXTERIOR = 2


class FaceKind(IntEnum):
    INACTIVE = 0  # neither side is an interior cell
    INTERNAL = 1  # interior on both sides
    WALL = 2      # interior on one side, no outflow
    EXIT = 3      # interior on one side, outflow allowed


def _segment_point_distance(px, py, seg: Segment):
    """Distance from points (px, py) to a closed segment, vectorized."""
    (ax, ay), (bx, by) = seg
    vx, vy = bx - ax, by - ay
    norm2 = vx * vx + vy * vy
    if norm2 == 0.0:
        return np.hypot(px - ax, py - ay)
    t = np.clip(((px - ax) * vx + (py - ay) * vy) / norm2, 0.0, 1.0)
    return np.hypot(px - (ax + t * vx), py - (ay + t * vy))


@dataclass(frozen=True)
class Domain:
    """Open bounded region with declared exits.

    ``inside`` must accept numpy arrays (x, y) and return a boolean array;
    points exactly on the boundary count as outside (open-set convention,
    which makes boundary ties conservative everywhere downstream).
    """

    bounding_box: Rect
    inside: Callable[[np.ndarray, np.ndarray], np.ndarray]
    exits: tuple[Segment, ...]
    obstacles: tuple[Rect, ...] = ()

    @staticmethod
    def rectangle(
        bounds: Rect,
        exits: Sequence[Segment] = (),
        obstacles: Sequence[Rect] = (),
    ) -> "Domain":
        """Axis-aligned rectangle, minus closed rectangular obstacles."""
        x0, x1, y0, y1 = (float(v) for v in bounds)
        if not all(math.isfinite(v) for v in (x0, x1, y0, y1)):
            raise ValueError(f"rectangle bounds must be finite, got {bounds}")
        if not (x1 > x0 and y1 > y0):
            raise ValueError(f"degenerate rectangle bounds {bounds}")
        obs = tuple(tuple(float(v) for v in r) for r in obstacles)
        for ox0, ox1, oy0, oy1 in obs:
            if not (ox1 > ox0 and oy1 > oy0):
                raise ValueError(f"degenerate obstacle ({ox0}, {ox1}, {oy0}, {oy1})")
            if ox0 < x0 or ox1 > x1 or oy0 < y0 or oy1 > y1:
                raise ValueError("obstacle sticks out of the bounding rectangle")

        def inside(x, y):
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            ok = (x > x0) & (x < x1) & (y > y0) & (y < y1)
            for ox0, ox1, oy0, oy1 in obs:
                ok &= ~((x >= ox0) & (x <= ox1) & (y >= oy0) & (y <= oy1))
            return ok

        dom = Domain(
            bounding_box=(x0, x1, y0, y1),
            inside=inside,
            exits=tuple(exits),
            obstacles=obs,
        )
        dom._validate_rectangle_exits()
        return dom

    @staticmethod
    def disc(center: tuple[float, float], radius: float) -> "Domain":
        """Open disc of the given center and radius, with no exits."""
        cx, cy = float(center[0]), float(center[1])
        radius = float(radius)
        if radius <= 0.0:
            raise ValueError(f"disc radius must be positive, got {radius}")

        def inside(x, y):
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            return (x - cx) ** 2 + (y - cy) ** 2 < radius * radius

        return Domain(
            bounding_box=(cx - radius, cx + radius, cy - radius, cy + radius),
            inside=inside,
            exits=(),
            obstacles=(),
        )

    # -- construction-time validation ------------------------------------

    def _validate_rectangle_exits(self) -> None:
        x0, x1, y0, y1 = self.bounding_box
        tol = 1e-9 * max(x1 - x0, y1 - y0)
        for seg in self.exits:
            (ax, ay), (bx, by) = seg
            on_vertical = (abs(ax - bx) <= tol) and (
                abs(ax - x0) <= tol or abs(ax - x1) <= tol
            )
            on_horizontal = (abs(ay - by) <= tol) and (
                abs(ay - y0) <= tol or abs(ay - y1) <= tol
            )
            if not (on_vertical or on_horizontal):
                raise ValueError(f"exit segment {seg} does not lie on a boundary edge")
            if on_vertical and not (y0 - tol <= min(ay, by) and max(ay, by) <= y1 + tol):
                raise ValueError(f"exit segment {seg} extends past the boundary edge")
            if on_horizontal and not (x0 - tol <= min(ax, bx) and max(ax, bx) <= x1 + tol):
                raise ValueError(f"exit segment {seg} extends past the boundary edge")


@dataclass(frozen=True)
class Grid:
    """Uniform grid of mesh width h; values live at cell centers, indexed
    [ix, iy]."""

    nx: int
    ny: int
    h: float
    origin: tuple[float, float]

    def __post_init__(self) -> None:
        if self.nx <= 0 or self.ny <= 0:
            raise ValueError(f"grid must have positive extents, got {self.nx}x{self.ny}")
        if not 0.0 < self.h < math.inf:
            raise ValueError(f"grid spacing must be positive and finite, got {self.h}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def cell_area(self) -> float:
        return self.h * self.h

    def x_centers(self) -> np.ndarray:
        return self.origin[0] + (np.arange(self.nx) + 0.5) * self.h

    def y_centers(self) -> np.ndarray:
        return self.origin[1] + (np.arange(self.ny) + 0.5) * self.h

    def center_mesh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.x_centers(), self.y_centers(), indexing="ij")


@dataclass(frozen=True)
class FaceSets:
    """Index sets of the faces normal to one axis, fixed by the mask.

    ``non_internal`` holds the flat (row-major) indices of every face that
    is not INTERNAL.  The EXIT faces come in ``np.nonzero`` order:
    ``exit_face`` indexes the face array, ``exit_cell`` the interior cell
    beside each face, ``exit_left`` is True where that cell lies on the
    low side of the face, and ``exit_id`` is the index, in
    ``Domain.exits``, of the segment that owns the face.
    """

    non_internal: np.ndarray
    exit_face: tuple[np.ndarray, np.ndarray]
    exit_cell: tuple[np.ndarray, np.ndarray]
    exit_left: np.ndarray
    exit_id: np.ndarray

    @staticmethod
    def of(
        kinds: np.ndarray, left_interior: np.ndarray, exit_id: np.ndarray, axis: int
    ) -> "FaceSets":
        """Sets of one face family; ``left_interior`` flags, per face, an
        interior cell on its low side."""
        # plain ints: comparing an array with an IntEnum member is far slower
        i, j = np.divmod(np.flatnonzero(kinds == int(FaceKind.EXIT)), kinds.shape[1])
        left = left_interior[i, j]
        cell = (i - left, j) if axis == 0 else (i, j - left)
        return FaceSets(
            non_internal=np.flatnonzero(kinds != int(FaceKind.INTERNAL)),
            exit_face=(i, j),
            exit_cell=cell,
            exit_left=left,
            exit_id=exit_id,
        )


@dataclass
class CellMask:
    """Cell and face classification for one (domain, grid) pair.

    ``cells`` holds :class:`CellKind` codes with shape (nx, ny);
    ``face_x`` has shape (nx+1, ny) for faces normal to x (face f sits
    between cells ix = f-1 and f), ``face_y`` has shape (nx, ny+1).
    ``exit_ids`` holds, per axis, the owning exit segment of each EXIT
    face in row-major face order: one entry per exit face, not per face.
    The index sets the transport step reads are derived on first use and
    kept: ``face_sets`` per axis and ``outside``.
    """

    cells: np.ndarray
    face_x: np.ndarray
    face_y: np.ndarray
    exit_ids: tuple[np.ndarray, np.ndarray]
    interior: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        nx, ny = self.cells.shape
        if self.face_x.shape != (nx + 1, ny) or self.face_y.shape != (nx, ny + 1):
            raise ValueError("face arrays do not match the cell array shape")
        self.interior = self.cells == CellKind.INTERIOR

    @cached_property
    def face_sets(self) -> tuple[FaceSets, FaceSets]:
        """Face index sets normal to x, then to y."""
        nx, ny = self.cells.shape
        pad = np.zeros((nx + 2, ny + 2), dtype=bool)
        pad[1:-1, 1:-1] = self.interior
        return (
            FaceSets.of(self.face_x, pad[:-1, 1:-1], self.exit_ids[0], axis=0),
            FaceSets.of(self.face_y, pad[1:-1, :-1], self.exit_ids[1], axis=1),
        )

    @cached_property
    def outside(self) -> np.ndarray:
        """Flat indices of the non-interior cells."""
        return np.flatnonzero(~self.interior)

    @property
    def interior_count(self) -> int:
        return int(np.count_nonzero(self.interior))


def build_grid(domain: Domain, h: float) -> tuple[Grid, CellMask]:
    """Discretize the bounding box with square cells of side h.

    h must divide both box extents to within rounding; cells are classified
    by their center point: inside the domain -> interior, inside an obstacle
    rectangle -> obstacle, anything else -> exterior.
    """
    if h <= 0.0:
        raise ValueError(f"mesh size must be positive, got {h}")
    x0, x1, y0, y1 = domain.bounding_box
    lx, ly = x1 - x0, y1 - y0
    nx = int(round(lx / h))
    ny = int(round(ly / h))
    if nx == 0 or ny == 0:
        raise ValueError(f"mesh size {h} is larger than the domain box")
    if abs(nx * h - lx) > 1e-9 * max(1.0, lx) or abs(ny * h - ly) > 1e-9 * max(1.0, ly):
        raise ValueError(f"mesh size {h} does not divide the box extents ({lx}, {ly})")

    grid = Grid(nx=nx, ny=ny, h=h, origin=(x0, y0))
    xx, yy = grid.center_mesh()
    ins = domain.inside(xx, yy)
    cells = np.full(grid.shape, CellKind.EXTERIOR, dtype=np.int8)
    cells[ins] = CellKind.INTERIOR
    for ox0, ox1, oy0, oy1 in domain.obstacles:
        in_obstacle = (xx >= ox0) & (xx <= ox1) & (yy >= oy0) & (yy <= oy1)
        cells[in_obstacle & ~ins] = CellKind.OBSTACLE
    if not ins.any():
        raise ValueError("no interior cells: mesh too coarse or domain empty")

    return grid, classify_faces(grid, domain, cells)


def classify_faces(grid: Grid, domain: Domain, cells: np.ndarray) -> CellMask:
    """Tag every face as inactive / internal / wall / exit; build the mask.

    A face with interior cells on both sides is internal.  A face with an
    interior cell on exactly one side is an exit when its midpoint lies
    within half a cell of one of the domain's exit segments (strictly, so a
    face one cell past the segment end is still a wall) and a wall
    otherwise; that segment owns the face, and its index in
    ``domain.exits`` goes into the mask's ``exit_ids``.  Faces not touching
    any interior cell are inactive.  Raises if a face lies within half a
    cell of two exit segments (its owner would be ambiguous) or if some
    exit segment owns no face at all.
    """
    nx, ny = grid.shape
    pad = np.zeros((nx + 2, ny + 2), dtype=bool)
    pad[1:-1, 1:-1] = cells == CellKind.INTERIOR
    x0, y0 = grid.origin
    tol = 0.5 * grid.h

    def classify(left_int, right_int, midpoint):
        kinds = np.full(left_int.shape, FaceKind.INACTIVE, dtype=np.int8)
        kinds[left_int & right_int] = FaceKind.INTERNAL
        boundary = np.flatnonzero(left_int ^ right_int)
        flat = kinds.reshape(-1)
        flat[boundary] = FaceKind.WALL
        # one distance pass per segment, over the boundary faces only
        mx, my = midpoint(*np.divmod(boundary, kinds.shape[1]))
        owner = np.full(boundary.size, -1)
        for k, seg in enumerate(domain.exits):
            near = _segment_point_distance(mx, my, seg) < tol
            shared = near & (owner >= 0)
            if shared.any():
                f = int(np.argmax(shared))
                raise ValueError(
                    f"the face at ({mx[f]:g}, {my[f]:g}) lies within half a cell of "
                    f"exit segments {domain.exits[owner[f]]} and {seg}"
                )
            owner[near] = k
        on_exit = owner >= 0
        flat[boundary[on_exit]] = FaceKind.EXIT
        return kinds, owner[on_exit]

    xc = grid.x_centers()
    yc = grid.y_centers()
    # faces normal to x: midpoint (x0 + f*h, yc[j]); normal to y: (xc[i], y0 + f*h)
    face_x, ids_x = classify(
        pad[:-1, 1:-1], pad[1:, 1:-1], lambda f, j: (x0 + f * grid.h, yc[j])
    )
    face_y, ids_y = classify(
        pad[1:-1, :-1], pad[1:-1, 1:], lambda i, f: (xc[i], y0 + f * grid.h)
    )

    owned = np.bincount(np.concatenate([ids_x, ids_y]), minlength=len(domain.exits))
    for seg, count in zip(domain.exits, owned):
        if count == 0:
            raise ValueError(f"exit segment {seg} does not touch the discrete boundary")

    return CellMask(cells=cells, face_x=face_x, face_y=face_y, exit_ids=(ids_x, ids_y))
