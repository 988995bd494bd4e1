"""Scalar and vector sample fields on a cell grid."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import CellMask, Grid

__all__ = ["ScalarField", "VectorField", "sample_bilinear"]


@dataclass
class ScalarField:
    """Cell-centered scalar samples, shape (nx, ny), zero off the domain."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def from_function(
        cls,
        grid: Grid,
        fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
        mask: CellMask,
    ) -> "ScalarField":
        """Sample fn at cell centers and zero the non-interior cells."""
        xx, yy = grid.center_mesh()
        values = np.broadcast_to(np.asarray(fn(xx, yy), dtype=float), grid.shape).copy()
        values[~mask.interior] = 0.0
        return cls(grid, values)

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


@dataclass
class VectorField:
    """Cell-centered plane vectors stored as two component arrays."""

    grid: Grid
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.shape != self.grid.shape or self.y.shape != self.grid.shape:
            raise ValueError("vector component shapes do not match the grid")

    @classmethod
    def zeros(cls, grid: Grid) -> "VectorField":
        return cls(grid, np.zeros(grid.shape), np.zeros(grid.shape))

    def magnitude(self) -> np.ndarray:
        return np.hypot(self.x, self.y)


def sample_bilinear(field: ScalarField, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of cell-center samples at arbitrary points.

    Points beyond the outermost cell centers clamp to the border cells
    (constant extension); for the densities handled here the border cells
    are exterior and hence zero, so the clamp never invents mass.
    """
    grid = field.grid
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    fx = (xs - grid.origin[0]) / grid.h - 0.5
    fy = (ys - grid.origin[1]) / grid.h - 0.5
    i0 = np.clip(np.floor(fx).astype(int), 0, grid.nx - 2) if grid.nx > 1 else np.zeros_like(fx, dtype=int)
    j0 = np.clip(np.floor(fy).astype(int), 0, grid.ny - 2) if grid.ny > 1 else np.zeros_like(fy, dtype=int)
    tx = np.clip(fx - i0, 0.0, 1.0)
    ty = np.clip(fy - j0, 0.0, 1.0)
    v = field.values
    i1 = np.minimum(i0 + 1, grid.nx - 1)
    j1 = np.minimum(j0 + 1, grid.ny - 1)
    v00 = v[i0, j0]
    v10 = v[i1, j0]
    v01 = v[i0, j1]
    v11 = v[i1, j1]
    return (
        v00 * (1.0 - tx) * (1.0 - ty)
        + v10 * tx * (1.0 - ty)
        + v01 * (1.0 - tx) * ty
        + v11 * tx * ty
    )
