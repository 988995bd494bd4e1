"""Radial averaging kernels and their grid stencils.

Both crowd scenarios average density with the same compactly supported
radial bump

    eta(x) = c_l * (1 - (|x|/l)^4)^4   for |x| < l,   c_l = 315 / (128 pi l^2),

which has unit mass in the plane:  2 pi c_l l^2 * integral_0^1 s (1-s^4)^4 ds
= 2 pi c_l l^2 * 64/315 = 1.  :func:`make_quartic_kernel` builds it for a
given support l.

:func:`build_stencil` turns a kernel into discrete offsets and weights by
midpoint quadrature at cell-center displacements.  The weights are *not*
renormalized to sum to one here -- near boundaries the averaging module
divides by the in-domain kernel mass instead, and that renormalization is
only meaningful if the raw weights approximate the continuum kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Grid

__all__ = [
    "RadialKernel",
    "KernelStencil",
    "make_quartic_kernel",
    "build_stencil",
]


@dataclass(frozen=True)
class RadialKernel:
    """Radial profile eta(x) = profile(|x|), compact support [0, support)."""

    support: float
    coefficient: float  # profile value scale, 315 / (128 pi support^2)

    def profile(self, xi: np.ndarray | float) -> np.ndarray:
        """Radial profile value; zero at and beyond the support radius."""
        s = np.asarray(xi, dtype=float) / self.support
        inside = s < 1.0
        body = (1.0 - np.where(inside, s, 1.0) ** 4) ** 4
        return self.coefficient * np.where(inside, body, 0.0)

    def profile_derivative(self, xi: np.ndarray | float) -> np.ndarray:
        s = np.asarray(xi, dtype=float) / self.support
        inside = s < 1.0
        sc = np.where(inside, s, 1.0)
        body = -16.0 * sc**3 * (1.0 - sc**4) ** 3 / self.support
        return self.coefficient * np.where(inside, body, 0.0)

    def gradient(
        self, x: np.ndarray | float, y: np.ndarray | float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Plane gradient profile'(|x|) * x/|x|, with gradient(0) = 0."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.hypot(x, y)
        safe = np.where(r > 0.0, r, 1.0)
        scale = np.where(r > 0.0, self.profile_derivative(r) / safe, 0.0)
        return scale * x, scale * y


def make_quartic_kernel(support: float) -> RadialKernel:
    """The quartic bump of support l, in ratio form

        eta~(xi) = 315 / (128 pi l^2) * (1 - (xi/l)^4)^4  on [0, l],

    which is algebraically the expanded-coefficient form
    315 / (128 pi l^18) * (l^4 - xi^4)^4 also in circulation.
    """
    if not 0.0 < support < math.inf:
        raise ValueError(f"kernel support must be positive and finite, got {support}")
    coefficient = 315.0 / (128.0 * math.pi * support * support)
    return RadialKernel(support=float(support), coefficient=coefficient)


@dataclass(frozen=True)
class KernelStencil:
    """Discrete kernel: integer offsets with value and gradient weights.

    ``offsets`` (k, 2) holds cell displacements in deterministic row-major
    order (first index major); ``weights[k] = eta(offset_k * h) * h^2`` and
    ``grad_weights[k] = grad eta(offset_k * h) * h^2``.
    """

    offsets: np.ndarray
    weights: np.ndarray
    grad_weights: np.ndarray
    support: float


# Fewest cells a kernel's support may span.  Below that the midpoint
# quadrature no longer resembles the kernel and the averaging would silently
# degrade.  The coarse acceptance meshes run the short-range kernel at three
# cells of support; the normalizer keeps constants exact there, so only
# smoothness degrades and only gradually.
MIN_RESOLUTION = 3


def build_stencil(kernel: RadialKernel, grid: Grid) -> KernelStencil:
    """Sample a kernel at cell-center displacements of a grid.

    Requires the support to span at least :data:`MIN_RESOLUTION` cells.
    """
    h = grid.h
    if h > kernel.support / MIN_RESOLUTION * (1.0 + 1e-12):
        raise ValueError(
            f"mesh size {h} under-resolves kernel support "
            f"{kernel.support} (need at least {MIN_RESOLUTION} cells)"
        )
    r = int(math.ceil(kernel.support / h))
    di = np.arange(-r, r + 1)
    ii, jj = np.meshgrid(di, di, indexing="ij")
    dist = np.hypot(ii * h, jj * h)
    keep = dist < kernel.support
    offsets = np.stack([ii[keep], jj[keep]], axis=1)
    area = grid.cell_area
    weights = kernel.profile(dist[keep]) * area
    gx, gy = kernel.gradient(offsets[:, 0] * h, offsets[:, 1] * h)
    grad_weights = np.stack([gx * area, gy * area], axis=1)

    return KernelStencil(
        offsets=offsets,
        weights=weights,
        grad_weights=grad_weights,
        support=kernel.support,
    )
