"""The direct stencil sum: the oracle the tests hold the non-local engine to.

:func:`stencil_apply` and everything built on it (:func:`compute_z`,
:func:`compute_z_gradient`, :func:`convolve_bounded`,
:func:`gradient_convolve_bounded`) evaluate the boundary-renormalized
averages of :mod:`crowdflow.averaging` term by term, one stencil offset at
a time; the tests feed them a :class:`~crowdflow.averaging.DomainAverager`'s
``stencil``, ``z``, ``z_grad`` and ``mask``.  The sum runs over the stencil
offsets in their fixed row-major order, so its evaluations are bitwise
identical from run to run; the engine sums in another order and agrees
with it to rounding (about 1e-14), not bit for bit.  The averages finish
with the engine's own quotient-rule arithmetic,
:func:`crowdflow.averaging._renormalize`, so the two differ only in how
the raw kernel sums are formed.

No module of the package calls this code: set-up and the time loop run on
the FFT engine alone, whose cost does not grow as offsets x cells.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from crowdflow.averaging import _renormalize
from crowdflow.fields import ScalarField, VectorField
from crowdflow.geometry import CellMask, Grid
from crowdflow.kernels import KernelStencil


def stencil_apply(
    values: np.ndarray,
    offsets: np.ndarray,
    coefficient_sets: Sequence[np.ndarray],
) -> list[np.ndarray]:
    """Accumulate out[i, j] += c_k * values[i - di_k, j - dj_k] for each set.

    Cells outside the array contribute nothing (the caller guarantees the
    input is zero off the domain anyway).  Offsets are visited in stencil
    order; each output cell therefore accumulates in one fixed sequence,
    independent of how the work is batched.
    """
    nx, ny = values.shape
    outs = [np.zeros_like(values) for _ in coefficient_sets]
    off = np.asarray(offsets)
    for k in range(off.shape[0]):
        di = int(off[k, 0])
        dj = int(off[k, 1])
        i0, i1 = max(0, di), nx + min(0, di)
        j0, j1 = max(0, dj), ny + min(0, dj)
        if i0 >= i1 or j0 >= j1:
            continue
        src = values[i0 - di : i1 - di, j0 - dj : j1 - dj]
        for coeffs, out in zip(coefficient_sets, outs):
            c = float(coeffs[k])
            if c != 0.0:
                out[i0:i1, j0:j1] += c * src
    return outs


def weight_sum(stencil: KernelStencil) -> float:
    """The stencil's weights summed left to right: the direct z on cells
    whose whole footprint is interior, and the FFT z there."""
    total = 0.0
    for w in stencil.weights.tolist():
        total += w
    return total


def compute_z(grid: Grid, mask: CellMask, stencil: KernelStencil) -> ScalarField:
    """In-domain kernel mass z per cell (zero reported on non-interior cells).

    Raises when z fails to be strictly positive on some interior cell --
    that can only happen with a broken mask or a degenerate stencil, and
    every downstream division relies on it.
    """
    indicator = mask.interior.astype(float)
    (z,) = stencil_apply(indicator, stencil.offsets, [stencil.weights])
    z[~mask.interior] = 0.0
    if not (z[mask.interior] > 0.0).all():
        raise ValueError("the normalizer z is not positive on some interior cell")
    return ScalarField(grid, z)


def compute_z_gradient(grid: Grid, mask: CellMask, stencil: KernelStencil) -> VectorField:
    """Gradient-weight sum over the domain indicator (the gradient of z)."""
    indicator = mask.interior.astype(float)
    gx, gy = stencil_apply(
        indicator, stencil.offsets, [stencil.grad_weights[:, 0], stencil.grad_weights[:, 1]]
    )
    gx[~mask.interior] = 0.0
    gy[~mask.interior] = 0.0
    return VectorField(grid, gx, gy)


def _check_same_grid(rho: ScalarField, z: ScalarField) -> None:
    if rho.values.shape != z.values.shape:
        raise ValueError("density and normalizer live on different grids")


def convolve_bounded(
    rho: ScalarField,
    stencil: KernelStencil,
    z: ScalarField,
    mask: CellMask,
) -> ScalarField:
    """Renormalized kernel average of a density over the domain.

    On each interior cell this is a convex combination of the interior
    density values under the kernel footprint, so values stay inside the
    local min/max range and a constant density is (up to rounding) a fixed
    point.
    """
    _check_same_grid(rho, z)
    num = stencil_apply(rho.values, stencil.offsets, [stencil.weights])
    avg = np.zeros_like(rho.values)
    _renormalize(mask, z, num, [avg])
    return ScalarField(rho.grid, avg)


def gradient_convolve_bounded(
    rho: ScalarField,
    stencil: KernelStencil,
    z: ScalarField,
    z_grad: VectorField,
    mask: CellMask,
) -> VectorField:
    """Gradient of the renormalized average via the quotient rule.

    Uses the identity grad(num/z) = (grad num - (num/z) grad z) / z with
    grad num given by the gradient-weight stencil and grad z precomputed;
    no finite differencing of the averaged field is involved, so the
    result is smooth right up to the boundary.
    """
    _check_same_grid(rho, z)
    sums = stencil_apply(
        rho.values,
        stencil.offsets,
        [stencil.weights, stencil.grad_weights[:, 0], stencil.grad_weights[:, 1]],
    )
    gx, gy = np.zeros_like(rho.values), np.zeros_like(rho.values)
    _renormalize(mask, z, sums, [gx, gy], z_grad)
    return VectorField(rho.grid, gx, gy)
