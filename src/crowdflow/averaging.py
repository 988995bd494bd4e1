"""Boundary-renormalized averaging of densities over a bounded domain.

Near the boundary, part of an averaging kernel's mass hangs outside the
domain.  Dividing the raw convolution by the in-domain kernel mass

    z(x) = integral over the domain of eta(x - y) dy

restores the average-of-what-is-actually-there reading: deep inside the
domain z is the full kernel mass (about 1), near a straight wall about 1/2,
near a right-angle corner about 1/4.  The averaged gradient follows from
the quotient rule,

    grad(avg rho) = ( (rho * grad eta) - (avg rho) * (chi * grad eta) ) / z,

where chi is the domain indicator; for constant rho the two terms cancel,
so renormalized averaging never manufactures gradients out of walls.

Two engines evaluate the same quantities.  The direct stencil sum
(:func:`stencil_apply` and everything built on it) runs over the stencil
offsets in their fixed row-major order, so its evaluations are bitwise
identical from run to run; it computes the normalizer z once per geometry
and serves as the oracle for the spectral engine.
:func:`assemble_nonlocal_spectral`, which the simulator calls every step,
evaluates the convolutions with zero-padded real FFTs.  It is deterministic
too, but it sums in another order, so it agrees with the direct sum to
rounding (about 1e-14), not bit for bit.  Both finish with the same
quotient-rule arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .fields import ScalarField, VectorField
from .geometry import CellMask, Grid
from .kernels import KernelStencil

__all__ = [
    "stencil_apply",
    "compute_z",
    "compute_z_gradient",
    "convolve_bounded",
    "gradient_convolve_bounded",
    "DomainAverager",
    "Channel",
    "CouplingSpec",
    "NonlocalEval",
    "assemble_nonlocal",
    "assemble_nonlocal_spectral",
]


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


def _renormalize(
    grid: Grid,
    mask: CellMask,
    z: ScalarField,
    num: np.ndarray,
    gradient: tuple[np.ndarray, np.ndarray, VectorField] | None = None,
) -> ScalarField | VectorField:
    """Finish a raw kernel sum ``num`` on the interior cells.

    Without ``gradient`` this is the average num/z.  With the raw
    gradient-weight sums and grad z, ``(gnx, gny, z_grad)``, it is the
    quotient-rule gradient (grad num - (num/z) grad z) / z.  Non-interior
    cells read zero either way.
    """
    inner = mask.interior
    if gradient is None:
        out = np.zeros_like(num)
        out[inner] = num[inner] / z.values[inner]
        return ScalarField(grid, out)
    gnx, gny, z_grad = gradient
    gx = np.zeros_like(num)
    gy = np.zeros_like(num)
    zi = z.values[inner]
    avg = num[inner] / zi
    gx[inner] = (gnx[inner] - avg * z_grad.x[inner]) / zi
    gy[inner] = (gny[inner] - avg * z_grad.y[inner]) / zi
    return VectorField(grid, gx, gy)


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
    (num,) = stencil_apply(rho.values, stencil.offsets, [stencil.weights])
    return _renormalize(rho.grid, mask, z, num)


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
    num, gnx, gny = stencil_apply(
        rho.values,
        stencil.offsets,
        [stencil.weights, stencil.grad_weights[:, 0], stencil.grad_weights[:, 1]],
    )
    return _renormalize(rho.grid, mask, z, num, (gnx, gny, z_grad))


class DomainAverager:
    """One kernel bound to one (grid, mask): stencil, z and its gradient.

    The normalizer fields depend only on the geometry, so building them
    once per kernel and reusing them across time steps is both the fast
    path and the reason repeated runs agree bitwise.
    """

    def __init__(self, grid: Grid, mask: CellMask, stencil: KernelStencil):
        self.grid = grid
        self.mask = mask
        self.stencil = stencil
        self.z = compute_z(grid, mask, stencil)
        self.z_grad = compute_z_gradient(grid, mask, stencil)

    def average(self, rho: ScalarField) -> ScalarField:
        return convolve_bounded(rho, self.stencil, self.z, self.mask)

    def average_gradient(self, rho: ScalarField) -> VectorField:
        return gradient_convolve_bounded(
            rho, self.stencil, self.z, self.z_grad, self.mask
        )


@dataclass(frozen=True)
class Channel:
    """One averaged quantity a velocity law consumes.

    ``sources`` lists the population indices whose densities are summed
    before averaging; ``kind`` selects the scalar average or its gradient.
    """

    kind: Literal["average", "gradient"]
    sources: tuple[int, ...]
    averager: DomainAverager


CouplingSpec = tuple[Channel, ...]


@dataclass
class NonlocalEval:
    """Evaluated channels, in declaration order."""

    channels: CouplingSpec
    results: tuple[ScalarField | VectorField, ...]

    @property
    def m(self) -> int:
        """Number of scalar slots (a gradient channel contributes two)."""
        return sum(2 if c.kind == "gradient" else 1 for c in self.channels)


def _check_sources(channel: Channel, n_populations: int) -> None:
    for idx in channel.sources:
        if not (0 <= idx < n_populations):
            raise ValueError(
                f"channel references population {idx}, "
                f"but only {n_populations} are present"
            )


def assemble_nonlocal(
    rho_all: Sequence[ScalarField], coupling: Sequence[Channel]
) -> NonlocalEval:
    """Evaluate every channel against the current population densities."""
    results: list[ScalarField | VectorField] = []
    for channel in coupling:
        _check_sources(channel, len(rho_all))
        combined = rho_all[channel.sources[0]]
        if len(channel.sources) > 1:
            total = combined.values.copy()
            for idx in channel.sources[1:]:
                total += rho_all[idx].values
            combined = ScalarField(combined.grid, total)
        if channel.kind == "average":
            results.append(channel.averager.average(combined))
        elif channel.kind == "gradient":
            results.append(channel.averager.average_gradient(combined))
        else:
            raise ValueError(f"unknown channel kind {channel.kind!r}")
    return NonlocalEval(channels=tuple(coupling), results=tuple(results))


def _fast_length(n: int) -> int:
    """Smallest 5-smooth integer >= n: a length pocketfft transforms fast."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def assemble_nonlocal_spectral(
    rho_all: Sequence[ScalarField], coupling: Sequence[Channel]
) -> NonlocalEval:
    """Evaluate every channel like :func:`assemble_nonlocal`, through FFTs.

    All convolutions of one call share one transform shape: on each axis
    the smallest 5-smooth length >= n + r, with r the largest |offset| of
    the call's stencils along that axis, which is enough zero padding that
    no cyclic wrap-around reaches the n cells kept.  Each population a
    channel references is transformed once, and a channel that sums
    populations sums their spectra.  Kernel spectra are built one weight
    set at a time on every call instead of cached: they cost little next
    to the inverse transforms, and a cache, or all weight sets at once,
    would keep several padded complex arrays alive per averager.
    """
    coupling = tuple(coupling)
    for channel in coupling:
        _check_sources(channel, len(rho_all))
        for idx in channel.sources:
            _check_same_grid(rho_all[idx], channel.averager.z)
        if channel.kind not in ("average", "gradient"):
            raise ValueError(f"unknown channel kind {channel.kind!r}")
    if not coupling:
        return NonlocalEval(channels=coupling, results=())

    nx, ny = coupling[0].averager.z.values.shape
    rx, ry = np.max(
        [np.abs(c.averager.stencil.offsets).max(axis=0) for c in coupling], axis=0
    )
    shape = (_fast_length(nx + int(rx)), _fast_length(ny + int(ry)))

    def apply(
        spectrum: np.ndarray, stencil: KernelStencil, coeffs: np.ndarray
    ) -> np.ndarray:
        # one coefficient set of stencil_apply, with the coefficients
        # scattered to offsets mod shape and multiplied in Fourier space
        image = np.zeros(shape)
        di, dj = stencil.offsets.T
        image[di % shape[0], dj % shape[1]] = coeffs
        return np.fft.irfft2(spectrum * np.fft.rfft2(image), s=shape)[:nx, :ny]

    rho_hat = {
        idx: np.fft.rfft2(rho_all[idx].values, s=shape)
        for idx in dict.fromkeys(i for c in coupling for i in c.sources)
    }
    results: list[ScalarField | VectorField] = []
    for channel in coupling:
        spectrum = rho_hat[channel.sources[0]]
        for idx in channel.sources[1:]:
            spectrum = spectrum + rho_hat[idx]
        av = channel.averager
        grid = rho_all[channel.sources[0]].grid
        num = apply(spectrum, av.stencil, av.stencil.weights)
        if channel.kind == "average":
            results.append(_renormalize(grid, av.mask, av.z, num))
        else:
            gnx = apply(spectrum, av.stencil, av.stencil.grad_weights[:, 0])
            gny = apply(spectrum, av.stencil, av.stencil.grad_weights[:, 1])
            results.append(_renormalize(grid, av.mask, av.z, num, (gnx, gny, av.z_grad)))
    return NonlocalEval(channels=coupling, results=tuple(results))
