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

One engine evaluates the channels a velocity law reads:
:func:`assemble_nonlocal`, which the simulator calls every step, computes
the convolutions with zero-padded real FFTs.  It is deterministic, and it
finishes with the quotient-rule arithmetic above.  The kernels never
change, so their transforms live in a :class:`KernelSpectra` that one run
builds once and reuses on every step; the densities are transformed on
every call.  The spectra are scoped to the run, not kept on the averagers,
so a scenario kept after its run holds no padded complex arrays.

The direct stencil sum (:func:`stencil_apply` and everything built on it:
:func:`compute_z`, :func:`compute_z_gradient`, :func:`convolve_bounded`,
:func:`gradient_convolve_bounded` and the :class:`DomainAverager` methods)
is the per-kernel oracle.  It runs over the stencil offsets in their fixed
row-major order, so its evaluations are bitwise identical from run to run;
the engine sums in another order and agrees with it to rounding (about
1e-14), not bit for bit.

:class:`DomainAverager` builds z and grad z with the same zero-padded FFTs
of the domain indicator.  On cells whose whole stencil footprint is
interior they are bitwise :func:`compute_z` and :func:`compute_z_gradient`;
elsewhere they agree with the direct sums to rounding (about 3e-15).  So
no set-up runs the direct sum, whose cost grows as offsets x cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Literal, Sequence

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
    "KernelSpectra",
    "assemble_nonlocal",
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
    return _positive_normalizer(grid, mask, z)


def _positive_normalizer(
    grid: Grid, mask: CellMask, z: np.ndarray, floor: float = 0.0
) -> ScalarField:
    if not (z[mask.interior] > floor).all():
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
    cells read zero either way: the divisions skip them, so z = 0 there is
    never divided by.
    """
    inner = mask.interior
    zv = z.values
    avg = np.divide(num, zv, out=np.zeros_like(num), where=inner)
    if gradient is None:
        return ScalarField(grid, avg)
    gnx, gny, z_grad = gradient
    gx = np.divide(gnx - avg * z_grad.x, zv, out=np.zeros_like(num), where=inner)
    gy = np.divide(gny - avg * z_grad.y, zv, out=np.zeros_like(num), where=inner)
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
    path and the reason repeated runs agree bitwise.  Both come from
    zero-padded FFTs (:func:`_indicator_sums`): bitwise :func:`compute_z`
    and :func:`compute_z_gradient` on cells whose whole stencil footprint
    is interior, within rounding elsewhere.  z is built here and raises
    ``ValueError`` when, on some interior cell, it is not above the FFT's
    rounding (``_FFT_ROUNDING`` times the absolute weight sum).  grad z
    is built on first use, which a gradient :class:`Channel` makes at
    set-up, so an averager that only feeds averages never pays for it.
    """

    def __init__(self, grid: Grid, mask: CellMask, stencil: KernelStencil):
        self.grid = grid
        self.mask = mask
        self.stencil = stencil
        (z,) = _indicator_sums(grid, mask, stencil, [stencil.weights])
        # where the direct z is exactly 0 the FFT gives rounding noise of
        # either sign, so the check starts above that noise
        floor = _FFT_ROUNDING * float(np.abs(stencil.weights).sum())
        self.z = _positive_normalizer(grid, mask, z, floor)

    @cached_property
    def z_grad(self) -> VectorField:
        return _z_gradient_spectral(self.grid, self.mask, self.stencil)

    def average(self, rho: ScalarField) -> ScalarField:
        return convolve_bounded(rho, self.stencil, self.z, self.mask)

    def average_gradient(self, rho: ScalarField) -> VectorField:
        return gradient_convolve_bounded(
            rho, self.stencil, self.z, self.z_grad, self.mask
        )


# Relative to the kernel's absolute weight sum, a bound on the rounding of
# an FFT indicator sum far above the ~1e-15 seen on the preset meshes.
_FFT_ROUNDING = 2.0**10 * np.finfo(float).eps


def _z_gradient_spectral(grid: Grid, mask: CellMask, stencil: KernelStencil) -> VectorField:
    """:func:`compute_z_gradient` through :func:`_indicator_sums`."""
    return VectorField(grid, *_indicator_sums(grid, mask, stencil, stencil.grad_weights.T))


def _indicator_sums(
    grid: Grid,
    mask: CellMask,
    stencil: KernelStencil,
    coefficient_sets: Iterable[np.ndarray],
) -> list[np.ndarray]:
    """:func:`stencil_apply` of the interior indicator through zero-padded FFTs.

    Returns one sum per coefficient set, zero off the interior, as
    :func:`compute_z` and :func:`compute_z_gradient` report them.  The
    all-ones weight set counts the interior cells under each cell's
    stencil footprint; the count is an integer far below 2**53, so
    rounding it is exact.  Where it equals the offset count the cell is
    deep, and the direct sum there is the left-to-right sum of the set's
    coefficients (for the weights, ``stencil.weight_sum``), which those
    cells take verbatim.  Elsewhere the FFT value agrees with the direct
    sum to rounding.
    """
    shape = _padded_shape(grid.shape, [stencil])
    chi_hat = np.fft.rfft2(mask.interior.astype(float), s=shape)
    n = stencil.offsets.shape[0]
    count = _convolve(chi_hat, _kernel_spectrum(stencil, np.ones(n), shape), shape, grid.shape)
    deep = np.rint(count) == n
    sums = []
    for coeffs in coefficient_sets:
        # a copy, so the caller's field does not keep the padded array alive
        kernel = _kernel_spectrum(stencil, coeffs, shape)
        out = _convolve(chi_hat, kernel, shape, grid.shape).copy()
        total = 0.0
        for c in coeffs.tolist():
            total += c
        out[deep] = total
        out[~mask.interior] = 0.0
        sums.append(out)
    return sums


@dataclass(frozen=True)
class Channel:
    """One averaged quantity a velocity law consumes.

    ``sources`` lists the population indices whose densities are summed
    before averaging; ``kind`` selects the scalar average or its gradient.
    Channels compare and hash by value, with the averager by identity.
    """

    kind: Literal["average", "gradient"]
    sources: tuple[int, ...]
    averager: DomainAverager

    def __post_init__(self) -> None:
        if self.kind not in ("average", "gradient"):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        # build grad z now, at set-up, rather than in the first step
        if self.kind == "gradient":
            _ = self.averager.z_grad


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


def _padded_shape(shape: tuple[int, int], stencils: Sequence[KernelStencil]) -> tuple[int, int]:
    """Transform shape for convolving an (nx, ny) array with the stencils.

    On each axis the smallest 5-smooth length >= n + r, with r the largest
    |offset| of the stencils along that axis: enough zero padding that no
    cyclic wrap-around reaches the n cells kept.
    """
    nx, ny = shape
    rx, ry = np.max([np.abs(s.offsets).max(axis=0) for s in stencils], axis=0)
    return (_fast_length(nx + int(rx)), _fast_length(ny + int(ry)))


def _kernel_spectrum(
    stencil: KernelStencil, coeffs: np.ndarray, shape: tuple[int, int]
) -> np.ndarray:
    """rfft2 of one coefficient set scattered to its offsets mod ``shape``."""
    image = np.zeros(shape)
    di, dj = stencil.offsets.T
    image[di % shape[0], dj % shape[1]] = coeffs
    return np.fft.rfft2(image)


def _convolve(
    spectrum: np.ndarray,
    kernel: np.ndarray,
    shape: tuple[int, int],
    size: tuple[int, int],
) -> np.ndarray:
    """One coefficient set of :func:`stencil_apply`, multiplied in Fourier space.

    ``spectrum`` is the rfft2 of a (``size``) source zero-padded to
    ``shape``, ``kernel`` a :func:`_kernel_spectrum` at that shape.  The
    inverse transform of the product is cropped back to ``size`` as a view
    of the padded array.
    """
    padded = np.fft.irfft2(spectrum * kernel, s=shape)
    return padded[: size[0], : size[1]]


def _weight_sets(stencil: KernelStencil, kind: str) -> list[np.ndarray]:
    """The coefficient sets a channel of ``kind`` convolves with, weights first."""
    if kind == "average":
        return [stencil.weights]
    return [stencil.weights, stencil.grad_weights[:, 0], stencil.grad_weights[:, 1]]


class KernelSpectra(Sequence[Channel]):
    """The kernel transforms of a set of channels, built once and reused.

    Holds the transform shape of the channels (:func:`_padded_shape`) and
    one :func:`_kernel_spectrum` per distinct (averager, weight set) pair:
    the weights of every averager, and both gradient-weight columns of an
    averager that some gradient channel reads.  Only the densities change
    from step to step, so one :func:`~crowdflow.simulator.run` or
    :func:`~crowdflow.simulator.picard_solve` call builds these once, in
    its :class:`~crowdflow.simulator.StepBuffers`, and drops them when it
    returns; no scenario or averager holds them.

    The object is also the sequence of the distinct channels it was built
    for, in first-use order, so ``assemble_nonlocal(rho_all, spectra)``
    evaluates all of them with it.
    """

    def __init__(self, coupling: Iterable[Channel]):
        self.channels = tuple(dict.fromkeys(coupling))
        if not self.channels:
            raise ValueError("kernel spectra need at least one channel")
        self.size: tuple[int, int] = self.channels[0].averager.z.values.shape
        self.shape = _padded_shape(self.size, [c.averager.stencil for c in self.channels])
        self._kernels: dict[tuple[DomainAverager, int], np.ndarray] = {}
        for channel in self.channels:
            av = channel.averager
            for k, coeffs in enumerate(_weight_sets(av.stencil, channel.kind)):
                if (av, k) not in self._kernels:
                    self._kernels[av, k] = _kernel_spectrum(av.stencil, coeffs, self.shape)

    def kernels(self, channel: Channel) -> list[np.ndarray]:
        """The spectra of the weight sets ``channel`` reads, in :func:`_weight_sets` order."""
        count = len(_weight_sets(channel.averager.stencil, channel.kind))
        try:
            return [self._kernels[channel.averager, k] for k in range(count)]
        except KeyError:
            raise ValueError(
                f"the kernel spectra do not cover the {channel.kind} channel "
                f"of populations {channel.sources}"
            ) from None

    def __len__(self) -> int:
        return len(self.channels)

    def __getitem__(self, index: int) -> Channel:
        return self.channels[index]


def assemble_nonlocal(
    rho_all: Sequence[ScalarField],
    coupling: Sequence[Channel],
    spectra: KernelSpectra | None = None,
) -> dict[Channel, ScalarField | VectorField]:
    """Evaluate each distinct channel once against the population densities.

    The result maps every channel of ``coupling`` to its average or
    averaged gradient, in first-use order.  ``spectra`` are the kernel
    transforms of a run (:class:`KernelSpectra`); they must cover every
    channel, or this raises ``ValueError``.  Without them the call uses
    ``coupling`` itself when that is a :class:`KernelSpectra`, and builds
    spectra for ``coupling`` otherwise.  All convolutions share the
    spectra's transform shape.  Each population a channel references is
    transformed once, and a channel that sums populations sums their
    spectra.
    """
    channels = tuple(dict.fromkeys(coupling))
    for channel in channels:
        for idx in channel.sources:
            if not (0 <= idx < len(rho_all)):
                raise ValueError(
                    f"channel references population {idx}, "
                    f"but only {len(rho_all)} are present"
                )
            _check_same_grid(rho_all[idx], channel.averager.z)
    if not channels:
        return {}
    if spectra is None:
        spectra = coupling if isinstance(coupling, KernelSpectra) else KernelSpectra(channels)

    size, shape = spectra.size, spectra.shape
    rho_hat = {
        idx: np.fft.rfft2(rho_all[idx].values, s=shape)
        for idx in dict.fromkeys(i for c in channels for i in c.sources)
    }
    results: dict[Channel, ScalarField | VectorField] = {}
    for channel in channels:
        spectrum = rho_hat[channel.sources[0]]
        for idx in channel.sources[1:]:
            spectrum = spectrum + rho_hat[idx]
        av = channel.averager
        grid = rho_all[channel.sources[0]].grid
        sums = [_convolve(spectrum, k, shape, size) for k in spectra.kernels(channel)]
        if channel.kind == "average":
            results[channel] = _renormalize(grid, av.mask, av.z, sums[0])
        else:
            num, gnx, gny = sums
            results[channel] = _renormalize(grid, av.mask, av.z, num, (gnx, gny, av.z_grad))
    return results
