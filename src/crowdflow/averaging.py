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

One engine evaluates the channels a velocity law reads, and it has one
entry, ``assemble_nonlocal(densities, spectra)``, which the simulator
calls every step.  A :class:`KernelSpectra` is a coupling compiled for
it: the distinct channels and the transforms of their kernels, which
never change, so one run builds them once and reuses them on every step;
the densities are transformed on every call.  It is also the engine's
workspace: the density spectra, the product and inverse-transform buffers
and the averaged fields the engine returns all live in it, so a call
allocates no grid, and its results stay valid until the next call on the
same spectra.  The engine computes the convolutions with zero-padded real
FFTs, deterministically, as row and column passes of 1-D transforms
(:func:`_forward_into`, :func:`_inverse_into`) that are bitwise the 2-D
transforms but skip the rows that are all padding, and finishes with the
quotient-rule arithmetic above, in place.  The spectra are scoped to the
run, not kept on the averagers, so a scenario kept after its run holds no
padded complex arrays.

The direct stencil sum, one offset at a time, is not part of the package:
it is the oracle in ``tests/direct_sum.py``, which finishes with this
module's :func:`_renormalize`, so the engine and the oracle share one
finishing arithmetic.

:class:`DomainAverager` builds z and grad z with the same zero-padded FFTs
of the domain indicator.  On cells whose whole stencil footprint is
interior they are bitwise the direct sums; elsewhere they agree with them
to rounding (about 3e-15).  So no set-up runs a direct sum, whose cost
grows as offsets x cells.
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
    "DomainAverager",
    "Channel",
    "KernelSpectra",
    "assemble_nonlocal",
]


def _renormalize(
    mask: CellMask,
    z: ScalarField,
    sums: Iterable[np.ndarray],
    out: Sequence[np.ndarray],
    z_grad: VectorField | None = None,
) -> None:
    """Finish raw kernel sums on the interior cells, writing into ``out``.

    With ``sums = (num,)`` this writes the average num/z into ``out[0]``.
    With ``sums = (num, gnx, gny)`` and grad z it writes the quotient-rule
    gradient (grad num - (num/z) grad z) / z into ``out = (gx, gy)``.
    Every operation is restricted to the interior cells, so z = 0
    elsewhere is never divided by, and ``out`` keeps whatever it holds off
    the interior: callers pass arrays that are zero there.  ``sums`` are
    only read, in order, and each is taken only once the one before it has
    been read for the last time, so they may be strided views of one
    buffer that each next item overwrites (a generator).
    """
    inner = mask.interior
    zv = z.values
    sums = iter(sums)
    if z_grad is None:
        np.divide(next(sums), zv, out=out[0], where=inner)
        return
    gx, gy = out
    # num/z waits in gy until gx is done, so num is read once, before gnx
    avg = np.divide(next(sums), zv, out=gy, where=inner)
    np.multiply(avg, z_grad.x, out=gx, where=inner)
    np.subtract(next(sums), gx, out=gx, where=inner)
    np.divide(gx, zv, out=gx, where=inner)
    np.multiply(avg, z_grad.y, out=gy, where=inner)
    np.subtract(next(sums), gy, out=gy, where=inner)
    np.divide(gy, zv, out=gy, where=inner)


class DomainAverager:
    """One kernel bound to one (grid, mask): stencil, z and its gradient.

    The normalizer fields depend only on the geometry, so building them
    once per kernel and reusing them across time steps is both the fast
    path and the reason repeated runs agree bitwise.  Both come from
    zero-padded FFTs (:func:`_indicator_sums`): bitwise the direct sums of
    ``tests/direct_sum.py`` on cells whose whole stencil footprint is
    interior, within rounding elsewhere.  z is built here and raises
    ``ValueError`` when, on some interior cell, it is not above the FFT's
    rounding (``_FFT_ROUNDING`` times the absolute weight sum).  grad z
    is built on first use, which a gradient :class:`Channel` makes at
    set-up, so an averager that only feeds averages never pays for it.
    It reuses the deep-cell mask that z's build found, a bool array of
    the grid's shape: the averager keeps no spectrum.
    """

    def __init__(self, grid: Grid, mask: CellMask, stencil: KernelStencil):
        self.grid = grid
        self.mask = mask
        self.stencil = stencil
        (z,), self._deep = _indicator_sums(grid, mask, stencil, [stencil.weights])
        # where the direct z is exactly 0 the FFT gives rounding noise of
        # either sign, so the check starts above that noise
        floor = _FFT_ROUNDING * float(np.abs(stencil.weights).sum())
        if not (z[mask.interior] > floor).all():
            raise ValueError("the normalizer z is not positive on some interior cell")
        self.z = ScalarField(grid, z)

    @cached_property
    def z_grad(self) -> VectorField:
        (gx, gy), _ = _indicator_sums(
            self.grid, self.mask, self.stencil, self.stencil.grad_weights.T, self._deep
        )
        return VectorField(self.grid, gx, gy)


# Relative to the kernel's absolute weight sum, a bound on the rounding of
# an FFT indicator sum far above the ~1e-15 seen on the preset meshes.
_FFT_ROUNDING = 2.0**10 * np.finfo(float).eps


def _indicator_sums(
    grid: Grid,
    mask: CellMask,
    stencil: KernelStencil,
    coefficient_sets: Iterable[np.ndarray],
    deep: np.ndarray | None = None,
) -> tuple[list[np.ndarray], np.ndarray]:
    """The stencil sums of the interior indicator, through zero-padded FFTs.

    Returns one sum per coefficient set, zero off the interior, as the
    direct sums of ``tests/direct_sum.py`` report them, and the deep-cell
    mask below, which a later call on the same stencil passes back as
    ``deep`` instead of finding it again.  The
    all-ones weight set counts the interior cells under each cell's
    stencil footprint; the count is an integer far below 2**53, so
    rounding it is exact.  Where it equals the offset count the cell is
    deep, and the direct sum there is the left-to-right sum of the set's
    coefficients (for the weights, ``stencil.weight_sum``), which those
    cells take verbatim.  Elsewhere the FFT value agrees with the direct
    sum to rounding.
    """
    nx, ny = grid.shape
    shape = _padded_shape(grid.shape, [stencil])
    chi_hat = _forward_into(mask.interior.astype(float), shape[1], _half_spectrum(shape))
    product = np.empty_like(chi_hat)
    real = np.empty((nx, shape[1]))
    if deep is None:
        n = stencil.offsets.shape[0]
        ones = _kernel_spectrum(stencil, np.ones(n), shape)
        deep = np.rint(_inverse_into(chi_hat, ones, product, real, ny)) == n
    sums = []
    for coeffs in coefficient_sets:
        kernel = _kernel_spectrum(stencil, coeffs, shape)
        # a copy: the next transform overwrites ``real``
        out = _inverse_into(chi_hat, kernel, product, real, ny).copy()
        total = 0.0
        for c in coeffs.tolist():
            total += c
        out[deep] = total
        out[~mask.interior] = 0.0
        sums.append(out)
    return sums, deep


@dataclass(frozen=True)
class Channel:
    """One averaged quantity a velocity law consumes.

    ``sources`` lists the population indices, at least one, whose
    densities are summed before averaging; ``kind`` selects the scalar
    average or its gradient.  Channels compare and hash by value, with the
    averager by identity.
    """

    kind: Literal["average", "gradient"]
    sources: tuple[int, ...]
    averager: DomainAverager

    def __post_init__(self) -> None:
        if self.kind not in ("average", "gradient"):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if not self.sources:
            raise ValueError("a channel needs at least one source population")
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


def _half_spectrum(shape: tuple[int, int]) -> np.ndarray:
    """An uninitialised buffer for the rfft2 of a real array of ``shape``."""
    return np.empty((shape[0], shape[1] // 2 + 1), dtype=complex)


def _forward_into(values: np.ndarray, n: int, hat: np.ndarray) -> np.ndarray:
    """Write the rfft2 of ``values``, zero-padded to (len(hat), ``n``), into ``hat``.

    A real transform along the rows of the data, written into the top of
    ``hat``, the padding rows zeroed, then a complex transform along the
    columns in place: the two passes ``np.fft.rfft2(values, s=shape)``
    makes, in its order, so the result is bitwise the same, while the rows
    that are all padding are never transformed along the rows.
    """
    nx = values.shape[0]
    np.fft.rfft(values, n=n, axis=1, out=hat[:nx])
    hat[nx:] = 0.0
    return np.fft.fft(hat, axis=0, out=hat)


def _inverse_into(
    spectrum: np.ndarray,
    kernel: np.ndarray,
    product: np.ndarray,
    real: np.ndarray,
    ny: int,
) -> np.ndarray:
    """One coefficient set's stencil sum, multiplied in Fourier space.

    ``spectrum`` is a :func:`_forward_into` result, ``kernel`` a
    :func:`_kernel_spectrum` at the same shape, ``product`` a buffer of
    theirs, and ``real`` an (nx, padded ny) buffer for the nx rows kept.
    The product's inverse transform along the columns runs in place, and
    only its nx kept rows are transformed back along the rows, into
    ``real``: bitwise ``np.fft.irfft2(spectrum * kernel, s=shape)[:nx, :ny]``,
    which is returned as a view of ``real``.
    """
    np.multiply(spectrum, kernel, out=product)
    np.fft.ifft(product, axis=0, out=product)
    np.fft.irfft(product[: real.shape[0]], n=real.shape[1], axis=1, out=real)
    return real[:, :ny]


def _weight_sets(stencil: KernelStencil, kind: str) -> list[np.ndarray]:
    """The coefficient sets a channel of ``kind`` convolves with, weights first."""
    if kind == "average":
        return [stencil.weights]
    return [stencil.weights, stencil.grad_weights[:, 0], stencil.grad_weights[:, 1]]


class KernelSpectra(Sequence[Channel]):
    """A coupling compiled for the engine, and the engine's work arrays.

    Holds the distinct channels in first-use order, the population indices
    they reference, the transform shape (:func:`_padded_shape`) and, per
    channel, the :func:`_kernel_spectrum` of each weight set it reads, in
    :func:`_weight_sets` order.  A transform is built once per distinct
    (averager, weight set) pair and shared by every channel that reads it.

    It also holds every array :func:`assemble_nonlocal` writes: one half
    spectrum per referenced population (``hats``), one for the summed
    spectrum of a channel that reads several populations (``summed``), one
    complex product buffer (``product``), one (nx, padded ny) real buffer
    for the inverse transforms, which the finish reads one at a time
    (``real``), and per channel its averaged field (``averaged``), whose
    arrays stay zero off the interior.  So a call allocates no grid.

    Only the densities change from step to step, so one
    :func:`~crowdflow.simulator.run` or
    :func:`~crowdflow.simulator.picard_solve` call builds these once, in
    its :class:`~crowdflow.simulator.StepBuffers`, and drops them when it
    returns; no scenario or averager holds them.  The object is the
    sequence of its channels.
    """

    def __init__(self, coupling: Iterable[Channel]):
        self.channels = tuple(dict.fromkeys(coupling))
        if not self.channels:
            raise ValueError("kernel spectra need at least one channel")
        self.size: tuple[int, int] = self.channels[0].averager.z.values.shape
        if any(c.averager.z.values.shape != self.size for c in self.channels):
            raise ValueError("the channels' averagers live on different grids")
        self.sources = tuple(dict.fromkeys(i for c in self.channels for i in c.sources))
        self.shape = _padded_shape(self.size, [c.averager.stencil for c in self.channels])
        built: dict[tuple[DomainAverager, int], np.ndarray] = {}
        self.kernels: list[list[np.ndarray]] = []
        for channel in self.channels:
            av = channel.averager
            transforms = []
            for k, coeffs in enumerate(_weight_sets(av.stencil, channel.kind)):
                if (av, k) not in built:
                    built[av, k] = _kernel_spectrum(av.stencil, coeffs, self.shape)
                transforms.append(built[av, k])
            self.kernels.append(transforms)

        self.hats = {idx: _half_spectrum(self.shape) for idx in self.sources}
        self.summed = _half_spectrum(self.shape)
        self.product = _half_spectrum(self.shape)
        self.real = np.empty((self.size[0], self.shape[1]))
        self.averaged: list[ScalarField | VectorField] = [
            ScalarField(c.averager.grid, np.zeros(self.size))
            if c.kind == "average"
            else VectorField(c.averager.grid, np.zeros(self.size), np.zeros(self.size))
            for c in self.channels
        ]

    def __len__(self) -> int:
        return len(self.channels)

    def __getitem__(self, index: int) -> Channel:
        return self.channels[index]


def assemble_nonlocal(
    rho_all: Sequence[ScalarField], spectra: KernelSpectra
) -> dict[Channel, ScalarField | VectorField]:
    """Evaluate each channel of ``spectra`` once against the population densities.

    The result maps every channel to its average or averaged gradient, in
    first-use order.  All convolutions share the spectra's transform
    shape.  Each population a channel references is transformed once, and
    a channel that sums populations sums their spectra.

    Every array the call writes belongs to ``spectra``: the returned fields
    are its ``averaged`` fields, so they stay valid only until the next
    call on the same spectra, which overwrites them.  A caller that keeps
    a result across calls copies it.
    """
    for idx in spectra.sources:
        if not (0 <= idx < len(rho_all)):
            raise ValueError(
                f"channel references population {idx}, "
                f"but only {len(rho_all)} are present"
            )
        if rho_all[idx].values.shape != spectra.size:
            raise ValueError("density and normalizer live on different grids")

    n, ny = spectra.shape[1], spectra.size[1]
    for idx, hat in spectra.hats.items():
        _forward_into(rho_all[idx].values, n, hat)
    for channel, kernels, field in zip(spectra.channels, spectra.kernels, spectra.averaged):
        spectrum = spectra.hats[channel.sources[0]]
        for idx in channel.sources[1:]:
            spectrum = np.add(spectrum, spectra.hats[idx], out=spectra.summed)
        # lazily, so each inverse transform overwrites ``real`` only once
        # the finish has read the one before
        sums = (_inverse_into(spectrum, k, spectra.product, spectra.real, ny) for k in kernels)
        av = channel.averager
        if channel.kind == "average":
            _renormalize(av.mask, av.z, sums, [field.values])
        else:
            _renormalize(av.mask, av.z, sums, [field.x, field.y], av.z_grad)
    return dict(zip(spectra.channels, spectra.averaged))
