"""Periodic torus grids and the spectral transform conventions.

Conventions used throughout the package:

* Fields live on the torus (0, L)^dim with dim in {2, 3}.
* A spectral coefficient array stores "analytic" Fourier coefficients in
  numpy fftn layout, one block of shape (M,)*dim per vector/tensor
  component, so that

      f(x) = sum_n c(n) * exp(i k_n . x),      k_n = (2*pi/L) * n.

* Retained wavevectors are the integer multi-indices with
  |n_i| <= M/2 - 1 per axis.  The Nyquist index n_i = -M/2 present in the
  fftn layout is always kept at zero: the retained set is then closed
  under negation, which is what makes real fields representable.
* Physical samples of nonlinear quantities are taken on an oversampled
  grid with padded_M = ceil(dealias_factor * M) points per axis (rounded
  up to even).  The grid is `dealiased` when padded_M >= 3(M/2 - 1) + 1,
  as with the default factor 3/2: quadrature of products of up to three
  band-limited factors is then alias-free, hence agrees with the exact
  integral of the underlying trigonometric polynomial, and the band part
  of a product of two band-limited factors is exact.
* Quadrature is the uniform-grid (periodic trapezoidal) rule with weight
  (L / padded_M)^dim, spectrally exact for band-limited integrands.

All reductions use numpy's fixed pairwise summation, so norms are
reproducible bit-for-bit for a given platform and array shape.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np


class TorusGrid:
    """Uniform periodic grid on (0, L)^dim with spectral transforms."""

    def __init__(self, dim: int, M: int, L: float, dealias_factor: float = 1.5):
        if dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim}")
        if M < 8 or M % 2 != 0:
            raise ValueError(f"M must be an even integer >= 8, got {M}")
        if not (L > 0):
            raise ValueError(f"L must be positive, got {L}")
        if not (dealias_factor >= 1):
            raise ValueError(f"dealias_factor must be >= 1, got {dealias_factor}")
        self.dim = int(dim)
        self.M = int(M)
        self.L = float(L)
        self.dealias_factor = float(dealias_factor)
        Mp = math.ceil(self.dealias_factor * self.M)
        self.padded_M = Mp + (Mp % 2)

    # -- basic geometry -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.M,) * self.dim

    @property
    def padded_shape(self) -> tuple[int, ...]:
        return (self.padded_M,) * self.dim

    @property
    def volume(self) -> float:
        return self.L**self.dim

    @property
    def quad_weight(self) -> float:
        """Quadrature weight of one padded-grid point."""
        return (self.L / self.padded_M) ** self.dim

    @cached_property
    def modes(self) -> np.ndarray:
        """Integer wavenumbers along one axis in fftn layout."""
        return np.rint(np.fft.fftfreq(self.M) * self.M).astype(np.int64)

    @cached_property
    def mode_grid(self) -> np.ndarray:
        """Integer multi-indices, shape (dim,) + shape."""
        axes = np.meshgrid(*([self.modes] * self.dim), indexing="ij")
        return np.stack(axes)

    @cached_property
    def wavevectors(self) -> np.ndarray:
        """k = (2*pi/L) * n, shape (dim,) + shape."""
        return (2.0 * np.pi / self.L) * self.mode_grid.astype(np.float64)

    @cached_property
    def k_squared(self) -> np.ndarray:
        return np.sum(self.wavevectors**2, axis=0)

    @cached_property
    def band_mask(self) -> np.ndarray:
        """True where every |n_i| <= M/2 - 1 (Nyquist excluded)."""
        half = self.M // 2
        return np.all(np.abs(self.mode_grid) <= half - 1, axis=0)

    def points(self, padded: bool = True) -> np.ndarray:
        """Physical sample coordinates, shape (dim,) + grid shape."""
        n = self.padded_M if padded else self.M
        x = np.arange(n) * (self.L / n)
        return np.stack(np.meshgrid(*([x] * self.dim), indexing="ij"))

    @property
    def dealiased(self) -> bool:
        """True iff products of two band fields cannot alias into the band.

        A product of band modes reaches |n_i| <= 2(M/2 - 1); its alias
        n_i -/+ padded_M lands inside the band iff
        padded_M <= 3(M/2 - 1).
        """
        return self.padded_M >= 3 * (self.M // 2 - 1) + 1

    # -- transforms ------------------------------------------------------
    #
    # Fields here are spectra of real data (Hermitian-symmetric), so both
    # directions run through the real-input FFT half-spectrum.  The band
    # fills only last-axis modes 0 .. M/2-1 of it, so the leading-axis
    # transforms run on those M/2 columns alone: the other columns of the
    # padded half-spectrum are zero on the way in and discarded on the way
    # out.  On each leading axis the band is one low and one high block.

    @cached_property
    def _lead_blocks(self):
        """(native, padded) corner blocks over the leading dim-1 axes."""
        half = self.M // 2
        Mp = self.padded_M
        src = (slice(0, half), slice(self.M - (half - 1), self.M))
        dst = (slice(0, half), slice(Mp - (half - 1), Mp))
        pairs = []
        for choice in np.ndindex(*([2] * (self.dim - 1))):
            pairs.append(
                (tuple(src[c] for c in choice), tuple(dst[c] for c in choice))
            )
        return pairs

    @property
    def _kept_shape(self) -> tuple[int, ...]:
        """Padded half-spectrum restricted to last-axis modes 0 .. M/2-1."""
        return (self.padded_M,) * (self.dim - 1) + (self.M // 2,)

    @cached_property
    def _band_gather(self):
        """Where each native-layout mode sits in the padded half-spectrum.

        Returns (src, sign, outside): for every flat position of a
        (M,)*dim block, the flat index into the padded rfft half-spectrum
        (shape padded_shape[:-1] + (padded_M // 2 + 1,)) it is read from,
        -1.0 where the mode has a negative last index and is read as the
        conjugate of its mirror c(-n) (+1.0 elsewhere), and the flat
        positions outside the band, which are set to zero.
        """
        n = self.mode_grid.reshape(self.dim, -1)
        neg = n[-1] < 0
        half_shape = self.padded_shape[:-1] + (self.padded_M // 2 + 1,)
        src = np.ravel_multi_index(tuple(np.where(neg, -n, n) % self.padded_M), half_shape)
        outside = np.flatnonzero(~self.band_mask)
        src[outside] = 0
        return src, np.where(neg, -1.0, 1.0), outside

    def work_size(self, channels: int, forward: bool) -> int:
        """Complex elements of the `work` array a transform of `channels`
        channels takes: the padded half-spectrum, restricted to the band's
        last-axis modes 0 .. M/2-1 on the way in (`forward` false)."""
        last = self.padded_M // 2 + 1 if forward else self.M // 2
        return channels * self.padded_M ** (self.dim - 1) * last

    def to_physical(self, coeffs: np.ndarray, out=None, work=None) -> np.ndarray:
        """Sample band-limited Hermitian coefficients on the padded grid.

        The samples are written into `out` (lead + padded_shape float64)
        when it is given.  `work`, a flat complex128 array of at least
        `work_size(channels, forward=False)` elements, then holds the
        intermediate spectrum, so that the call allocates no grid array.
        """
        lead = coeffs.shape[: coeffs.ndim - self.dim]
        half = self.M // 2
        kept = lead + self._kept_shape
        if work is None:
            spec = np.zeros(kept, dtype=np.complex128)
        else:
            spec = work[: math.prod(kept)].reshape(kept)
            spec.fill(0.0)
        for src, dst in self._lead_blocks:
            spec[(Ellipsis,) + dst + (slice(None),)] = coeffs[
                (Ellipsis,) + src + (slice(0, half),)
            ]
        axes = tuple(range(len(lead), len(lead) + self.dim - 1))
        np.fft.ifftn(spec, axes=axes, norm="forward", out=spec)
        # irfft zero-fills the last axis up to padded_M // 2 + 1 modes
        return np.fft.irfft(spec, n=self.padded_M, axis=-1, norm="forward", out=out)

    def to_spectral(self, samples: np.ndarray, out=None, work=None) -> np.ndarray:
        """Forward transform real padded-grid samples, truncated to the band.

        The coefficients are written into `out` (lead + shape complex128,
        C-contiguous) when it is given.  `work`, a flat complex128 array of
        at least `work_size(channels, forward=True)` elements, then holds
        the padded half-spectrum, so that the call allocates no grid array.
        """
        lead = samples.shape[: samples.ndim - self.dim]
        half_shape = lead + self.padded_shape[:-1] + (self.padded_M // 2 + 1,)
        spec = None if work is None else work[: math.prod(half_shape)].reshape(half_shape)
        spec = np.fft.rfft(samples, axis=-1, norm="forward", out=spec)
        axes = tuple(range(len(lead), len(lead) + self.dim - 1))
        band = spec[..., : self.M // 2]
        np.fft.fftn(band, axes=axes, norm="forward", out=band)
        if out is None:
            out = np.empty(lead + self.shape, dtype=np.complex128)
        elif not out.flags.c_contiguous:
            raise ValueError("to_spectral needs a C-contiguous out array")
        flat = out.reshape(lead + (-1,))
        src, sign, outside = self._band_gather
        # mode="clip" (every index is in range) lets take write straight into
        # out; the default mode buffers the whole result first
        np.take(spec.reshape(lead + (-1,)), src, axis=-1, out=flat, mode="clip")
        for channel in flat.reshape(-1, flat.shape[-1]):
            # one channel at a time: numpy copies a strided in-place operand
            channel.imag *= sign  # c(n_lead, -j) = conj(spec(-n_lead, j))
        flat[..., outside] = 0.0
        return out

    def reflect(self, coeffs: np.ndarray) -> np.ndarray:
        """Return the array g with g(n) = coeffs(-n) in fftn layout."""
        out = coeffs
        for ax in range(coeffs.ndim - self.dim, coeffs.ndim):
            out = np.roll(np.flip(out, axis=ax), 1, axis=ax)
        return out

    # -- identity ---------------------------------------------------------

    def _key(self):
        return (self.dim, self.M, self.L, self.dealias_factor)

    def __eq__(self, other):
        return isinstance(other, TorusGrid) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"TorusGrid(dim={self.dim}, M={self.M}, L={self.L}, "
            f"dealias_factor={self.dealias_factor})"
        )
