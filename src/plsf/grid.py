"""Periodic torus grids and the spectral transform conventions.

Conventions used throughout the package:

* Fields live on the torus (0, L)^dim with dim in {2, 3}.
* A real field f(x) = sum_n c(n) * exp(i k_n . x), k_n = (2*pi/L) * n,
  has c(-n) = conj c(n): of each pair n, -n one coefficient is stored and
  the other implied (see `plsf.fields.representative_modes`).  The
  transforms run through the half-spectrum of the real-input FFT (Frigo &
  Johnson, Proc. IEEE 93, 2005), whose last axis holds modes >= 0 only:
  a pair is written there at its member with last index >= 0, and at both
  members where the last index is 0 (`kept_index`).
* Retained wavevectors are the integer multi-indices with
  |n_i| <= M/2 - 1 per axis; the Nyquist index n_i = -M/2 is never
  stored.  The retained set is then closed under negation, which is what
  makes real fields representable.
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
        if not (math.isfinite(L) and L > 0):
            raise ValueError(f"L must be a positive finite number, got {L}")
        if not (math.isfinite(dealias_factor) and dealias_factor >= 1):
            raise ValueError(
                f"dealias_factor must be a finite number >= 1, got {dealias_factor}")
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
    # In 3D the same holds for the two leading axes against each other: the
    # inverse second-axis pass runs on the first axis's band rows alone (the
    # other rows are zero), and the forward first-axis pass on the second
    # axis's band columns alone (the other columns are discarded).  Every
    # lane that runs is the 1D transform ifftn/fftn would apply to it, in
    # the same axis order, so the results are theirs bit for bit.

    @cached_property
    def _padded_band(self) -> tuple[slice, slice]:
        """The band's low and high block on one leading axis of the padded
        spectrum."""
        half, Mp = self.M // 2, self.padded_M
        return slice(0, half), slice(Mp - (half - 1), Mp)

    @property
    def kept_shape(self) -> tuple[int, ...]:
        """Padded half-spectrum restricted to last-axis modes 0 .. M/2-1:
        the layout `to_physical` transforms."""
        return (self.padded_M,) * (self.dim - 1) + (self.M // 2,)

    def _check_band(self, n: np.ndarray) -> None:
        if n.ndim != 2 or n.shape[1] != self.dim:
            raise ValueError(f"modes must have shape (count, {self.dim}), got {n.shape}")
        if np.any(np.abs(n) > self.M // 2 - 1):
            raise ValueError(f"a wavevector lies outside the band |n_i| <= {self.M // 2 - 1}")

    def kept_index(self, modes: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Where the Hermitian pairs n, -n of the wavevector rows of `modes`
        (shape (count, dim), nonzero) are written into the kept padded
        half-spectrum (`kept_shape`), for `to_physical`: the scatter
        counterpart of `band_index`.

        The kept wavevectors of a pair are those with last index >= 0: n or
        -n, and both on the plane where the last index is 0.  Returns (dst,
        rows, split): kept entry e is the wavevector modes[rows[e]] for
        e < split and its mirror -modes[rows[e]] (whose coefficient is the
        conjugate of n's) from split on, and dst[e] is its flat index into
        kept_shape.  Each part is in ascending dst order.  Raises ValueError
        for a wavevector outside the band or a zero row.
        """
        n = np.asarray(modes)
        self._check_band(n)
        if np.any(np.all(n == 0, axis=1)):
            raise ValueError("the zero wavevector has no mirror pair")
        last = n[:, -1]
        parts = []
        for rows, sign in ((np.flatnonzero(last >= 0), 1), (np.flatnonzero(last <= 0), -1)):
            w = (sign * n[rows]).T
            dst = np.ravel_multi_index(tuple(w % self.padded_M), self.kept_shape)
            order = np.argsort(dst)
            parts.append((dst[order], rows[order]))
        (dst_d, rows_d), (dst_m, rows_m) = parts
        return np.concatenate([dst_d, dst_m]), np.concatenate([rows_d, rows_m]), len(rows_d)

    def band_index(self, modes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where each wavevector row of `modes` (shape (count, dim)) is read
        from in the padded rfft half-spectrum, for `to_spectral`.

        Returns (src, sign): the flat index into the half-spectrum (shape
        padded_shape[:-1] + (padded_M // 2 + 1,)), and -1.0 where the mode
        has a negative last index and is read as the conjugate of its
        mirror c(-n) (+1.0 elsewhere).  Raises ValueError for a wavevector
        outside the band.
        """
        n = np.asarray(modes)
        self._check_band(n)
        n = n.T
        neg = n[-1] < 0
        half_shape = self.padded_shape[:-1] + (self.padded_M // 2 + 1,)
        src = np.ravel_multi_index(tuple(np.where(neg, -n, n) % self.padded_M), half_shape)
        return src, np.where(neg, -1.0, 1.0)

    def work_size(self, channels: int, forward: bool) -> int:
        """Complex elements of `channels` channels of the padded
        half-spectrum: the whole of it, the `work` of `to_spectral`
        (`forward` true), or its kept part (`kept_shape`), which
        `to_physical` transforms (`forward` false)."""
        last = self.padded_M // 2 + 1 if forward else self.M // 2
        return channels * self.padded_M ** (self.dim - 1) * last

    def to_physical(self, spec: np.ndarray, out=None) -> np.ndarray:
        """Sample band-limited Hermitian coefficients on the padded grid.

        `spec` is the kept padded half-spectrum (lead + kept_shape
        complex128): each pair's coefficients scattered to its kept
        positions (see `kept_index`), zeros elsewhere.  It is transformed in
        place, so the call allocates no grid array and `spec` is spent.
        The samples are written into `out` (lead + padded_shape float64)
        when it is given.
        """
        if spec.shape[spec.ndim - self.dim :] != self.kept_shape:
            raise ValueError(f"a spectrum must have shape lead + {self.kept_shape}, "
                             f"got {spec.shape}")
        if self.dim == 3:
            for rows in self._padded_band:
                block = spec[..., rows, :, :]
                np.fft.ifft(block, axis=-2, norm="forward", out=block)
        np.fft.ifft(spec, axis=-self.dim, norm="forward", out=spec)
        # irfft zero-fills the last axis up to padded_M // 2 + 1 modes
        return np.fft.irfft(spec, n=self.padded_M, axis=-1, norm="forward", out=out)

    def to_spectral(self, samples: np.ndarray, index, out=None, work=None) -> np.ndarray:
        """Forward transform real padded-grid samples at the band modes of
        `index`, which is `band_index(modes)`.

        Returns lead + (count,) coefficients, the one of mode row m at
        [..., m], written into `out` when it is given.  `work`, a flat
        complex128 array of at least `work_size(channels, forward=True)`
        elements, then holds the padded half-spectrum, so that the call
        allocates no grid array.
        """
        lead = samples.shape[: samples.ndim - self.dim]
        half_shape = lead + self.padded_shape[:-1] + (self.padded_M // 2 + 1,)
        spec = None if work is None else work[: math.prod(half_shape)].reshape(half_shape)
        spec = np.fft.rfft(samples, axis=-1, norm="forward", out=spec)
        band = spec[..., : self.M // 2]
        np.fft.fft(band, axis=-2, norm="forward", out=band)
        if self.dim == 3:
            for cols in self._padded_band:
                block = band[..., cols, :]
                np.fft.fft(block, axis=-3, norm="forward", out=block)
        src, sign = index
        if out is None:
            out = np.empty(lead + src.shape, dtype=np.complex128)
        # mode="clip" (every index is in range) lets take write straight into
        # out; the default mode buffers the whole result first
        np.take(spec.reshape(lead + (-1,)), src, axis=-1, out=out, mode="clip")
        for channel in np.ndindex(lead):
            # one channel at a time: numpy copies a strided in-place operand
            out[channel].imag *= sign  # c(n_lead, -j) = conj(spec(-n_lead, j))
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
