"""Stokes eigenfunction basis on the periodic torus.

On the torus the Leray projector commutes with the Laplacian, so the
Stokes eigenfunctions are exactly the divergence-free Fourier modes with
eigenvalues |k|^2.  The real basis convention is: for every half-space
representative wavevector n (first nonzero component positive) and every
polarization vector orthogonal to it (one in 2D, two in 3D), a cosine and
a sine field, each of unit L^2 norm:

    a_cos(x) = sqrt(2 / L^d) e cos(k.x),   a_sin(x) = sqrt(2 / L^d) e sin(k.x).

Entries are ordered by ascending eigenvalue with ties broken by the
lexicographic wavevector order, then polarization index, then cosine
before sine, so the sequence is reproducible across runs.  Entry j of
that order is therefore representative j // 2(d-1), polarization
(j // 2) mod (d-1), and a cosine when j is even.

A basis is held as flat arrays: the wavevectors it touches (`modes`,
the first ceil(N / 2(d-1)) representatives) and their polarization
vectors.  Coefficient j fills slot j of a C-ordered (modes, d-1, 2)
table (mode, polarization, cos|sin), and synthesis and projection go
through that table, once per mode rather than once per entry.
"""

from __future__ import annotations

from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .errors import CapacityError, GridMismatchError
from .fields import SpectralVelocity, _kept_entries, representative_modes
from .grid import TorusGrid


def _unit(e: np.ndarray) -> np.ndarray:
    """Rows of e divided by their Euclidean norms."""
    return e / np.sqrt(np.linalg.vecdot(e, e))[:, np.newaxis]


def _polarizations(modes: np.ndarray) -> np.ndarray:
    """Orthonormal polarization vectors orthogonal to each wavevector row.

    Returns shape (count, d-1, d).  In 2D e = (-n_1, n_0)/|n|; in 3D
    e1 = n x r/|n x r| with r = e_z (e_x when n lies on the z axis) and
    e2 = n x e1/|n x e1|.
    """
    nv = modes.astype(np.float64)
    if modes.shape[1] == 2:
        return _unit(np.stack([-nv[:, 1], nv[:, 0]], axis=1))[:, np.newaxis]
    on_z = (modes[:, 0] == 0) & (modes[:, 1] == 0)
    ref = np.zeros_like(nv)
    ref[:, 2] = ~on_z
    ref[:, 0] = on_z
    e1 = _unit(np.cross(nv, ref))
    e2 = _unit(np.cross(nv, e1))
    return np.stack([e1, e2], axis=1)


def _mode_eigenvalues(grid: TorusGrid, modes: np.ndarray) -> np.ndarray:
    """Stokes eigenvalue |k|^2 of each wavevector row."""
    return (2.0 * np.pi / grid.L) ** 2 * np.sum(modes * modes, axis=1)


class StokesBasis:
    """The first N real Stokes eigenfunctions in the canonical order.

    Raises CapacityError unless 0 <= N <= basis_capacity(grid).
    """

    def __init__(self, grid: TorusGrid, N: int):
        capacity = basis_capacity(grid)
        if N < 0 or N > capacity:
            raise CapacityError(N, capacity)
        per_mode = 2 * (grid.dim - 1)
        modes = representative_modes(grid)[: -(-N // per_mode)]
        self.grid = grid
        self.eigenvalues = np.repeat(_mode_eigenvalues(grid, modes), per_mode)[:N]
        self.modes = modes  # (modes, d) wavevectors
        # polarization p, component i of every mode: (d-1, d, modes)
        self._directions = np.ascontiguousarray(_polarizations(modes).transpose(1, 2, 0))
        self._scale = np.sqrt(2.0 * grid.volume)
        # work buffers of the Galerkin kernels on this basis: built by
        # plsf.galerkin on their first call, freed with the basis
        self.arena = None

    @cached_property
    def _work(self) -> SimpleNamespace:
        """Per-mode scratch of _mode_values and project_modes."""
        d, count = self.grid.dim, len(self.modes)
        return SimpleNamespace(
            table=np.zeros((count, d - 1, 2)),  # slots past N stay 0
            line=np.empty(count),
            prod=np.empty((d, count)),
            vals=np.empty((d, count), dtype=np.complex128),
            amp=np.empty((d - 1, 2, count)),
        )

    @property
    def size(self) -> int:
        return len(self.eigenvalues)

    # -- coefficient transforms ------------------------------------------

    def project_modes(self, sub: np.ndarray) -> np.ndarray:
        """The inner products (f, a^r) from the coefficients of f at the
        basis wavevectors: sub[i, m] is component i at wavevector modes[m].
        Returns a fresh array."""
        d = self.grid.dim
        w = self._work
        # e . c(n) per polarization, accumulated from zero in component order
        amp = w.amp
        amp.fill(0.0)
        for p in range(d - 1):
            for i in range(d):
                amp[p, 0] += np.multiply(self._directions[p, i], sub[i].real, out=w.line)
                amp[p, 1] += np.multiply(self._directions[p, i], sub[i].imag, out=w.line)
        amp[:, 1] *= -1.0  # (f, a_sin) = -scale Im(e . c(n))
        return np.multiply(self._scale, amp.transpose(2, 0, 1)).reshape(-1)[: self.size]

    def project(self, v: SpectralVelocity) -> np.ndarray:
        if v.grid != self.grid:
            raise GridMismatchError(f"{v.grid!r} vs {self.grid!r}")
        # the basis wavevectors are the first representatives, v's first columns
        return self.project_modes(v.coeffs[:, : len(self.modes)])

    @cached_property
    def kept(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The basis's kept positions in the padded half-spectrum that
        `TorusGrid.to_physical` transforms: `grid.kept_index(self.modes)`."""
        return self.grid.kept_index(self.modes)

    def kept_coeffs(self, c: np.ndarray, out=None) -> np.ndarray:
        """The coefficients of sum_r c_r a^r at the kept wavevectors alone:
        shape (dim, len(kept[0])), entry e at the wavevector of kept entry
        e.  Written into `out` (C-contiguous) when it is given.
        """
        return _kept_entries(self._mode_values(c), self.kept, out=out)

    def _mode_values(self, c: np.ndarray) -> np.ndarray:
        """The coefficient of sum_r c_r a^r at each basis wavevector,
        shape (dim, modes), in the basis's scratch."""
        c = np.asarray(c, dtype=np.float64)
        if c.shape != (self.size,):
            raise ValueError(f"coefficient vector must have length {self.size}")
        d = self.grid.dim
        w = self._work
        w.table.reshape(-1)[: self.size] = c
        inv = 1.0 / self._scale
        # accumulate from zero in polarization order, the order of the entries;
        # a_cos carries e / scale on mode n and a_sin carries -i e / scale
        vals = w.vals
        vals.fill(0.0)
        for p in range(d - 1):
            for part, trig, factor in ((vals.real, 0, inv), (vals.imag, 1, -inv)):
                coef = np.multiply(w.table[:, p, trig], factor, out=w.line)
                part += np.multiply(coef, self._directions[p], out=w.prod)
        return vals

    def synthesize(self, c: np.ndarray, validate: bool = False) -> SpectralVelocity:
        """The field sum_r c_r a^r: its values at the basis wavevectors,
        zero at every later representative."""
        g = self.grid
        coeffs = np.zeros((g.dim, len(representative_modes(g))), dtype=np.complex128)
        coeffs[:, : len(self.modes)] = self._mode_values(c)
        return SpectralVelocity(g, coeffs, validate=validate)

    def entry_field(self, r: int) -> SpectralVelocity:
        """Materialize basis entry r as a unit-norm velocity field."""
        unit = np.zeros(self.size)
        unit[r] = 1.0
        return self.synthesize(unit)


def basis_capacity(grid: TorusGrid) -> int:
    """Number of admissible real divergence-free modes on the grid:
    (d-1) * 2 per half-space representative, (d-1) * ((M-1)^d - 1)."""
    return (grid.dim - 1) * ((grid.M - 1) ** grid.dim - 1)


def make_basis(grid: TorusGrid, N: int) -> StokesBasis:
    """First N basis entries under the canonical ordering."""
    return StokesBasis(grid, N)


def full_basis(grid: TorusGrid) -> StokesBasis:
    return make_basis(grid, basis_capacity(grid))


def count_modes_below(grid: TorusGrid, lambda_cut: float) -> int:
    """Number of basis entries with eigenvalue <= lambda_cut."""
    shells = _mode_eigenvalues(grid, representative_modes(grid))  # ascending
    return 2 * (grid.dim - 1) * int(np.searchsorted(shells, lambda_cut, side="right"))
