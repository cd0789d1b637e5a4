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

A basis is held as flat arrays: the wavevectors it touches, their
polarization vectors, and for each entry its slot (mode, polarization,
cos|sin) in a C-ordered (modes, d-1, 2) table, which in the canonical
order is slot j for entry j.  Synthesis and projection go through that
table, once per mode rather than once per entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CapacityError, GridMismatchError
from .fields import (
    SpectralVelocity,
    _component_positions,
    _with_mirrors,
    representative_modes,
)
from .grid import TorusGrid


@dataclass(frozen=True)
class BasisEntry:
    eigenvalue: float
    wavevector: tuple[int, ...]
    polarization: int
    trig: str  # "cos" | "sin"
    direction: np.ndarray = field(repr=False, compare=False)


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

    `make_basis` builds one from the canonical enumeration; the
    constructor takes an explicit entry list in any order.
    """

    def __init__(self, grid: TorusGrid, entries: list[BasisEntry]):
        entries = list(entries)
        d = grid.dim
        wave = np.array([e.wavevector for e in entries], dtype=np.int64).reshape(-1, d)
        modes, mode_of = np.unique(wave, axis=0, return_inverse=True)
        mode_of = mode_of.reshape(-1)
        pol = np.array([e.polarization for e in entries], dtype=np.int64)
        directions = np.zeros((len(modes), d - 1, d))
        directions[mode_of, pol] = np.array([e.direction for e in entries]).reshape(-1, d)
        is_sin = np.array([e.trig == "sin" for e in entries], dtype=np.int64)
        slot = (mode_of * (d - 1) + pol) * 2 + is_sin
        eigenvalues = np.array([e.eigenvalue for e in entries], dtype=np.float64)
        self._setup(grid, modes, directions, slot, eigenvalues)

    @classmethod
    def _canonical(cls, grid: TorusGrid, N: int) -> "StokesBasis":
        """First N entries of the canonical order, straight from the arrays."""
        per_mode = 2 * (grid.dim - 1)
        modes = representative_modes(grid)[: -(-N // per_mode)]
        eigenvalues = np.repeat(_mode_eigenvalues(grid, modes), per_mode)[:N]
        basis = cls.__new__(cls)
        basis._setup(grid, modes, _polarizations(modes), slice(0, N), eigenvalues)
        return basis

    def _setup(self, grid, modes, directions, slot, eigenvalues):
        self.grid = grid
        self.eigenvalues = eigenvalues
        self._modes = modes  # (modes, d) wavevectors
        # polarization p, component i of every mode: (d-1, d, modes)
        self._directions = np.ascontiguousarray(directions.transpose(1, 2, 0))
        # entry -> flat slot in the (modes, d-1, 2) table; slice(0, N) when canonical
        self._slot = slot
        self._pos = _component_positions(grid, modes)  # (d, modes)
        self._mirror = _component_positions(grid, -modes)
        self._scale = np.sqrt(2.0 * grid.volume)

    @property
    def size(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def entries(self) -> list[BasisEntry]:
        """One record per entry, built on first access (the solver never
        reads it)."""
        d = self.grid.dim
        slots = np.arange(len(self._modes) * 2 * (d - 1))[self._slot]
        mode, pol = np.divmod(slots // 2, d - 1)
        return [
            BasisEntry(
                float(lam),
                tuple(int(x) for x in self._modes[m]),
                int(p),
                "sin" if s % 2 else "cos",
                self._directions[p, :, m].copy(),
            )
            for lam, m, p, s in zip(self.eigenvalues, mode, pol, slots)
        ]

    # -- coefficient transforms ------------------------------------------

    def project_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """Inner products (f, a^r) straight from spectral coefficients."""
        d = self.grid.dim
        sub = coeffs.reshape(-1)[self._pos]  # (d, modes)
        # e . c(n) per polarization, accumulated from zero in component order
        amp = np.zeros((d - 1, 2, len(self._modes)))
        for p in range(d - 1):
            for i in range(d):
                amp[p, 0] += self._directions[p, i] * sub[i].real
                amp[p, 1] += self._directions[p, i] * sub[i].imag
        amp[:, 1] *= -1.0  # (f, a_sin) = -scale Im(e . c(n))
        return self._scale * amp.transpose(2, 0, 1).reshape(-1)[self._slot]

    def project(self, v: SpectralVelocity) -> np.ndarray:
        if v.grid != self.grid:
            raise GridMismatchError(f"{v.grid!r} vs {self.grid!r}")
        return self.project_coeffs(v.coeffs)

    def synthesize_coeffs(self, c: np.ndarray) -> np.ndarray:
        """Spectral coefficients of sum_r c_r a^r."""
        c = np.asarray(c, dtype=np.float64)
        if c.shape != (self.size,):
            raise ValueError(f"coefficient vector must have length {self.size}")
        d = self.grid.dim
        table = np.zeros((len(self._modes), d - 1, 2))  # unused slots stay 0
        table.reshape(-1)[self._slot] = c
        inv = 1.0 / self._scale
        cos = table[..., 0].T * inv
        sin = table[..., 1].T * -inv  # a_sin carries -i e / scale on mode n
        # accumulate from zero in polarization order, the order of the entries
        vals = np.zeros((d, len(self._modes)), dtype=np.complex128)
        for p in range(d - 1):
            vals.real += cos[p] * self._directions[p]
            vals.imag += sin[p] * self._directions[p]
        return _with_mirrors(self.grid, vals, self._pos, self._mirror)

    def synthesize(self, c: np.ndarray, validate: bool = False) -> SpectralVelocity:
        return SpectralVelocity(self.grid, self.synthesize_coeffs(c), validate=validate)

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
    capacity = basis_capacity(grid)
    if N < 0 or N > capacity:
        raise CapacityError(N, capacity)
    return StokesBasis._canonical(grid, N)


def full_basis(grid: TorusGrid) -> StokesBasis:
    return make_basis(grid, basis_capacity(grid))


def count_modes_below(grid: TorusGrid, lambda_cut: float) -> int:
    """Number of basis entries with eigenvalue <= lambda_cut."""
    shells = _mode_eigenvalues(grid, representative_modes(grid))  # ascending
    return 2 * (grid.dim - 1) * int(np.searchsorted(shells, lambda_cut, side="right"))
