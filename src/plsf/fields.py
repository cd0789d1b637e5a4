"""Divergence-free spectral velocity fields and the operations on them.

A `SpectralVelocity` is an immutable band-limited vector field that is
real (Hermitian-symmetric coefficients), incompressible (k . c(k) = 0)
and mean-free (c(0) = 0).  `TensorField` holds pointwise tensor samples
on the oversampled physical grid; nonlinear quantities are always formed
there and integrated with the uniform-grid rule.
"""

from __future__ import annotations

import math
import os
import struct
from functools import cache, cached_property

import numpy as np

from .errors import FieldInvariantError, GridMismatchError
from .grid import TorusGrid

CHECKPOINT_MAGIC = b"PLSF"
CHECKPOINT_VERSION = 1

# Divergence at or below this relative level counts as already solenoidal,
# which makes the projection an exact fixed point on its own output.
_SOLENOIDAL_RTOL = 1e-13


class SpectralVelocity:
    """Band-limited, real, divergence-free, mean-free velocity field."""

    def __init__(self, grid: TorusGrid, coeffs: np.ndarray, validate: bool = True):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != (grid.dim,) + grid.shape:
            raise FieldInvariantError(
                f"coefficient array has shape {coeffs.shape}, "
                f"expected {(grid.dim,) + grid.shape}"
            )
        coeffs = coeffs * grid.band_mask
        coeffs[(slice(None),) + (0,) * grid.dim] = 0.0
        if validate:
            _check_invariants(grid, coeffs)
        coeffs.setflags(write=False)
        self.grid = grid
        self.coeffs = coeffs

    @classmethod
    def zero(cls, grid: TorusGrid) -> "SpectralVelocity":
        return cls(grid, np.zeros((grid.dim,) + grid.shape, np.complex128), validate=False)

    @classmethod
    def from_physical(cls, grid: TorusGrid, samples: np.ndarray) -> "SpectralVelocity":
        """Build from real samples on the *native* M^dim grid.

        The samples are transformed, truncated to the band, Hermitian
        symmetrized and Leray projected, so the result always satisfies
        the type invariants whatever the input.
        """
        samples = np.asarray(samples, dtype=np.float64)
        if samples.shape != (grid.dim,) + grid.shape:
            raise FieldInvariantError(
                f"sample array has shape {samples.shape}, "
                f"expected {(grid.dim,) + grid.shape}"
            )
        axes = tuple(range(1, 1 + grid.dim))
        c = np.fft.fftn(samples, axes=axes) / float(grid.M**grid.dim)
        c = c * grid.band_mask
        c = 0.5 * (c + np.conj(grid.reflect(c)))
        return leray_project(grid, c)

    @cached_property
    def physical(self) -> np.ndarray:
        """Real samples on the padded grid, shape (dim,) + padded_shape;
        read-only, as every later norm of the field reads them."""
        samples = self.grid.to_physical(self.coeffs)
        samples.setflags(write=False)
        return samples

    @cached_property
    def _gradient(self) -> "TensorField":
        g = self.grid
        k = g.wavevectors
        ghat = 1j * k[np.newaxis, :] * self.coeffs[:, np.newaxis]
        return TensorField(g, g.to_physical(ghat))

    @cached_property
    def _sym_gradient(self) -> "TensorField":
        vals = self._gradient.values
        sym = 0.5 * (vals + np.swapaxes(vals, 0, 1))
        return TensorField(self.grid, sym)

    @cached_property
    def grad_strain_sq(self) -> np.ndarray:
        """Pointwise |grad D|^2, the sum of (d_s D_ij)^2, on the padded grid."""
        shape = self.grid.padded_shape
        sq = _grad_strain_sq(_strain_gradient(self), np.empty(shape), np.empty(shape))
        sq.setflags(write=False)
        return sq

    def __add__(self, other: "SpectralVelocity") -> "SpectralVelocity":
        _require_same_grid(self, other)
        return SpectralVelocity(self.grid, self.coeffs + other.coeffs, validate=False)

    def __sub__(self, other: "SpectralVelocity") -> "SpectralVelocity":
        _require_same_grid(self, other)
        return SpectralVelocity(self.grid, self.coeffs - other.coeffs, validate=False)

    def __mul__(self, a: float) -> "SpectralVelocity":
        return SpectralVelocity(self.grid, self.coeffs * float(a), validate=False)

    __rmul__ = __mul__

    def __repr__(self):
        return f"SpectralVelocity(grid={self.grid!r})"


class TensorField:
    """Pointwise d x d tensor samples on the padded physical grid."""

    def __init__(self, grid: TorusGrid, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        d = grid.dim
        if values.shape != (d, d) + grid.padded_shape:
            raise FieldInvariantError(
                f"tensor array has shape {values.shape}, "
                f"expected {(d, d) + grid.padded_shape}"
            )
        values.setflags(write=False)
        self.grid = grid
        self.values = values

    def __repr__(self):
        return f"TensorField(grid={self.grid!r})"


def _require_same_grid(f, g):
    if f.grid != g.grid:
        raise GridMismatchError(f"{f.grid!r} vs {g.grid!r}")


def _check_invariants(grid: TorusGrid, coeffs: np.ndarray, rtol: float = 1e-10):
    scale = float(np.max(np.abs(coeffs)))
    if scale == 0.0:
        return
    herm = coeffs - np.conj(grid.reflect(coeffs))
    if float(np.max(np.abs(herm))) > rtol * scale:
        raise FieldInvariantError("coefficients are not Hermitian-symmetric")
    div = np.sum(grid.wavevectors * coeffs, axis=0)
    kmax = 2.0 * np.pi / grid.L * (grid.M // 2)
    if float(np.max(np.abs(div))) > rtol * scale * kmax:
        raise FieldInvariantError("field is not divergence-free")


# -- differential operators and projection ------------------------------


def sym_gradient(v: SpectralVelocity) -> TensorField:
    """Strain-rate tensor, the symmetric part of the velocity gradient."""
    return v._sym_gradient


def gradient(v: SpectralVelocity) -> TensorField:
    """Full velocity gradient with entries (i, j) -> d v_i / d x_j."""
    return v._gradient


@cache
def symmetric_components(dim: int):
    """Storage of a symmetric dim x dim tensor as its upper triangle.

    Returns (rows, cols, pos): the pairs (i, j), i <= j, in row order,
    which ends with (dim-1, dim-1), and the (dim, dim) table giving each
    entry's position in that list, so that `upper[pos]` is the full tensor.
    """
    rows, cols = np.triu_indices(dim)
    pos = np.empty((dim, dim), dtype=np.intp)
    pos[rows, cols] = pos[cols, rows] = np.arange(rows.size)
    return rows, cols, pos


def _strain_gradient_pairs(grid: TorusGrid, ik, coeffs, out, spec, work=None) -> np.ndarray:
    """Samples of d_s D_ij for the pairs i <= j, written into `out` of
    shape (pair, d) + padded_shape, one pair per transform.

    `ik` is 1j * grid.wavevectors and `spec` a (d + 2,) + shape complex
    scratch array; `work` goes to the transform.
    """
    d = grid.dim
    rows, cols, _ = symmetric_components(d)
    inputs, dhat, other = spec[:d], spec[d], spec[d + 1]
    for a, (i, j) in enumerate(zip(rows, cols)):
        # D_ij from d_j v_i = ik_j c_i and its transpose
        np.multiply(ik[j], coeffs[i], out=dhat)
        np.add(dhat, np.multiply(ik[i], coeffs[j], out=other), out=dhat)
        np.multiply(0.5, dhat, out=dhat)
        grid.to_physical(np.multiply(ik, dhat, out=inputs), out=out[a], work=work)
    return out


def _strain_gradient(v: SpectralVelocity) -> np.ndarray:
    g = v.grid
    pairs = (len(symmetric_components(g.dim)[0]), g.dim)
    return _strain_gradient_pairs(
        g, 1j * g.wavevectors, v.coeffs, np.empty(pairs + g.padded_shape),
        np.empty((g.dim + 2,) + g.shape, dtype=np.complex128),
    )


def grad_sym_gradient_samples(v: SpectralVelocity) -> np.ndarray:
    """Samples of the strain-rate gradient, shape (d, d, d) + padded_shape.

    Entry (s, i, j) holds d_s D_ij; used by the weighted second-order
    dissipation functional.
    """
    pos = symmetric_components(v.grid.dim)[2]
    # D is symmetric, so the lower triangle is the mirror: (i, j, s) -> (s, i, j)
    return np.moveaxis(_strain_gradient(v)[pos], 2, 0)


def _sum_of_squares(channels, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """out = sum of the squared channels, added one at a time in the given
    order, which is how np.sum(x**2, axis=...) reduces leading axes: in
    memory order, so C order for a C-contiguous x."""
    np.square(channels[0], out=out)
    for ch in channels[1:]:
        out += np.square(ch, out=tmp)
    return out


def _grad_strain_sq(pairs: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """|grad D|^2 from pairs[pair, s] = d_s D_pair, summed over (i, j, s) in
    that order, the memory order of grad_sym_gradient_samples: one pair's
    samples at a time, so no (d, d, d) array is formed."""
    d = pairs.shape[1]
    pos = symmetric_components(d)[2]
    return _sum_of_squares(
        [pairs[pos[i, j], s] for i in range(d) for j in range(d) for s in range(d)], out, tmp
    )


def hessian_samples(v: SpectralVelocity) -> np.ndarray:
    """Second-derivative samples, shape (d, d, d) + padded_shape.

    Entry (i, j, k) holds d_j d_k v_i.  Only j <= k is transformed, as
    -(k_j k_k) c_i is symmetric bit for bit; the mirror is C-contiguous
    because reductions over it sum in memory order.
    """
    g = v.grid
    k = g.wavevectors
    rows, cols, pos = symmetric_components(g.dim)
    upper = g.to_physical(-(k[rows] * k[cols] * v.coeffs[:, np.newaxis]))
    return np.ascontiguousarray(upper[:, pos])


def leray_project(grid: TorusGrid, coeffs: np.ndarray) -> SpectralVelocity:
    """Project arbitrary real spectral data onto divergence-free fields.

    Per mode k != 0 the output is f(k) - k (k . f(k)) / |k|^2; the mean
    mode is zeroed.  If the input is already solenoidal at rounding level
    it is passed through unchanged, which makes a second application an
    exact fixed point of the first.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.shape != (grid.dim,) + grid.shape:
        raise FieldInvariantError(
            f"coefficient array has shape {coeffs.shape}, "
            f"expected {(grid.dim,) + grid.shape}"
        )
    coeffs = coeffs * grid.band_mask
    k = grid.wavevectors
    kdotf = np.sum(k * coeffs, axis=0)
    scale = float(np.max(np.abs(coeffs)))
    kmax = 2.0 * np.pi / grid.L * (grid.M // 2)
    if scale == 0.0 or float(np.max(np.abs(kdotf))) <= _SOLENOIDAL_RTOL * scale * kmax:
        return SpectralVelocity(grid, coeffs, validate=False)
    ksq = grid.k_squared.copy()
    ksq[(0,) * grid.dim] = 1.0
    out = coeffs - k * (kdotf / ksq)[np.newaxis]
    return SpectralVelocity(grid, out, validate=False)


# -- norms and inner products --------------------------------------------


def _samples_and_grid(f):
    if isinstance(f, SpectralVelocity):
        return f.physical, f.grid
    if isinstance(f, TensorField):
        return f.values, f.grid
    raise TypeError(f"expected SpectralVelocity or TensorField, got {type(f)!r}")


def pointwise_magnitude(samples: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Euclidean/Frobenius magnitude over the leading tensor axes."""
    lead = samples.ndim - grid.dim
    if lead == 0:
        return np.abs(samples)
    return np.sqrt(np.sum(samples**2, axis=tuple(range(lead))))


def lp_norm(f, q: float, grid: TorusGrid | None = None) -> float:
    """L^q(Omega) norm by quadrature on the padded grid, q >= 1.

    Accepts a SpectralVelocity, a TensorField, or a raw sample array on
    the padded grid together with its grid.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if isinstance(f, np.ndarray):
        if grid is None:
            raise ValueError("raw sample arrays need an explicit grid")
        samples = f
    else:
        samples, grid = _samples_and_grid(f)
    return _norm_of_magnitude(pointwise_magnitude(samples, grid), q, grid)


def _norm_of_magnitude(mag: np.ndarray, q: float, grid: TorusGrid) -> float:
    """L^q norm by quadrature of pointwise magnitudes; overwrites `mag`."""
    if q == 2.0:
        total = float(np.sum(np.square(mag, out=mag)))
        return float(np.sqrt(total * grid.quad_weight))
    total = float(np.sum(np.power(mag, q, out=mag)))
    return float((total * grid.quad_weight) ** (1.0 / q))


def inner_product(f, g) -> float:
    """Quadrature of the pointwise (full tensor) contraction of f and g."""
    fs, fgrid = _samples_and_grid(f)
    gs, ggrid = _samples_and_grid(g)
    if fgrid != ggrid:
        raise GridMismatchError(f"{fgrid!r} vs {ggrid!r}")
    if fs.shape != gs.shape:
        raise GridMismatchError(f"field shapes differ: {fs.shape} vs {gs.shape}")
    return float(np.sum(fs * gs) * fgrid.quad_weight)


def l2_norm_spectral(v: SpectralVelocity) -> float:
    """Coefficient-sum (Parseval) form of the L^2 norm."""
    return float(np.sqrt(v.grid.volume * np.sum(np.abs(v.coeffs) ** 2)))


# -- canonical initial data ----------------------------------------------


def taylor_green(grid: TorusGrid, amplitude: float = 1.0, band: int = 1) -> SpectralVelocity:
    """Classical Taylor-Green cellular vortex, exactly divergence-free."""
    if band < 1 or band > grid.M // 2 - 1:
        raise ValueError(f"band must be in [1, {grid.M // 2 - 1}], got {band}")
    kap = 2.0 * np.pi * band / grid.L
    x = grid.points(padded=False)
    a = float(amplitude)
    if grid.dim == 2:
        u = a * np.sin(kap * x[0]) * np.cos(kap * x[1])
        w = -a * np.cos(kap * x[0]) * np.sin(kap * x[1])
        samples = np.stack([u, w])
    else:
        u = a * np.sin(kap * x[0]) * np.cos(kap * x[1]) * np.cos(kap * x[2])
        w = -a * np.cos(kap * x[0]) * np.sin(kap * x[1]) * np.cos(kap * x[2])
        samples = np.stack([u, w, np.zeros_like(u)])
    return SpectralVelocity.from_physical(grid, samples)


def random_solenoidal(
    grid: TorusGrid,
    band: int,
    decay: float = 2.0,
    seed=0,
    amplitude: float = 1.0,
) -> SpectralVelocity:
    """Random band-limited solenoidal field, reproducible from the seed.

    Independent complex Gaussian coefficients with power-law decay
    |n|^(-decay) inside |n| <= band, Hermitian-symmetrized, Leray
    projected and rescaled to the requested L^2 norm.  `seed` is anything
    numpy's default_rng accepts (int, SeedSequence, Generator).
    """
    if band < 1 or band > grid.M // 2 - 1:
        raise ValueError(f"band must be in [1, {grid.M // 2 - 1}], got {band}")
    rng = np.random.default_rng(seed)
    shape = (grid.dim,) + grid.shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    nsq = np.sum(grid.mode_grid.astype(np.float64) ** 2, axis=0)
    keep = (nsq > 0) & (nsq <= float(band) ** 2)
    with np.errstate(divide="ignore"):
        weight = np.where(keep, nsq ** (-decay / 2.0), 0.0)
    c = raw * weight[np.newaxis]
    c = 0.5 * (c + np.conj(grid.reflect(c)))
    v = leray_project(grid, c)
    norm = l2_norm_spectral(v)
    if norm == 0.0:
        raise FieldInvariantError("random field degenerated to zero")
    return v * (float(amplitude) / norm)


# -- checkpoint format -----------------------------------------------------
#
# Little-endian layout:
#   magic "PLSF" (4 bytes) | version u32 | dim u32 | M u32 | L f64 |
#   mode_count u64 | mode_count * dim * (re f64, im f64)
# Coefficients are stored for the canonical half-space representative
# wavevectors in the documented basis order (eigenvalue, then
# lexicographic wavevector); the conjugate modes are implied.  A file is
# read only if its header describes a valid grid, mode_count is that
# grid's ((M-1)^dim - 1)/2 and the payload is exactly mode_count * dim * 16
# bytes long; these are checked before anything is allocated.

_HEADER = struct.Struct("<4sIIIdQ")


@cache
def _canonical_modes(dim: int, M: int) -> np.ndarray:
    half = M // 2 - 1
    axis = np.arange(-half, half + 1)
    n = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    lead = n[np.arange(len(n)), np.argmax(n != 0, axis=1)]  # first nonzero (0 for n = 0)
    n = n[lead > 0]
    # np.lexsort sorts by its last key first: |n|^2, then n_0, n_1, ...
    keys = tuple(n[:, k] for k in reversed(range(dim))) + (np.sum(n * n, axis=1),)
    reps = n[np.lexsort(keys)]
    reps.setflags(write=False)
    return reps


def representative_modes(grid: TorusGrid) -> np.ndarray:
    """Half-space representative wavevectors in canonical order.

    Returns a read-only int array of shape (count, dim) with count =
    ((M-1)^dim - 1)/2.  A representative has its first nonzero component
    positive; the order is ascending |n|^2 with lexicographic tie-break.
    The enumeration depends on (dim, M) only and is computed once for each.
    """
    return _canonical_modes(grid.dim, grid.M)


def _component_positions(grid: TorusGrid, modes: np.ndarray) -> np.ndarray:
    """Flat index, into a (dim,) + grid.shape coefficient array, of each
    component at each wavevector row of `modes`; shape (dim, count)."""
    pos = np.ravel_multi_index(tuple((modes % grid.M).T), grid.shape)
    return pos + grid.M**grid.dim * np.arange(grid.dim)[:, np.newaxis]


def _with_mirrors(grid: TorusGrid, vals: np.ndarray, pos, mirror, out=None) -> np.ndarray:
    """Coefficients holding vals (dim, count) at the flat positions `pos`,
    their conjugates at `mirror` (the positions of -n) and zero elsewhere,
    written into `out` (C-contiguous) when it is given.

    The arithmetic is that of c + conj(reflect(c)) for c holding vals at
    pos: v + conj(0) at pos and 0 + conj(v) at mirror, so the signs of
    vanishing parts come out the same (+0.0, but for an imaginary -0.0 kept
    at pos).  `vals` is used as the work buffer and overwritten.
    """
    if out is None:
        out = np.zeros((grid.dim,) + grid.shape, dtype=np.complex128)
    else:
        out.fill(0.0)
    flat = out.reshape(-1)
    vals += complex(0.0, -0.0)
    flat[pos] = vals
    np.conjugate(vals, out=vals)
    vals += 0.0
    flat[mirror] = vals
    return out


def save_checkpoint(path, v: SpectralVelocity) -> None:
    grid = v.grid
    reps = representative_modes(grid)
    vals = v.coeffs.reshape(-1)[_component_positions(grid, reps)]
    inter = np.empty((len(reps), grid.dim, 2), dtype="<f8")
    inter[..., 0] = vals.real.T
    inter[..., 1] = vals.imag.T
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                CHECKPOINT_MAGIC, CHECKPOINT_VERSION, grid.dim, grid.M, grid.L, len(reps)
            )
        )
        fh.write(inter.tobytes())


def _checked_payload_size(path, dim: int, M: int, L: float, count: int) -> int:
    """Payload length in bytes a valid header implies; raises on a bad header."""
    if dim not in (2, 3) or M < 8 or M % 2 != 0 or not (math.isfinite(L) and L > 0):
        raise FieldInvariantError(
            f"{path} has an invalid grid header: dim={dim}, M={M}, L={L!r}"
        )
    admitted = ((M - 1) ** dim - 1) // 2
    if count != admitted:
        raise FieldInvariantError(
            f"{path} stores {count} modes, its grid admits {admitted}"
        )
    return count * dim * 16


def load_checkpoint(path, dealias_factor: float = 1.5) -> SpectralVelocity:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise FieldInvariantError(f"truncated checkpoint header in {path}")
        magic, version, dim, M, L, count = _HEADER.unpack(header)
        if magic != CHECKPOINT_MAGIC:
            raise FieldInvariantError(f"{path} is not a PLSF checkpoint")
        if version != CHECKPOINT_VERSION:
            raise FieldInvariantError(f"{path} has unsupported checkpoint version {version}")
        size = _checked_payload_size(path, dim, M, L, count)
        found = os.fstat(fh.fileno()).st_size - _HEADER.size
        if found < size:
            raise FieldInvariantError(f"truncated checkpoint payload in {path}")
        if found > size:
            raise FieldInvariantError(
                f"{path} has {found - size} trailing bytes after the checkpoint payload"
            )
        data = np.frombuffer(fh.read(size), dtype="<f8")
        if data.nbytes != size:
            raise FieldInvariantError(f"truncated checkpoint payload in {path}")
        # NaN passes every `>` comparison of the invariant checks
        if not np.all(np.isfinite(data)):
            raise FieldInvariantError(f"{path} holds non-finite coefficients")
    grid = TorusGrid(dim, M, L, dealias_factor=dealias_factor)
    reps = representative_modes(grid)
    flat = data.reshape(count, dim, 2)
    vals = (flat[..., 0] + 1j * flat[..., 1]).T
    coeffs = _with_mirrors(
        grid, vals, _component_positions(grid, reps), _component_positions(grid, -reps)
    )
    return SpectralVelocity(grid, coeffs)
