"""Divergence-free spectral velocity fields and the operations on them.

A `SpectralVelocity` is an immutable band-limited vector field that is
real (Hermitian-symmetric coefficients), incompressible (k . c(k) = 0)
and mean-free (c(0) = 0).  Its spectrum is held in the half layout of
`plsf.grid`: the modes with last index >= 0, the others being implied.
`TensorField` holds pointwise tensor samples on the oversampled physical
grid; nonlinear quantities are always formed there and integrated with
the uniform-grid rule.
"""

from __future__ import annotations

import itertools
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
        coeffs = _spectrum_array(grid, coeffs)
        # NaN passes every `>` comparison of the invariant checks, and the
        # band mask would turn inf into NaN
        if validate and not np.all(np.isfinite(coeffs)):
            raise FieldInvariantError("coefficients are not finite")
        coeffs = coeffs * grid.band_mask
        coeffs[(slice(None),) + (0,) * grid.dim] = 0.0
        if validate:
            _check_invariants(grid, coeffs)
        coeffs.setflags(write=False)
        self.grid = grid
        self.coeffs = coeffs

    @classmethod
    def zero(cls, grid: TorusGrid) -> "SpectralVelocity":
        return cls(grid, np.zeros((grid.dim,) + grid.spectral_shape, np.complex128),
                   validate=False)

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


def _spectrum_array(grid: TorusGrid, coeffs) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    expected = (grid.dim,) + grid.spectral_shape
    if coeffs.shape != expected:
        raise FieldInvariantError(
            f"coefficient array has shape {coeffs.shape}, expected {expected}"
        )
    return coeffs


def _check_invariants(grid: TorusGrid, coeffs: np.ndarray, rtol: float = 1e-10):
    scale = float(np.max(np.abs(coeffs)))
    if scale == 0.0:
        return
    # the plane of last index 0 is the only place where the half layout
    # stores both n and -n
    plane = coeffs[..., :1]
    herm = plane - np.conj(grid.reflect(plane))
    if float(np.max(np.abs(herm))) > rtol * scale:
        raise FieldInvariantError("coefficients are not Hermitian-symmetric")
    div = np.sum(grid.wavevectors * coeffs, axis=0)
    kmax = 2.0 * np.pi / grid.L * (grid.M // 2)
    if float(np.max(np.abs(div))) > rtol * scale * kmax:
        raise FieldInvariantError("field is not divergence-free")


# -- differential operators and projection ------------------------------


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


def _sum_of_squares(channels, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """out = sum of the squared channels, added one at a time in the given
    order, which is how np.sum(x**2, axis=...) reduces leading axes: in
    memory order, so C order for a C-contiguous x."""
    np.square(channels[0], out=out)
    for ch in channels[1:]:
        out += np.square(ch, out=tmp)
    return out


def _magnitude(channels, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """out = the pointwise Euclidean norm over the channels, whose squares
    are added by _sum_of_squares."""
    return np.sqrt(_sum_of_squares(channels, out, tmp), out=out)


def leray_project(grid: TorusGrid, coeffs: np.ndarray) -> SpectralVelocity:
    """Project real spectral data (half layout) onto divergence-free fields.

    Per mode k != 0 the output is f(k) - k (k . f(k)) / |k|^2; the mean
    mode is zeroed.  If the input is already solenoidal at rounding level
    it is passed through unchanged, which makes a second application an
    exact fixed point of the first.
    """
    coeffs = _spectrum_array(grid, coeffs) * grid.band_mask
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
    """Euclidean/Frobenius magnitude over the leading tensor axes.

    The squares are added one channel at a time in C order, so no second
    array of the input's size is formed; for C-contiguous samples that is
    the order, and so the bits, of np.sum(samples**2, axis=lead axes).
    """
    lead = samples.ndim - grid.dim
    if lead == 0:
        return np.abs(samples)
    shape = samples.shape[lead:]
    channels = [samples[i] for i in np.ndindex(samples.shape[:lead])]
    return _magnitude(channels, np.empty(shape), np.empty(shape))


def lp_norm(f, q: float, grid: TorusGrid | None = None) -> float:
    """L^q(Omega) norm by quadrature on the padded grid, q finite and >= 1.

    Accepts a SpectralVelocity, a TensorField, or a raw sample array on
    the padded grid together with its grid.
    """
    if isinstance(f, np.ndarray):
        if grid is None:
            raise ValueError("raw sample arrays need an explicit grid")
        samples = f
    else:
        samples, grid = _samples_and_grid(f)
    return _norm_of_magnitude(pointwise_magnitude(samples, grid), q, grid)


def _norm_of_magnitude(mag: np.ndarray, q: float, grid: TorusGrid, out=None) -> float:
    """L^q norm by quadrature of pointwise magnitudes.  The powers are
    written into `out`, a grid like `mag`, or over `mag` when it is None.
    Every L^q norm is reduced here, so here q must be a finite number >= 1:
    NaN passes `q < 1`, and q = inf would return 1.0."""
    if not (math.isfinite(q) and q >= 1):
        raise ValueError(f"q must be a finite number >= 1, got {q}")
    out = mag if out is None else out
    if q == 2.0:
        total = float(np.sum(np.square(mag, out=out)))
        return float(np.sqrt(total * grid.quad_weight))
    total = float(np.sum(np.power(mag, q, out=out)))
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
    """Coefficient-sum (Parseval) form of the L^2 norm.

    A stored mode off the plane of last index 0 stands for itself and its
    mirror, so it counts twice; the plane stores both and counts once.
    """
    sq = np.abs(v.coeffs) ** 2
    total = 2.0 * np.sum(sq[..., 1:]) + np.sum(sq[..., 0])
    return float(np.sqrt(v.grid.volume * total))


# -- canonical initial data ----------------------------------------------


def taylor_green(grid: TorusGrid, amplitude: float = 1.0, band: int = 1) -> SpectralVelocity:
    """Classical Taylor-Green cellular vortex, exactly divergence-free:
    u = a sin(kx) cos(ky) [cos(kz)], w = -a cos(kx) sin(ky) [cos(kz)] and,
    in 3D, a zero third component, with k = 2 pi band / L.

    As sin t = (e^(it) - e^(-it)) / 2i and cos t = (e^(it) + e^(-it)) / 2,
    its only modes are n = band * s, s in {-1, 1}^dim, where u has the
    coefficient -i s_1 a / 2^dim and w has i s_2 a / 2^dim.  The half
    layout stores those with s_dim = 1; they are written into it directly.
    """
    if band < 1 or band > grid.M // 2 - 1:
        raise ValueError(f"band must be in [1, {grid.M // 2 - 1}], got {band}")
    d = grid.dim
    a = float(amplitude) / 2**d
    c = np.zeros((d,) + grid.spectral_shape, dtype=np.complex128)
    for lead in itertools.product((1, -1), repeat=d - 1):
        s = lead + (1,)
        at = tuple(band * si % grid.M for si in s)
        c[(0,) + at] = complex(0.0, -s[0] * a)
        c[(1,) + at] = complex(0.0, s[1] * a)
    return SpectralVelocity(grid, c)


def random_solenoidal(
    grid: TorusGrid,
    band: int,
    decay: float = 2.0,
    seed=0,
    amplitude: float = 1.0,
) -> SpectralVelocity:
    """Random band-limited solenoidal field, reproducible from the seed.

    Independent complex Gaussian coefficients with power-law decay
    |n|^(-decay) inside 0 < |n| <= band, Hermitian-symmetrized as
    (c(n) + conj c(-n)) / 2, Leray projected and rescaled to the requested
    L^2 norm.  The normals are those of one draw of shape (dim,) + (M,)^dim
    in numpy's fftn layout for the real parts, then one for the imaginary
    parts; they are drawn one (M,)^dim component at a time and only the
    band's entries are kept.  `seed` is anything numpy's default_rng
    accepts (int, SeedSequence, Generator).
    """
    if band < 1 or band > grid.M // 2 - 1:
        raise ValueError(f"band must be in [1, {grid.M // 2 - 1}], got {band}")
    rng = np.random.default_rng(seed)
    d = grid.dim
    axis = np.arange(-band, band + 1)
    n = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)
    nsq = np.sum(n.astype(np.float64) ** 2, axis=1)
    keep = (nsq > 0) & (nsq <= float(band) ** 2)
    n, weight = n[keep], nsq[keep] ** (-decay / 2.0)
    at = np.ravel_multi_index(tuple((n % grid.M).T), grid.shape)
    buf = np.empty(grid.shape)
    parts = np.empty((2, d, len(at)))
    for part in parts:
        for channel in part:
            rng.standard_normal(out=buf)
            np.take(buf, at, out=channel)
    raw = parts[0] + 1j * parts[1]
    # n -> -n maps the rows onto themselves in reverse order
    c = 0.5 * (raw * weight + np.conj(raw[:, ::-1] * weight))
    stored = n[:, -1] >= 0
    coeffs = np.zeros((d,) + grid.spectral_shape, dtype=np.complex128)
    coeffs.reshape(d, -1)[:, grid.spectrum_index(n[stored])[0]] = c[:, stored]
    v = leray_project(grid, coeffs)
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


def _kept_wavevectors(modes: np.ndarray, kept) -> np.ndarray:
    """The wavevector of each entry of kept = `TorusGrid.kept_index(modes)`
    = (dst, rows, split): modes[rows[e]], negated from split on."""
    _, rows, split = kept
    waves = modes[rows]
    np.negative(waves[split:], out=waves[split:])
    return waves


def _kept_entries(vals: np.ndarray, kept, out=None) -> np.ndarray:
    """The coefficients of a real field at the entries of kept =
    `TorusGrid.kept_index(modes)` = (dst, rows, split), given vals
    (dim, count): its coefficient at each wavevector row of `modes`, the
    mirrors implied.  Entry e is vals[:, rows[e]], conjugated from split
    on; written into `out` (C-contiguous) when it is given.

    The signs of vanishing parts follow one fixed rule: v +
    complex(0.0, -0.0) at a mode, and the conjugate of that plus 0.0 at
    its mirror.
    """
    _, rows, split = kept
    if out is None:
        out = np.empty((len(vals), len(rows)), dtype=np.complex128)
    for channel, v in zip(out, vals):
        # mode="clip" (every index is in range) lets take write straight into out
        np.take(v, rows, out=channel, mode="clip")
    out += complex(0.0, -0.0)
    mirrored = out[:, split:]
    np.conjugate(mirrored, out=mirrored)
    mirrored += 0.0
    return out


def save_checkpoint(path, v: SpectralVelocity) -> None:
    grid = v.grid
    reps = representative_modes(grid)
    src, neg = grid.spectrum_index(reps)
    vals = v.coeffs.reshape(grid.dim, -1)[:, src]
    # a representative with a negative last index is read at its mirror, as
    # the conjugate; every vanishing part is written as +0.0, the sign a
    # loaded field holds whatever the file's, so that a loaded field saves
    # to the bytes it was loaded from
    vals[:, neg] = np.conj(vals[:, neg])
    vals += 0.0
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
    kept = grid.kept_index(reps)
    pos = grid.spectrum_index(_kept_wavevectors(reps, kept))[0]
    coeffs = np.zeros((dim,) + grid.spectral_shape, dtype=np.complex128)
    coeffs.reshape(dim, -1)[:, pos] = _kept_entries(vals, kept)
    return SpectralVelocity(grid, coeffs)
