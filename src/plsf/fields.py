"""Divergence-free spectral velocity fields and the operations on them.

A `SpectralVelocity` is an immutable band-limited vector field that is
real, incompressible (k . c(k) = 0) and mean-free.  It holds one
coefficient per Hermitian pair n, -n of band wavevectors: the one at the
pair's representative (`representative_modes`), c(-n) = conj c(n) being
implied and c(0) = 0.  The basis and the checkpoint file read and write
that array as it is.
`TensorField` holds pointwise tensor samples on the oversampled physical
grid; nonlinear quantities are always formed there and integrated with
the uniform-grid rule.
"""

from __future__ import annotations

import bisect
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
    """Band-limited, real, divergence-free, mean-free velocity field.

    `coeffs` has shape (dim, count): column m is the coefficient at the
    wavevector representative_modes(grid)[m].  The field takes the array
    over, without a copy, and makes it read-only.
    """

    def __init__(self, grid: TorusGrid, coeffs: np.ndarray, validate: bool = True):
        coeffs = _coefficient_array(grid, coeffs)
        if validate:
            # NaN passes every `>` comparison of the divergence check
            if not np.all(np.isfinite(coeffs)):
                raise FieldInvariantError("coefficients are not finite")
            _check_divergence(grid, coeffs)
        coeffs.setflags(write=False)
        self.grid = grid
        self.coeffs = coeffs

    @classmethod
    def zero(cls, grid: TorusGrid) -> "SpectralVelocity":
        return cls(grid, np.zeros((grid.dim, _mode_count(grid.dim, grid.M)), np.complex128),
                   validate=False)

    @cached_property
    def physical(self) -> np.ndarray:
        """Real samples on the padded grid, shape (dim,) + padded_shape;
        read-only, as every later norm of the field reads them."""
        g = self.grid
        kept = g.kept_index(representative_modes(g))
        samples = g.to_physical(_kept_spectrum(g, _kept_entries(self.coeffs, kept), kept))
        samples.setflags(write=False)
        return samples

    @cached_property
    def _gradient(self) -> "TensorField":
        g = self.grid
        kept = g.kept_index(representative_modes(g))
        ik = 1j * _wavevectors(g, _kept_wavevectors(representative_modes(g), kept))
        ghat = ik[np.newaxis, :] * _kept_entries(self.coeffs, kept)[:, np.newaxis]
        return TensorField(g, g.to_physical(_kept_spectrum(g, ghat, kept)))

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


def _mode_count(dim: int, M: int) -> int:
    """Number of representative wavevectors of a grid, ((M-1)^dim - 1)/2."""
    return ((M - 1) ** dim - 1) // 2


def _coefficient_array(grid: TorusGrid, coeffs) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    expected = (grid.dim, _mode_count(grid.dim, grid.M))
    if coeffs.shape != expected:
        raise FieldInvariantError(
            f"coefficient array has shape {coeffs.shape}, expected {expected}: one "
            f"column per representative wavevector"
        )
    return coeffs


def _dot(k: np.ndarray, c: np.ndarray) -> np.ndarray:
    """k . c per column, the components added in order: the bits of
    np.sum(k * c, axis=0)."""
    out = k[0] * c[0]
    for ki, ci in zip(k[1:], c[1:]):
        out += ki * ci
    return out


def _check_divergence(grid: TorusGrid, coeffs: np.ndarray, rtol: float = 1e-10):
    scale = float(np.max(np.abs(coeffs)))
    if scale == 0.0:
        return
    div = _dot(_wavevectors(grid, representative_modes(grid)), coeffs)
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
    """Project real spectral data onto divergence-free fields.

    `coeffs` holds the data's coefficients at the representative
    wavevectors, shape (dim, count).  Per mode the output is
    f(k) - k (k . f(k)) / |k|^2.  If the input is already solenoidal at
    rounding level it is passed through unchanged (copied), which makes a
    second application an exact fixed point of the first.
    """
    coeffs = _coefficient_array(grid, coeffs)
    return SpectralVelocity(
        grid, _solenoidal_part(grid, _wavevectors(grid, representative_modes(grid)), coeffs), validate=False)


def _solenoidal_part(grid: TorusGrid, k: np.ndarray, c: np.ndarray) -> np.ndarray:
    """leray_project's values for coefficients c at wavevectors k, both
    (dim, count), one component at a time; a fresh array."""
    kdotc = _dot(k, c)
    scale = float(np.max(np.abs(c)))
    kmax = 2.0 * np.pi / grid.L * (grid.M // 2)
    if scale == 0.0 or float(np.max(np.abs(kdotc))) <= _SOLENOIDAL_RTOL * scale * kmax:
        return c.copy()
    w = kdotc / _dot(k, k)
    out = np.empty_like(c)
    for ci, ki, oi in zip(c, k, out):
        np.subtract(ci, ki * w, out=oi)
    return out


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
    """Coefficient-sum (Parseval) form of the L^2 norm: each stored
    coefficient stands for itself and its mirror, so it counts twice."""
    return _l2_norm(v.grid, v.coeffs)


def _l2_norm(grid: TorusGrid, coeffs: np.ndarray) -> float:
    return float(np.sqrt(grid.volume * (2.0 * np.sum(np.abs(coeffs) ** 2))))


# -- canonical initial data ----------------------------------------------


def taylor_green(grid: TorusGrid, amplitude: float = 1.0, band: int = 1) -> SpectralVelocity:
    """Classical Taylor-Green cellular vortex, exactly divergence-free:
    u = a sin(kx) cos(ky) [cos(kz)], w = -a cos(kx) sin(ky) [cos(kz)] and,
    in 3D, a zero third component, with k = 2 pi band / L.

    As sin t = (e^(it) - e^(-it)) / 2i and cos t = (e^(it) + e^(-it)) / 2,
    its only modes are n = band * s, s in {-1, 1}^dim, where u has the
    coefficient -i s_1 a / 2^dim and w has i s_2 a / 2^dim.  The
    representatives among them are those with s_1 = 1; their coefficients
    are written directly.
    """
    if band < 1 or band > grid.M // 2 - 1:
        raise ValueError(f"band must be in [1, {grid.M // 2 - 1}], got {band}")
    d = grid.dim
    a = float(amplitude) / 2**d
    reps = representative_modes(grid)
    c = np.zeros((d, len(reps)), dtype=np.complex128)
    for tail in itertools.product((1, -1), repeat=d - 1):
        s = (1,) + tail
        (row,) = np.flatnonzero(np.all(reps == np.multiply(band, s), axis=1))
        c[0, row] = complex(0.0, -a)
        c[1, row] = complex(0.0, s[1] * a)
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
    entries at the band's representatives n and at their mirrors -n are
    kept.  Those representatives are a prefix of the canonical order,
    which ascends in |n|^2, and only its rows are projected.  `seed` is
    anything numpy's default_rng accepts (int, SeedSequence, Generator).
    """
    if band < 1 or band > grid.M // 2 - 1:
        raise ValueError(f"band must be in [1, {grid.M // 2 - 1}], got {band}")
    rng = np.random.default_rng(seed)
    d = grid.dim
    reps = representative_modes(grid)
    size = bisect.bisect_right(reps, band**2, key=lambda row: int(row @ row))
    n = reps[:size]
    weight = np.sum(n.astype(np.float64) ** 2, axis=1) ** (-decay / 2.0)
    at = np.ravel_multi_index(tuple((np.concatenate([n, -n]) % grid.M).T), grid.shape)
    buf = np.empty(grid.shape)
    parts = np.empty((2, d, len(at)))
    for part in parts:
        for channel in part:
            rng.standard_normal(out=buf)
            np.take(buf, at, out=channel)
    raw = parts[0] + 1j * parts[1]
    c = 0.5 * (raw[:, :size] * weight + np.conj(raw[:, size:] * weight))
    c = _solenoidal_part(grid, _wavevectors(grid, n), c)
    norm = _l2_norm(grid, c)
    if norm == 0.0:
        raise FieldInvariantError("random field degenerated to zero")
    coeffs = np.zeros((d, len(reps)), dtype=np.complex128)
    np.multiply(c, float(amplitude) / norm, out=coeffs[:, :size])
    return SpectralVelocity(grid, coeffs, validate=False)


# -- checkpoint format -----------------------------------------------------
#
# Little-endian layout:
#   magic "PLSF" (4 bytes) | version u32 | dim u32 | M u32 | L f64 |
#   mode_count u64 | mode_count * dim * (re f64, im f64)
# Coefficients are stored for the canonical half-space representative
# wavevectors in the documented basis order (eigenvalue, then
# lexicographic wavevector); the conjugate modes are implied.  The payload
# is SpectralVelocity.coeffs, row by row of its transpose.  A file is
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


def _wavevectors(grid: TorusGrid, modes: np.ndarray) -> np.ndarray:
    """k = (2*pi/L) * n of the wavevector rows of `modes`, shape (dim, count)."""
    return (2.0 * np.pi / grid.L) * modes.T.astype(np.float64, order="C")


def _kept_spectrum(grid: TorusGrid, entries: np.ndarray, kept) -> np.ndarray:
    """A fresh kept padded half-spectrum, lead + kept_shape, holding
    `entries` (lead + (len(dst),)) at the positions dst of kept = (dst,
    rows, split) and zeros elsewhere."""
    lead = entries.shape[:-1]
    spec = np.zeros(lead + grid.kept_shape, dtype=np.complex128)
    spec.reshape(lead + (-1,))[..., kept[0]] = entries
    return spec


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
    count = v.coeffs.shape[1]
    inter = np.empty((count, grid.dim, 2), dtype="<f8")
    inter[..., 0] = v.coeffs.real.T
    inter[..., 1] = v.coeffs.imag.T
    # every vanishing part is written as +0.0, so that a file loaded and
    # saved again keeps its bytes whatever signs its zeros had
    inter += 0.0
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, grid.dim, grid.M, grid.L, count)
        )
        fh.write(inter.tobytes())


def _checked_payload_size(path, dim: int, M: int, L: float, count: int) -> int:
    """Payload length in bytes a valid header implies; raises on a bad header."""
    if dim not in (2, 3) or M < 8 or M % 2 != 0 or not (math.isfinite(L) and L > 0):
        raise FieldInvariantError(
            f"{path} has an invalid grid header: dim={dim}, M={M}, L={L!r}"
        )
    admitted = _mode_count(dim, M)
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
    flat = data.reshape(count, dim, 2)
    coeffs = np.empty((dim, count), dtype=np.complex128)
    coeffs.real = flat[..., 0].T
    coeffs.imag = flat[..., 1].T
    return SpectralVelocity(TorusGrid(dim, M, L, dealias_factor=dealias_factor), coeffs)
