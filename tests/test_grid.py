import math

import numpy as np
import pytest

from conftest import full_mode_grid, grid_points, hermitian_half
from plsf.fields import representative_modes
from plsf.grid import TorusGrid


def _band_modes(g):
    """Every band wavevector of the half layout, one row each, in its
    memory order."""
    return g.mode_grid[:, g.band_mask].T


@pytest.mark.parametrize("dim,M", [(2, 8), (2, 16), (3, 12)])
def test_band_closed_under_negation(dim, M):
    g = TorusGrid(dim, M, 1.0)
    assert g.mode_grid.shape == (dim,) + (M,) * (dim - 1) + (M // 2,)
    assert g.wavevectors.shape == g.mode_grid.shape
    assert g.k_squared.shape == g.band_mask.shape == g.spectral_shape
    modes = _band_modes(g)
    assert np.all(np.abs(modes) <= M // 2 - 1) and np.all(modes[:, -1] >= 0)
    mode_set = {tuple(m) for m in modes}
    assert len(mode_set) == (M - 1) ** (dim - 1) * (M // 2)
    # with their mirrors, the stored modes are the whole band
    assert len(mode_set | {tuple(-m) for m in modes}) == (M - 1) ** dim
    # the plane of last index 0 alone is closed under negation
    plane = modes[modes[:, -1] == 0]
    assert all(tuple(-m) in mode_set for m in plane)


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(4, 16, 1.0)
    with pytest.raises(ValueError):
        TorusGrid(2, 15, 1.0)
    with pytest.raises(ValueError):
        TorusGrid(2, 6, 1.0)
    with pytest.raises(ValueError):
        TorusGrid(2, 16, -1.0)
    with pytest.raises(ValueError):
        TorusGrid(2, 16, 1.0, dealias_factor=0.9)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_grid_rejects_non_finite_lengths(bad):
    # an infinite L made every wavevector 0, so a random draw on it was the
    # zero field; an infinite dealias factor overflowed ceil
    with pytest.raises(ValueError, match="L must be"):
        TorusGrid(2, 16, bad)
    with pytest.raises(ValueError, match="dealias_factor must be"):
        TorusGrid(2, 16, 1.0, dealias_factor=bad)


@pytest.mark.parametrize(
    "dim,M,dealias,lead",
    [(2, 16, 1.5, (2,)), (2, 16, 1.0, ()), (3, 12, 1.5, (2, 3)), (3, 8, 1.3, (1,))],
    ids=["2d", "2d-unpadded", "3d-lead2x3", "3d-padded10"],
)
def test_spectral_physical_roundtrip(dim, M, dealias, lead):
    # every band mode, including negative last-axis modes read through the
    # conjugate mirror, comes back from the padded half-spectrum
    g = TorusGrid(dim, M, 2 * np.pi, dealias_factor=dealias)
    c = hermitian_half(g, lead, seed=3) * g.band_mask
    phys = g.to_physical(c)
    assert phys.shape == lead + g.padded_shape
    assert phys.dtype == np.float64
    back = g.to_spectral(phys, g.band_index(_band_modes(g)))
    want = c[..., g.band_mask]
    assert back.shape == want.shape
    assert np.max(np.abs(back - want)) <= 1e-13 * np.max(np.abs(c))


@pytest.mark.parametrize("dim,M,dealias", [(2, 16, 1.5), (3, 8, 1.3)], ids=["2d", "3d"])
def test_transforms_into_given_buffers(dim, M, dealias):
    # out and work arrays full of junk give the allocating result bit for bit
    g = TorusGrid(dim, M, 2 * np.pi, dealias_factor=dealias)
    c = hermitian_half(g, (3,), seed=4) * g.band_mask
    work = np.full(max(g.work_size(3, False), g.work_size(3, True)), complex(np.nan, np.nan))
    out = np.full((3,) + g.padded_shape, np.nan)
    phys = g.to_physical(c, out=out, work=work)
    assert phys is out
    assert np.array_equal(phys, g.to_physical(c))
    index = g.band_index(_band_modes(g))
    spec = np.full((3, index[0].size), complex(np.nan, np.nan))
    back = g.to_spectral(phys, index, out=spec, work=work)
    assert back is spec
    assert np.array_equal(back, g.to_spectral(phys, index))


def test_reflect_is_negation_map():
    g = TorusGrid(2, 8, 1.0)
    rng = np.random.default_rng(5)
    c = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    r = g.reflect(c)
    for i in range(8):
        for j in range(8):
            assert r[i, j] == c[(-i) % 8, (-j) % 8]
    # the plane of a half-layout spectrum, as its first column
    plane = r[:, :1]
    assert np.array_equal(g.reflect(plane)[:, 0], c[:, 0])


@pytest.mark.parametrize("dim", [2, 3])
def test_to_physical_refuses_a_spectrum_of_another_shape(dim):
    g = TorusGrid(dim, 8, 1.0)
    with pytest.raises(ValueError, match="must have shape"):
        g.to_physical(np.zeros((dim,) + g.shape, dtype=complex))  # the full layout
    work = np.zeros(g.work_size(dim, False), dtype=complex)
    with pytest.raises(ValueError, match="must have shape"):
        g.to_physical(work[: dim * math.prod(g.spectral_shape)].reshape(
            (dim,) + g.spectral_shape), work=work)


def test_transform_roundtrip_and_single_mode():
    g = TorusGrid(2, 16, 2 * np.pi, dealias_factor=1.5)
    c = np.zeros((1,) + g.spectral_shape, dtype=complex)
    # cos(3x + 2y) = (e^{i(3x+2y)} + c.c.)/2; the mirror (-3, -2) is implied
    c[0, 3, 2] = 0.5
    phys = g.to_physical(c)[0]
    x = grid_points(g)
    expected = np.cos(3 * x[0] + 2 * x[1])
    assert np.max(np.abs(phys - expected)) < 1e-12
    back = g.to_spectral(phys[np.newaxis], g.band_index(np.array([[3, 2], [-3, -2], [3, -2]])))
    assert np.max(np.abs(back - [[0.5, 0.5, 0.0]])) < 1e-13


def test_quadrature_weight_integrates_constants():
    g = TorusGrid(3, 12, 1.7)
    ones = np.ones((1,) + g.padded_shape)
    assert np.sum(ones) * g.quad_weight == pytest.approx(1.7**3, rel=1e-14)


def test_padded_M_even_and_at_least_M():
    assert TorusGrid(2, 16, 1.0, dealias_factor=1.0).padded_M == 16
    assert TorusGrid(2, 10, 1.0, dealias_factor=1.5).padded_M == 16
    assert TorusGrid(2, 16, 1.0, dealias_factor=1.5).padded_M == 24


@pytest.mark.parametrize(
    "M,dealias,padded_M",
    [(64, 1.5, 96), (64, 1.45, 94), (64, 1.42, 92), (64, 1.0, 64),
     (10, 1.2, 12), (10, 1.3, 14)],
)
def test_dealiased_matches_product_aliasing(M, dealias, padded_M):
    # the square of the top band mode h = M/2 - 1 has mode 2h, which lands
    # in the band at 2h - padded_M exactly when the grid is not dealiased;
    # its band part is otherwise the mean 1/2 alone
    g = TorusGrid(2, M, 2 * np.pi, dealias_factor=dealias)
    assert g.padded_M == padded_M
    h = g.M // 2 - 1
    c = np.zeros(g.spectral_shape, dtype=complex)
    c[h, 0] = c[-h, 0] = 0.5
    u = g.to_physical(c)
    modes = _band_modes(g)
    prod = g.to_spectral(u * u, g.band_index(modes))
    mean = np.all(modes == 0, axis=1)
    assert abs(prod[mean][0] - 0.5) < 1e-14
    assert (2 * h - g.padded_M >= -h) == (not g.dealiased)
    assert bool(np.max(np.abs(prod[~mean])) > 0.1) == (not g.dealiased)


def _full_band_gather(g, samples):
    """The forward transform as it once filled the whole (M,)*dim band:
    every fftn-layout mode read from the padded rfft half-spectrum, as the
    conjugate of its mirror where the last index is negative, and zero
    outside the band."""
    lead = samples.shape[: samples.ndim - g.dim]
    spec = np.fft.rfft(samples, axis=-1, norm="forward")
    band = spec[..., : g.M // 2]
    band[...] = np.fft.fftn(band, axes=tuple(range(len(lead), len(lead) + g.dim - 1)),
                            norm="forward")
    n = full_mode_grid(g).reshape(g.dim, -1)
    band = np.all(np.abs(n) <= g.M // 2 - 1, axis=0)
    neg = n[-1] < 0
    src = np.ravel_multi_index(tuple(np.where(neg, -n, n) % g.padded_M), spec.shape[len(lead):])
    src[~band] = 0
    out = np.take(spec.reshape(lead + (-1,)), src, axis=-1)
    for channel in out.reshape(-1, out.shape[-1]):
        channel.imag *= np.where(neg, -1.0, 1.0)
    out[..., ~band] = 0.0
    return out.reshape(lead + g.shape)


@pytest.mark.parametrize(
    "dim,M,dealias,lead",
    [(2, 16, 1.5, (2,)), (2, 10, 1.0, (3,)), (3, 8, 1.3, (2, 3))],
    ids=["2d", "2d-unpadded", "3d-lead2x3"],
)
def test_to_spectral_matches_full_band_gather(dim, M, dealias, lead):
    # bit for bit, signed zeros included: random samples, and a zero
    # channel, whose +0.0 imaginary parts the conjugate rule turns into
    # -0.0 at negative last indices
    g = TorusGrid(dim, M, 2 * np.pi, dealias_factor=dealias)
    rng = np.random.default_rng(7)
    samples = rng.standard_normal(lead + g.padded_shape)
    samples[(0,) * len(lead)] = 0.0
    want = _full_band_gather(g, samples)
    modes = np.concatenate([_band_modes(g), representative_modes(g)[::3]])
    rng.shuffle(modes)
    index = g.band_index(modes)
    want = want[(Ellipsis,) + tuple((modes % M).T)]
    assert np.any(np.signbit(want.imag) & (want.imag == 0.0))
    got = g.to_spectral(samples, index)
    assert got.shape == lead + (len(modes),)
    assert got.tobytes() == want.tobytes()
    one = (1,) * len(lead)
    assert g.to_spectral(samples[one], index).tobytes() == want[one].tobytes()
    # junk out and work arrays, the out a strided view
    work = np.full(g.work_size(math.prod(lead), True), complex(np.nan, np.nan))
    out = np.full(lead + (len(modes), 2), complex(np.nan, np.nan))[..., 0]
    assert g.to_spectral(samples, index, out=out, work=work) is out
    assert np.ascontiguousarray(out).tobytes() == want.tobytes()


def _full_inverse(g, coeffs):
    """to_physical over every lane: the band scattered by signed wavevector
    into the padded half-spectrum, then ifftn over every leading axis."""
    lead = coeffs.shape[: coeffs.ndim - g.dim]
    half = g.M // 2
    lanes = np.ix_(*[np.arange(-(half - 1), half)] * (g.dim - 1))
    spec = np.zeros(lead + (g.padded_M,) * (g.dim - 1) + (half,), dtype=np.complex128)
    spec[(Ellipsis,) + tuple(n % g.padded_M for n in lanes) + (slice(None),)] = coeffs[
        (Ellipsis,) + tuple(n % g.M for n in lanes) + (slice(None),)
    ]
    spec = np.fft.ifftn(spec, axes=tuple(range(len(lead), len(lead) + g.dim - 1)),
                        norm="forward")
    return np.fft.irfft(spec, n=g.padded_M, axis=-1, norm="forward")


@pytest.mark.parametrize("dealias", [1.0, 1.2, 1.5])
@pytest.mark.parametrize("M", [8, 10, 16])
def test_pruned_3d_passes_equal_full_transforms(M, dealias):
    # the 3D leading-axis passes skip the rows known to be zero (inverse)
    # and the columns thrown away (forward); what they keep is bit for bit
    # the transform over every lane
    g = TorusGrid(3, M, 2 * np.pi, dealias_factor=dealias)
    rng = np.random.default_rng(M)
    shape = (2,) + g.spectral_shape
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert g.to_physical(coeffs).tobytes() == _full_inverse(g, coeffs).tobytes()
    samples = rng.standard_normal((2,) + g.padded_shape)
    modes = _band_modes(g)
    want = _full_band_gather(g, samples)[(Ellipsis,) + tuple((modes % M).T)]
    assert g.to_spectral(samples, g.band_index(modes)).tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [2, 3])
def test_band_index_rejects_modes_outside_the_band(dim):
    g = TorusGrid(dim, 8, 1.0)
    for index in (g.band_index, g.spectrum_index):
        for bad in ([4] + [0] * (dim - 1), [0] * (dim - 1) + [-4], [0] * (dim - 1) + [5]):
            with pytest.raises(ValueError, match="outside the band"):
                index(np.array([[1] * dim, bad]))
        with pytest.raises(ValueError):
            index(np.zeros((2, dim + 1), dtype=int))
    src, sign = g.band_index(np.array([[0] * (dim - 1) + [-3], [3] * dim]))
    assert sign.tolist() == [-1.0, 1.0]
    # a negative last index is read at its mirror in the half layout
    src, neg = g.spectrum_index(np.array([[1] * (dim - 1) + [-3], [-1] + [3] * (dim - 1)]))
    assert neg.tolist() == [True, False]
    spectrum = np.arange(math.prod(g.spectral_shape)).reshape(g.spectral_shape)
    assert src.tolist() == [spectrum[(-1 % 8,) * (dim - 1) + (3,)],
                            spectrum[(-1 % 8,) + (3,) * (dim - 1)]]


@pytest.mark.parametrize("dim,M,dealias", [(2, 8, 1.5), (2, 10, 1.0), (3, 8, 1.5), (3, 10, 1.2)])
def test_kept_layout_transform_equals_the_full_spectrum_transform(dim, M, dealias):
    # a spectrum placed at the kept positions of every band pair (n and -n
    # with last index >= 0) is what to_physical reads of the half layout,
    # and its in-place transform in `work` gives the same bits
    g = TorusGrid(dim, M, 2 * np.pi, dealias_factor=dealias)
    rng = np.random.default_rng(dim * M)
    shape = (2,) + g.spectral_shape
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs[(slice(None),) + (0,) * dim] = 0.0  # the zero mode is no pair's
    reps = representative_modes(g)
    dst, rows, split = g.kept_index(reps)
    modes = reps[rows]
    modes[split:] *= -1
    assert np.all(modes[:, -1] >= 0) and len(set(dst.tolist())) == len(dst)
    assert np.all(np.diff(dst[:split]) > 0) and np.all(np.diff(dst[split:]) > 0)
    kept = np.zeros((2,) + g.kept_shape, dtype=np.complex128)
    kept.reshape(2, -1)[:, dst] = coeffs[(slice(None),) + tuple((modes % M).T)]
    want = g.to_physical(coeffs)
    assert g.to_physical(kept, work=kept.reshape(-1)).tobytes() == want.tobytes()
    # the band's kept positions are every nonzero one of the layout's band
    assert len(dst) == (M - 1) ** (dim - 1) * (M // 2) - 1


@pytest.mark.parametrize("dim", [2, 3])
def test_kept_index_rejects_bad_rows(dim):
    g = TorusGrid(dim, 8, 1.0)
    with pytest.raises(ValueError, match="outside the band"):
        g.kept_index(np.array([[1] * dim, [4] + [0] * (dim - 1)]))
    with pytest.raises(ValueError, match="zero wavevector"):
        g.kept_index(np.array([[1] * dim, [0] * dim]))
    with pytest.raises(ValueError):
        g.kept_index(np.zeros((2, dim + 1), dtype=int))
    dst, rows, split = g.kept_index(np.array([[1] * (dim - 1) + [-3], [1] + [0] * (dim - 1)]))
    # (1, .., -3) is kept as its mirror; (1, 0, ..) as itself and its mirror,
    # each part in ascending dst order
    assert (rows.tolist(), split) == ([1, 1, 0], 1)
