import numpy as np
import pytest

from plsf.grid import TorusGrid


@pytest.mark.parametrize("dim,M", [(2, 8), (2, 16), (3, 12)])
def test_band_closed_under_negation(dim, M):
    g = TorusGrid(dim, M, 1.0)
    modes = g.mode_grid[:, g.band_mask].T
    mode_set = {tuple(m) for m in modes}
    assert all(tuple(-m) in mode_set for m in modes)
    assert np.all(np.abs(modes) <= M // 2)


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


@pytest.mark.parametrize(
    "dim,M,dealias,lead",
    [(2, 16, 1.5, (2,)), (2, 16, 1.0, ()), (3, 12, 1.5, (2, 3)), (3, 8, 1.3, (1,))],
    ids=["2d", "2d-unpadded", "3d-lead2x3", "3d-padded10"],
)
def test_spectral_physical_roundtrip(dim, M, dealias, lead):
    # every band mode, including negative last-axis modes read through the
    # conjugate mirror, comes back from the padded half-spectrum
    g = TorusGrid(dim, M, 2 * np.pi, dealias_factor=dealias)
    rng = np.random.default_rng(3)
    c = rng.standard_normal(lead + g.shape) + 1j * rng.standard_normal(lead + g.shape)
    c = c * g.band_mask
    c = 0.5 * (c + np.conj(g.reflect(c)))
    phys = g.to_physical(c)
    assert phys.shape == lead + g.padded_shape
    assert phys.dtype == np.float64
    back = g.to_spectral(phys)
    assert back.shape == c.shape
    assert np.max(np.abs(back - c)) <= 1e-13 * np.max(np.abs(c))
    assert np.all(back[..., ~g.band_mask] == 0)


@pytest.mark.parametrize("dim,M,dealias", [(2, 16, 1.5), (3, 8, 1.3)], ids=["2d", "3d"])
def test_transforms_into_given_buffers(dim, M, dealias):
    # out and work arrays full of junk give the allocating result bit for bit
    g = TorusGrid(dim, M, 2 * np.pi, dealias_factor=dealias)
    rng = np.random.default_rng(4)
    c = rng.standard_normal((3,) + g.shape) + 1j * rng.standard_normal((3,) + g.shape)
    c = c * g.band_mask
    c = 0.5 * (c + np.conj(g.reflect(c)))
    work = np.full(max(g.work_size(3, False), g.work_size(3, True)), complex(np.nan, np.nan))
    out = np.full((3,) + g.padded_shape, np.nan)
    phys = g.to_physical(c, out=out, work=work)
    assert phys is out
    assert np.array_equal(phys, g.to_physical(c))
    spec = np.full(c.shape, complex(np.nan, np.nan))
    back = g.to_spectral(phys, out=spec, work=work)
    assert back is spec
    assert np.array_equal(back, g.to_spectral(phys))


def test_reflect_is_negation_map():
    g = TorusGrid(2, 8, 1.0)
    rng = np.random.default_rng(5)
    c = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    r = g.reflect(c)
    for i in range(8):
        for j in range(8):
            assert r[i, j] == c[(-i) % 8, (-j) % 8]


def test_transform_roundtrip_and_single_mode():
    g = TorusGrid(2, 16, 2 * np.pi, dealias_factor=1.5)
    c = np.zeros((1,) + g.shape, dtype=complex)
    # cos(3x + 2y) = (e^{i(3x+2y)} + c.c.)/2
    c[0, 3, 2] = 0.5
    c[0, -3 % 16, -2 % 16] = 0.5
    phys = g.to_physical(c)[0]
    x = g.points(padded=True)
    expected = np.cos(3 * x[0] + 2 * x[1])
    assert np.max(np.abs(phys - expected)) < 1e-12
    back = g.to_spectral(phys[np.newaxis])
    assert np.max(np.abs(back - c)) < 1e-13


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
    # in the band at 2h - padded_M exactly when the grid is not dealiased
    g = TorusGrid(2, M, 2 * np.pi, dealias_factor=dealias)
    assert g.padded_M == padded_M
    h = g.M // 2 - 1
    c = np.zeros(g.shape, dtype=complex)
    c[h, 0] = c[-h, 0] = 0.5
    u = g.to_physical(c)
    prod = g.to_spectral(u * u)
    alias = prod[(2 * h - g.padded_M) % g.M, 0]
    assert bool(abs(alias) > 0.1) == (not g.dealiased)
