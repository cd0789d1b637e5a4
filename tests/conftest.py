"""The test oracle: plain full-channel forms of the padded-grid functionals
that plsf computes in one kernel, `plsf.galerkin._padded_values`.

Each form transforms every channel of a half-layout spectrum with
`grid.to_physical` and reduces with numpy sums: no trace-free channel, no
arena and no `out=` buffer.  Tests import them from here, and the
full-layout helpers below, which build spectra the way a test would
write them out by hand, and the full-layout initial data that plsf's
half-layout constructors are compared with.
"""

import numpy as np
import pytest

from plsf.fields import (
    SpectralVelocity,
    TensorField,
    gradient,
    inner_product,
    leray_project,
    lp_norm,
)
from plsf.grid import TorusGrid


@pytest.fixture
def grid2d():
    return TorusGrid(2, 16, 2 * np.pi)


def full_mode_grid(g) -> np.ndarray:
    """Integer multi-indices of the full numpy fftn layout, shape
    (dim,) + (M,)*dim."""
    return np.stack(np.meshgrid(*([g.modes] * g.dim), indexing="ij"))


def grid_points(g, padded=True) -> np.ndarray:
    """Physical sample coordinates of the padded grid, or of the native
    (M,)^dim one, shape (dim,) + that grid's shape."""
    n = g.padded_M if padded else g.M
    x = np.arange(n) * (g.L / n)
    return np.stack(np.meshgrid(*([x] * g.dim), indexing="ij"))


def hermitian_half(g, lead=(), seed=0) -> np.ndarray:
    """Random complex noise on the full (M,)^dim layout, symmetrized as
    (c + conj c(-n)) / 2 and cut to the half layout, shape
    lead + spectral_shape.  Nothing is masked: the leading axes' Nyquist
    rows hold noise too."""
    rng = np.random.default_rng(seed)
    shape = tuple(lead) + g.shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return np.ascontiguousarray((0.5 * (raw + np.conj(g.reflect(raw))))[..., : g.M // 2])


def shear_mode(L=2 * np.pi, M=16, amplitude=1.0) -> SpectralVelocity:
    """The 2D shear flow v = (a sin(2 pi y / L), 0): its one stored mode,
    (0, 1) of the first component, holds a / 2i; (0, -1) is implied."""
    g = TorusGrid(2, M, L)
    c = np.zeros((2,) + g.spectral_shape, dtype=np.complex128)
    c[0, 0, 1] = complex(0.0, -0.5 * amplitude)
    return SpectralVelocity(g, c)


def sampled_taylor_green(g, amplitude=1.0, band=1) -> SpectralVelocity:
    """The Taylor-Green vortex of plsf.fields.taylor_green, sampled on the
    native (M,)^dim grid, transformed by fftn, symmetrized as
    (c + conj c(-n)) / 2 over the full layout, cut to the half layout and
    the band, and Leray projected."""
    kap = 2.0 * np.pi * band / g.L
    x = grid_points(g, padded=False)
    a = float(amplitude)
    cz = np.cos(kap * x[2]) if g.dim == 3 else 1.0
    u = a * np.sin(kap * x[0]) * np.cos(kap * x[1]) * cz
    w = -a * np.cos(kap * x[0]) * np.sin(kap * x[1]) * cz
    samples = np.stack([u, w] + [np.zeros_like(u)] * (g.dim - 2))
    c = np.fft.fftn(samples, axes=tuple(range(1, 1 + g.dim))) / float(g.M**g.dim)
    half, mask = g.M // 2, g.band_mask
    return leray_project(g, 0.5 * (c[..., :half] * mask + np.conj(g.reflect(c)[..., :half] * mask)))


def full_layout_draw(g, band, decay=2.0, seed=0) -> SpectralVelocity:
    """The Leray-projected draw of plsf.fields.random_solenoidal before its
    rescaling, built over the full layout: one (dim,) + (M,)^dim array of
    real normals, then one of imaginary normals, weighted by |n|^(-decay)
    on 0 < |n| <= band and symmetrized there."""
    rng = np.random.default_rng(seed)
    shape = (g.dim,) + g.shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    nsq = np.sum(g.mode_grid.astype(np.float64) ** 2, axis=0)
    keep = (nsq > 0) & (nsq <= float(band) ** 2)
    with np.errstate(divide="ignore"):
        weight = np.where(keep, nsq ** (-decay / 2.0), 0.0)
    half = g.M // 2
    return leray_project(
        g, 0.5 * (raw[..., :half] * weight + np.conj(g.reflect(raw)[..., :half] * weight)))


def full_layout_random(g, band, decay=2.0, seed=0, amplitude=1.0) -> SpectralVelocity:
    """full_layout_draw rescaled to L^2 norm `amplitude`, the norm summed
    as |c|^2 over the full (dim,) + (M,)^dim spectrum in memory order."""
    v = full_layout_draw(g, band, decay, seed)
    half = g.M // 2
    sq = np.zeros((g.dim,) + g.shape)
    sq[..., :half] = np.abs(v.coeffs) ** 2
    sq[..., half + 1 :] = g.reflect(sq)[..., half + 1 :]
    return v * (float(amplitude) / float(np.sqrt(g.volume * np.sum(sq))))


def sym_gradient(u) -> TensorField:
    """The strain rate D = (grad u + grad u^T)/2, entry (i, j) -> D_ij."""
    G = gradient(u).values
    return TensorField(u.grid, 0.5 * (G + np.swapaxes(G, 0, 1)))


def grad_sym_gradient(u) -> np.ndarray:
    """d_s D_ij at [s, i, j], shape (d, d, d) + padded_shape, from
    D_ij = (ik_j c_i + ik_i c_j)/2."""
    g = u.grid
    ik = 1j * g.wavevectors
    c = u.coeffs
    dhat = 0.5 * (ik[np.newaxis, :] * c[:, np.newaxis] + ik[:, np.newaxis] * c[np.newaxis, :])
    return g.to_physical(ik[:, np.newaxis, np.newaxis] * dhat[np.newaxis])


def hessian(u) -> np.ndarray:
    """d_j d_k u_i at [i, j, k], shape (d, d, d) + padded_shape."""
    g = u.grid
    k = g.wavevectors
    return g.to_physical(
        -(k[np.newaxis, :, np.newaxis] * k[np.newaxis, np.newaxis, :]
          * u.coeffs[:, np.newaxis, np.newaxis])
    )


def stress_factor(dd, params) -> np.ndarray:
    """(mu + |D|^2)^((p-2)/2) from dd = |D|^2, extended by 0 where
    mu + |D|^2 = 0."""
    base = params.mu + dd
    with np.errstate(divide="ignore"):
        return np.where(base > 0, np.power(base, 0.5 * (params.p - 2.0)), 0.0)


def stress(D: TensorField, params) -> TensorField:
    """The power-law stress sigma(D) = (mu + |D|^2)^((p-2)/2) D, pointwise."""
    fac = stress_factor(np.sum(D.values**2, axis=(0, 1)), params)
    return TensorField(D.grid, fac * D.values)


def rho_tilde(u, params) -> float:
    """(sigma(Du), Du), the quadrature of (mu + |Du|^2)^((p-2)/2) |Du|^2."""
    D = sym_gradient(u)
    return inner_product(stress(D, params), D)


def I_p(u, params) -> float:
    """The quadrature of (mu + |Du|^2)^((p-2)/2) |grad Du|^2; mu > 0."""
    if params.mu <= 0:
        raise ValueError("I_p is only defined for mu > 0")
    fac = stress_factor(np.sum(sym_gradient(u).values ** 2, axis=(0, 1)), params)
    sq = np.sum(grad_sym_gradient(u) ** 2, axis=(0, 1, 2))
    return float(np.sum(fac * sq) * u.grid.quad_weight)


def trace_free_value(u, key):
    """A padded-grid functional of u built from trace-free channels in the
    sum order of plsf.galerkin._padded_values.

    div u = 0 and tr D = 0 give d_d u_d and d_s D_dd as minus the sums of
    the other diagonal entries; they replace the transformed entries.  The
    squares of d_s D_ij are added over the pairs i <= j in row order and s,
    the off-diagonal pairs counted twice, and rho_tilde is the quadrature
    of (mu + |D|^2)^((p-2)/2) |D|^2.
    """
    g = u.grid
    d = g.dim
    name, arg = key
    if name == "u":
        return lp_norm(u, arg)
    if name == "hess":
        return lp_norm(hessian(u), arg, grid=g)
    G = np.array(gradient(u).values)  # d_j u_i at [i, j]
    G[-1, -1] = -np.sum([G[i, i] for i in range(d - 1)], axis=0)
    if name == "grad":
        return lp_norm(G, arg, grid=g)
    D = 0.5 * (G + G.swapaxes(0, 1))
    dd = np.sum(D**2, axis=(0, 1))
    if name == "shifted":
        return lp_norm(np.sqrt(arg.mu + dd), arg.p, grid=g)
    fac = stress_factor(dd, arg)
    if name == "rho_tilde":
        return float(np.sum(fac * dd) * g.quad_weight)
    assert name == "I_p"
    dD = grad_sym_gradient(u)  # d_s D_ij at [s, i, j]
    dD[:, -1, -1] = -np.sum([dD[:, i, i] for i in range(d - 1)], axis=0)
    sq = np.zeros(g.padded_shape)
    for i in range(d):
        for j in range(i, d):
            for s in range(d):
                sq = sq + (1.0 if i == j else 2.0) * dD[s, i, j] ** 2
    return float(np.sum(fac * sq) * g.quad_weight)
