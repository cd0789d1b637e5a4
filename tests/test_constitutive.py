import numpy as np
import pytest

from conftest import (
    STRESS_DIFF_CONSTANT,
    grad_sym_gradient,
    inner_product,
    shear_mode,
    stress,
    stress_difference_bound_check,
    stress_tensor,
    sym_gradient,
)
from plsf.basis import make_basis
from plsf.constitutive import (
    FluidParams,
    oo_identity_residual,
    oo_residual_scale,
    stress_derivative,
)
from plsf.fields import SpectralVelocity, lp_norm, random_solenoidal
from plsf.galerkin import GalerkinState, galerkin_rhs
from plsf.grid import TorusGrid
from plsf.inequalities import field_table


def kernel(u, *keys):
    """The values of plsf's one padded-grid functional kernel on u, read
    through the verify table."""
    return field_table([u], keys)[0]


def rho(u, params):
    return kernel(u, ("rho_tilde", params))["rho_tilde", params]


def ip(u, params):
    return kernel(u, ("I_p", params))["I_p", params]


# -- params -------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        FluidParams(2.5, 1.0)
    with pytest.raises(ValueError):
        FluidParams(1.0, 1.0)
    with pytest.raises(ValueError):
        FluidParams(1.9, -0.1)
    with pytest.raises(ValueError):
        FluidParams(1.9, float("nan"))  # would take the zero-stress mu = 0 branch
    assert FluidParams(1.9, 1.0).theory_range
    assert not FluidParams(1.9, 0.0).theory_range
    assert not FluidParams(2.0, 1.0).theory_range


# -- stress -------------------------------------------------------------------


def test_stress_newtonian_identity(grid2d):
    # sigma(D) = D at p = 2 whatever mu: the kernel's stress factor is 1, so
    # rho_tilde is ||D||_2^2 for every mu, bit for bit
    v = random_solenoidal(grid2d, band=5, seed=1)
    D = sym_gradient(v)
    values = [rho(v, FluidParams(2.0, mu)) for mu in (0.0, 0.3, 7.0)]
    assert values[0] == values[1] == values[2]
    assert values[0] == pytest.approx(lp_norm(D, 2) ** 2, rel=1e-12)
    Dx = np.array([[0.3, -1.2], [-1.2, -0.3]])
    for mu in (0.0, 0.3, 7.0):
        assert np.array_equal(stress_tensor(Dx, FluidParams(2.0, mu)), Dx)


def _rhs_of_zero_state(grid, params):
    basis = make_basis(grid, 8)
    return galerkin_rhs(GalerkinState(basis, np.zeros(basis.size), 0.0), params)


def test_stress_zero_strain(grid2d):
    # sigma(0) = 0: the RHS, whose flux is sigma(Dv) - v (x) v, vanishes at v = 0
    assert np.all(_rhs_of_zero_state(grid2d, FluidParams(1.8, 2.0)) == 0)


def test_stress_scale_factor_pointwise():
    # mu = 1, |D|^2 = 3, p = 1.8: factor 4^(-0.1)
    D = np.diag([1.0, np.sqrt(2.0)])  # |D|^2 = 3
    sigma = stress_tensor(D, FluidParams(1.8, 1.0))
    assert np.allclose(sigma, 4 ** (-0.1) * D, rtol=1e-12)
    assert 4 ** (-0.1) == pytest.approx(0.870551, abs=1e-6)


def test_stress_continuous_extension_at_zero():
    sigma = stress_tensor(np.zeros((2, 2)), FluidParams(1.8, 0.0))
    assert np.all(sigma == 0)
    # mu = 0, p < 2: the factor is singular at D = 0, and the kernels take
    # sigma's continuous extension there
    g = TorusGrid(2, 8, 1.0)
    params = FluidParams(1.8, 0.0)
    assert np.all(_rhs_of_zero_state(g, params) == 0)
    assert rho(SpectralVelocity.zero(g), params) == 0.0


def test_frame_indifference():
    rng = np.random.default_rng(5)
    params = FluidParams(1.85, 0.4)
    for _ in range(50):
        D = rng.standard_normal((3, 3))
        D = 0.5 * (D + D.T)
        theta = rng.uniform(0, 2 * np.pi)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        K = np.array(
            [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
        )
        Q = np.eye(3) + np.sin(theta) * K + (1 - np.cos(theta)) * (K @ K)
        lhs = stress_tensor(Q @ D @ Q.T, params)
        rhs = Q @ stress_tensor(D, params) @ Q.T
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


# -- rho_tilde and the natural dissipation, from the kernel -----------------


def test_rho_tilde_zero(grid2d):
    assert rho(SpectralVelocity.zero(grid2d), FluidParams(1.9, 1.0)) == 0.0


def test_rho_tilde_newtonian(grid2d):
    v = random_solenoidal(grid2d, band=5, seed=2, amplitude=1.4)
    D = sym_gradient(v)
    assert rho(v, FluidParams(2.0, 3.0)) == pytest.approx(lp_norm(D, 2) ** 2, rel=1e-12)


def test_rho_tilde_duality_is_exact(grid2d):
    # rho_tilde = (sigma(D), D); the oracle is that product, on full
    # channels, so the kernel's trace-free channels leave only rounding
    v = random_solenoidal(grid2d, band=6, seed=3, amplitude=2.0)
    params = FluidParams(1.87, 0.6)
    D = sym_gradient(v)
    assert rho(v, params) == pytest.approx(inner_product(stress(D, params), D), rel=1e-14)


def test_rho_tilde_refined_grid_oracle():
    # single-mode shear, p = 1.9, mu = 1 against a 4x-oversampled quadrature
    params = FluidParams(1.9, 1.0)
    v = shear_mode(M=16)
    fine = TorusGrid(2, 16, 2 * np.pi, dealias_factor=6.0)
    v_fine = SpectralVelocity(fine, v.coeffs)
    assert rho(v, params) == pytest.approx(rho(v_fine, params), rel=1e-8)


def test_rho_tilde_monotone_in_mu(grid2d):
    v = random_solenoidal(grid2d, band=5, seed=6, amplitude=1.0)
    laws = [FluidParams(1.8, mu) for mu in (0.1, 0.5, 1.0, 5.0)]
    row = kernel(v, *[("rho_tilde", law) for law in laws])
    values = [row["rho_tilde", law] for law in laws]
    assert all(b < a for a, b in zip(values, values[1:]))


# -- I_p, from the kernel --------------------------------------------------------


def test_ip_zero_and_mu_guard(grid2d):
    assert ip(SpectralVelocity.zero(grid2d), FluidParams(1.9, 1.0)) == 0.0
    with pytest.raises(ValueError):
        ip(SpectralVelocity.zero(grid2d), FluidParams(1.9, 0.0))


def test_ip_newtonian_reduces_to_grad_strain_norm(grid2d):
    v = random_solenoidal(grid2d, band=5, seed=7)
    dD = grad_sym_gradient(v)
    expected = float(np.sum(dD**2) * grid2d.quad_weight)
    assert ip(v, FluidParams(2.0, 0.7)) == pytest.approx(expected, rel=1e-12)


def test_ip_refined_grid_oracle():
    params = FluidParams(1.9, 0.5)
    v = shear_mode(M=16, amplitude=1.3)
    fine = TorusGrid(2, 16, 2 * np.pi, dealias_factor=6.0)
    v_fine = SpectralVelocity(fine, v.coeffs)
    assert ip(v, params) == pytest.approx(ip(v_fine, params), rel=1e-8)


# -- the pointwise identity ----------------------------------------------------


def test_oo_identity_newtonian_and_zero():
    params = FluidParams(2.0, 1.0)
    rng = np.random.default_rng(8)
    D = rng.standard_normal((3, 3))
    D = 0.5 * (D + D.T)
    dD = rng.standard_normal((3, 3))
    dD = 0.5 * (dD + dD.T)
    assert oo_identity_residual(D, dD, params) < 1e-14 * np.sum(dD**2)
    params2 = FluidParams(1.85, 0.3)
    assert oo_identity_residual(np.zeros((3, 3)), dD, params2) < 1e-14 * np.sum(dD**2)


@pytest.mark.parametrize("p", [1.81, 1.9, 1.99])
@pytest.mark.parametrize("mu", [0.1, 1.0])
def test_oo_identity_random_ensemble(p, mu):
    params = FluidParams(p, mu)
    rng = np.random.default_rng(hash((p, mu)) % 2**32)
    for _ in range(500):
        D = rng.standard_normal((3, 3)) * 10 ** rng.uniform(-2, 2)
        D = 0.5 * (D + D.T)
        dD = rng.standard_normal((3, 3)) * 10 ** rng.uniform(-2, 2)
        dD = 0.5 * (dD + dD.T)
        res = oo_identity_residual(D, dD, params)
        assert res <= 1e-10 * oo_residual_scale(D, dD, params)


def test_stress_derivative_finite_difference_oracle():
    # central differences, step 1e-6, validate the analytic derivative
    rng = np.random.default_rng(9)
    for p, mu in ((1.85, 0.3), (1.9, 1.0)):
        params = FluidParams(p, mu)
        for _ in range(25):
            D = rng.standard_normal((3, 3))
            D = 0.5 * (D + D.T)
            dD = rng.standard_normal((3, 3))
            dD = 0.5 * (dD + dD.T)
            h = 1e-6
            fd = (stress_tensor(D + h * dD, params) - stress_tensor(D - h * dD, params)) / (
                2 * h
            )
            an = stress_derivative(D, dD, params)
            scale = np.max(np.abs(an)) + 1.0
            assert np.max(np.abs(fd - an)) < 1e-6 * scale


# -- stress difference bound ----------------------------------------------------


def test_stress_difference_trivial_cases():
    params = FluidParams(1.9, 1.0)
    A = np.diag([1.0, -2.0])
    assert stress_difference_bound_check(A, A, params)
    # p = 2: |sigma(A)-sigma(B)| = |A-B|, bound holds with C = 1
    params2 = FluidParams(2.0, 0.5)
    B = np.diag([0.3, 0.1])
    assert stress_difference_bound_check(A, B, params2, constant=1.0)


@pytest.mark.parametrize("p", [1.81, 1.9, 1.99])
def test_stress_difference_frozen_constant_bulk(p):
    # ~1e5 pairs per p, vectorized; a fifth of them near-antipodal (the
    # regime that saturates the bound)
    rng = np.random.default_rng(1000 + int(p * 100))
    for mu in (0.01, 1.0, 100.0):
        n = 34000
        A = rng.standard_normal((n, 3, 3)) * 10 ** rng.uniform(-3, 3, (n, 1, 1))
        B = rng.standard_normal((n, 3, 3)) * 10 ** rng.uniform(-3, 3, (n, 1, 1))
        A = 0.5 * (A + np.swapaxes(A, 1, 2))
        B = 0.5 * (B + np.swapaxes(B, 1, 2))
        B[: n // 5] = -A[: n // 5] * (1 + 0.01 * rng.standard_normal((n // 5, 1, 1)))
        fa = (mu + np.sum(A**2, axis=(1, 2))) ** ((p - 2) / 2)
        fb = (mu + np.sum(B**2, axis=(1, 2))) ** ((p - 2) / 2)
        lhs = np.sqrt(np.sum((fa[:, None, None] * A - fb[:, None, None] * B) ** 2,
                             axis=(1, 2)))
        diff = np.sqrt(np.sum((A - B) ** 2, axis=(1, 2)))
        amag = np.sqrt(np.sum(A**2, axis=(1, 2)))
        bmag = np.sqrt(np.sum(B**2, axis=(1, 2)))
        rhs = STRESS_DIFF_CONSTANT * diff * (mu + amag + bmag) ** (p - 2.0)
        violations = int(np.sum(lhs > rhs * (1 + 1e-12) + 1e-300))
        assert violations == 0, f"{violations} violations at p={p}, mu={mu}"


def test_stress_difference_checker_agrees_with_bulk_formula():
    rng = np.random.default_rng(17)
    params = FluidParams(1.9, 0.5)
    for _ in range(50):
        A = rng.standard_normal((3, 3))
        A = 0.5 * (A + A.T)
        B = rng.standard_normal((3, 3))
        B = 0.5 * (B + B.T)
        assert stress_difference_bound_check(A, B, params)
