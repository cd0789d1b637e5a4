"""Property-based checks of the representation and functional invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import noise, rep_wavevectors, sym_gradient
from plsf.constitutive import FluidParams, oo_identity_residual, oo_residual_scale
from plsf.fields import leray_project, lp_norm, random_solenoidal
from plsf.gap import weight_P
from plsf.grid import TorusGrid

GRID = TorusGrid(2, 16, 2 * np.pi)


@given(
    alpha=st.floats(0.0, np.pi / 2 - 1e-6),
    gamma=st.floats(1.0, 5.0),
    rho1=st.floats(0.0, 50.0),
    rho2=st.floats(0.0, 50.0),
)
@settings(max_examples=200, deadline=None)
def test_weight_range_and_monotonicity(alpha, gamma, rho1, rho2):
    lo, hi = sorted((rho1, rho2))
    w_lo = weight_P(alpha, lo, gamma)
    w_hi = weight_P(alpha, hi, gamma)
    assert 0.0 < w_hi <= w_lo <= 1.0
    if hi**gamma <= np.tan(alpha):
        assert w_hi == 1.0


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_leray_projection_properties(seed):
    raw = noise(GRID, (2,), seed=seed)
    out = leray_project(GRID, raw)
    scale = max(np.max(np.abs(raw)), 1e-30)
    div = np.sum(rep_wavevectors(GRID) * out.coeffs, axis=0)
    assert np.max(np.abs(div)) <= 1e-12 * scale * (2 * np.pi / GRID.L * 8)
    # idempotence is an exact fixed point
    assert np.array_equal(leray_project(GRID, out.coeffs).coeffs, out.coeffs)
    # projected strain stays trace-free pointwise
    D = sym_gradient(out)
    trace = D.values[0, 0] + D.values[1, 1]
    assert np.max(np.abs(trace)) <= 1e-10 * max(1.0, np.max(np.abs(D.values)))


@given(seed=st.integers(0, 2**31 - 1), q=st.floats(1.0, 4.0))
@settings(max_examples=25, deadline=None)
def test_norm_scaling_homogeneity(seed, q):
    v = random_solenoidal(GRID, band=5, seed=seed % 1000, amplitude=1.0)
    np.testing.assert_allclose(lp_norm(2.5 * v, q), 2.5 * lp_norm(v, q), rtol=1e-12)


@given(
    seed=st.integers(0, 2**31 - 1),
    p=st.floats(1.81, 1.99),
    mu=st.floats(0.05, 10.0),
)
@settings(max_examples=200, deadline=None)
def test_oo_residual_bound_property(seed, p, mu):
    rng = np.random.default_rng(seed)
    params = FluidParams(p, mu)
    D = rng.standard_normal((3, 3)) * 10 ** rng.uniform(-2, 2)
    D = 0.5 * (D + D.T)
    dD = rng.standard_normal((3, 3)) * 10 ** rng.uniform(-2, 2)
    dD = 0.5 * (dD + dD.T)
    assert oo_identity_residual(D, dD, params) <= 1e-10 * oo_residual_scale(
        D, dD, params
    )


@given(seed=st.integers(0, 1000), p=st.floats(1.2, 2.0))
@settings(max_examples=20, deadline=None)
def test_discrete_hoelder_interpolation_exact(seed, p):
    # ||grad v||_3 <= ||grad v||_{3p}^b ||grad v||_p^{1-b} holds with
    # constant one for the shared-quadrature norms
    from plsf.fields import gradient

    v = random_solenoidal(GRID, band=5, seed=seed, amplitude=2.0)
    G = gradient(v)
    b = (3.0 - p) / 2.0
    lhs = lp_norm(G, 3.0)
    rhs = lp_norm(G, 3.0 * p) ** b * lp_norm(G, p) ** (1.0 - b)
    assert lhs <= rhs * (1.0 + 1e-12)
