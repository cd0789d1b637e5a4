"""Property-based checks of the representation and functional invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import (
    dissipation_form,
    energy_residual_over,
    jump_form,
    leray_project,
    noise,
    rep_wavevectors,
    sym_gradient,
    weight_P,
)
from plsf.basis import basis_capacity, make_basis
from plsf.constitutive import FluidParams, oo_identity_residual, oo_residual_scale
from plsf.fields import lp_norm, random_solenoidal
from plsf.galerkin import GalerkinState, TrajectoryRecord, galerkin_rhs, state_functionals
from plsf.gap import exceedance_partition, gap_estimate
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


# multiples of the threshold for rho^gamma, the grazing ones a few ulps
# either side of it
_LEVELS = st.sampled_from([0.0, 0.5, 1.0 - 2**-52, 1.0, 1.0 + 2**-52, 1.0 + 2**-50, 2.0])


GRAZING = dict(
    gamma=st.floats(1.0, 5.0),
    alpha=st.floats(0.05, 1.5),
    levels=st.lists(st.one_of(_LEVELS, st.floats(0.0, 3.0)), min_size=2, max_size=12),
    data=st.data(),
)


def grazing_window(gamma, alpha, levels, data):
    """Drawn sample times, the rho whose rho^gamma sits at `levels`
    multiples of tan(alpha) there, and a window [s, t] in their span whose
    ends are sample times or not."""
    thr = float(np.tan(alpha))
    gaps = data.draw(st.lists(st.one_of(st.just(1e-3), st.floats(1e-9, 1.0)),
                              min_size=len(levels) - 1, max_size=len(levels) - 1))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    rho = (thr * np.array(levels)) ** (1.0 / gamma)
    ends = data.draw(st.lists(st.one_of(st.sampled_from(times.tolist()),
                                        st.floats(0.0, float(times[-1]))),
                              min_size=2, max_size=2, unique=True))
    s, t = sorted(ends)
    return times, rho, s, t


@given(**GRAZING)
@settings(max_examples=300, deadline=None)
def test_exceedance_intervals_have_positive_length(gamma, alpha, levels, data):
    # a crossing that rounds onto s, t or its partner would pair into an
    # interval with end <= start; the partition lists none
    times, rho, s, t = grazing_window(gamma, alpha, levels, data)
    rec = TrajectoryRecord(p=1.9, mu=1.0, N=1, times=times, energy=np.ones_like(times),
                           rho=rho, rho_tilde=np.ones_like(times),
                           grad_p_norm=np.sqrt(rho), Ip=rho)
    part = exceedance_partition(rec, s, t, alpha, gamma)
    assert all(iv.start < iv.end for iv in part.intervals)
    assert all(a.end <= b.start for a, b in zip(part.intervals, part.intervals[1:]))


@given(**GRAZING)
@settings(max_examples=200, deadline=None)
def test_gap_estimate_has_the_oracle_bits_on_grazing_records(gamma, alpha, levels, data):
    # gap_estimate forms each interval's terms once; both forms and the
    # two-form budget keep the bits of the interval-by-interval oracle
    times, rho, s, t = grazing_window(gamma, alpha, levels, data)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    records = [
        TrajectoryRecord(p=1.9, mu=1.0, N=N, times=times,
                         energy=rng.uniform(0.5, 2.0, times.size), rho=rho,
                         rho_tilde=rng.uniform(0.0, 3.0, times.size),
                         grad_p_norm=np.sqrt(rho), Ip=rho)
        for N in (1, 2)
    ]
    est = gap_estimate(records, s, t, [alpha], gamma)
    for rec, row, part, budget in zip(records, est.per_alpha[0], est.partitions[0],
                                      est.budgets[0]):
        assert row["dissipation_form"] == dissipation_form(rec, part)
        assert row["jump_form"] == jump_form(rec, part)
        assert budget == energy_residual_over(rec, part)


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


@given(
    dim_M=st.sampled_from([(2, 8), (2, 10), (2, 12), (2, 16), (3, 8), (3, 10)]),
    dealias=st.sampled_from([1.0, 1.25, 1.5]),
    fill=st.floats(0.0, 1.0),
    p=st.floats(1.05, 2.0),
    mu=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    log_amp=st.floats(-2.0, 2.0),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=200, deadline=None)
def test_energy_identity_holds_at_rounding_level(dim_M, dealias, fill, p, mu, log_amp, seed):
    # -c . f(c) = rho_tilde(c): the convection adds no energy (the
    # divergence form on a dealiased grid, the skew average off it, which
    # dealias 1.0 reaches) and the stress gives rho_tilde by discrete
    # Parseval.  What is left is rounding, bounded by a few ulps of
    # sum |c_r f_r| plus ||v||_4^2 ||grad v||_2, the Hoelder bound on the
    # convection integrand |v|^2 |grad v|: a few-mode state can have a
    # convection that projects to nearly zero, so that sum |c_r f_r| no
    # longer carries the size of the terms that cancel (such draws read up
    # to 73 ulps of sum |c_r f_r| alone).  68,000 random draws of this
    # space read at most 4.05 ulps of the sum of the two
    dim, M = dim_M
    grid = TorusGrid(dim, M, 2 * np.pi, dealias_factor=dealias)
    N = 1 + int(fill * (basis_capacity(grid) - 1))
    c = 10.0**log_amp * np.random.default_rng(seed).standard_normal(N)
    state = GalerkinState(make_basis(grid, N), c, 0.0)
    params = FluidParams(p, mu)
    f = galerkin_rhs(state, params)
    sample = state_functionals(state, params)
    defect = abs(-float(np.dot(c, f)) - sample["rho_tilde"])
    convection = lp_norm(state.velocity(), 4.0) ** 2 * np.sqrt(sample["rho"])
    scale = float(np.sum(np.abs(c * f))) + convection
    assert defect <= 8 * np.finfo(float).eps * scale
