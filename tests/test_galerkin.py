import warnings

import numpy as np
import pytest

from plsf.basis import StokesBasis, basis_capacity, make_basis
from plsf.constitutive import FluidParams, rho_tilde
from plsf.errors import StiffnessError
from plsf.fields import lp_norm, random_solenoidal
from plsf.galerkin import (
    GalerkinState,
    SolverConfig,
    StepController,
    TrajectoryRecord,
    advance,
    _rhs_parts,
    galerkin_rhs,
    project_initial_data,
    run_trajectory,
    state_functionals,
)
from plsf.grid import TorusGrid


@pytest.fixture
def grid2d():
    return TorusGrid(2, 16, 2 * np.pi)


# -- initial projection ---------------------------------------------------------


def test_project_basis_entry_gives_unit_vector(grid2d):
    basis = make_basis(grid2d, 8)
    state = project_initial_data(basis.entry_field(0), basis)
    expected = np.zeros(8)
    expected[0] = 1.0
    assert np.max(np.abs(state.c - expected)) < 1e-12
    assert state.t == 0.0


def test_project_orthogonal_field_gives_zero(grid2d):
    basis = make_basis(grid2d, 4)  # spans the lambda = 1 shell only
    big = make_basis(grid2d, 12)
    v = big.entry_field(9)  # lives in a higher shell
    state = project_initial_data(v, basis)
    assert np.max(np.abs(state.c)) < 1e-12


def test_project_roundtrip_band_limited(grid2d):
    basis = make_basis(grid2d, 40)
    rng = np.random.default_rng(0)
    v = basis.synthesize(rng.standard_normal(40))
    state = project_initial_data(v, basis)
    resynth = state.velocity()
    assert np.max(np.abs(resynth.coeffs - v.coeffs)) < 1e-10


def test_bessel_contraction(grid2d):
    v = random_solenoidal(grid2d, band=6, seed=1, amplitude=1.5)
    basis = make_basis(grid2d, 12)
    state = project_initial_data(v, basis)
    assert np.linalg.norm(state.c) <= lp_norm(v, 2) * (1 + 1e-12)


# -- right-hand side -------------------------------------------------------------


def test_rhs_zero_state(grid2d):
    basis = make_basis(grid2d, 8)
    state = GalerkinState(basis, np.zeros(8), 0.0)
    assert np.all(galerkin_rhs(state, FluidParams(1.9, 1.0)) == 0.0)


def test_rhs_newtonian_single_mode(grid2d):
    basis = make_basis(grid2d, 4)
    c = np.zeros(4)
    c[0] = 0.8
    state = GalerkinState(basis, c, 0.0)
    rhs = galerkin_rhs(state, FluidParams(2.0, 1.0))
    lam = basis.eigenvalues[0]
    expected = np.zeros(4)
    expected[0] = -0.5 * lam * 0.8
    assert np.max(np.abs(rhs - expected)) < 1e-10


def _check_convection_neutrality(grid, N, seed, trials=5):
    basis = make_basis(grid, N)
    rng = np.random.default_rng(seed)
    params = FluidParams(1.9, 1.0)
    for _ in range(trials):
        c = rng.standard_normal(N)
        _, conv = _rhs_parts(basis, params, c)
        scale = max(1.0, float(np.max(np.abs(c))) ** 3)
        assert abs(float(np.dot(c, conv))) < 1e-12 * scale


def _check_semidiscrete_energy_law(grid, N, seed, trials=5):
    basis = make_basis(grid, N)
    rng = np.random.default_rng(seed)
    params = FluidParams(1.9, 1.0)
    for _ in range(trials):
        c = rng.standard_normal(N)
        state = GalerkinState(basis, c, 0.0)
        rhs = galerkin_rhs(state, params)
        production = -2.0 * float(np.dot(c, rhs))
        dissipation = 2.0 * rho_tilde(state.velocity(), params)
        assert production == pytest.approx(dissipation, rel=1e-9)


# 3D at full band takes the divergence form; the 2D 64^2 grid at dealias
# 1.42 (padded_M 92 < 3*31 + 1) is one point short of dealiased and takes
# the skew average.
full_band_grids = pytest.mark.parametrize(
    "dim,M,dealias", [(3, 8, 1.5), (2, 64, 1.42)], ids=["3d-M8", "2d-M64-padded92"]
)


def test_convection_energy_neutrality(grid2d):
    _check_convection_neutrality(grid2d, 60, seed=2)


@full_band_grids
def test_convection_energy_neutrality_full_band(dim, M, dealias):
    grid = TorusGrid(dim, M, 2 * np.pi, dealias_factor=dealias)
    _check_convection_neutrality(grid, basis_capacity(grid), seed=2, trials=3)


def test_semidiscrete_energy_law(grid2d):
    _check_semidiscrete_energy_law(grid2d, 60, seed=3)


@full_band_grids
def test_semidiscrete_energy_law_full_band(dim, M, dealias):
    grid = TorusGrid(dim, M, 2 * np.pi, dealias_factor=dealias)
    _check_semidiscrete_energy_law(grid, basis_capacity(grid), seed=3, trials=3)


def test_convection_neutrality_even_without_oversampling():
    # skew antisymmetry is exact independent of aliasing
    g = TorusGrid(2, 16, 2 * np.pi, dealias_factor=1.0)
    basis = make_basis(g, 40)
    rng = np.random.default_rng(4)
    c = rng.standard_normal(40)
    _, conv = _rhs_parts(basis, FluidParams(1.9, 1.0), c)
    assert abs(float(np.dot(c, conv))) < 1e-12 * max(1.0, np.max(np.abs(c)) ** 3)


@pytest.mark.parametrize(
    "dim,M,dealias", [(2, 16, 1.5), (3, 8, 1.5), (2, 16, 1.0), (3, 8, 1.0), (2, 10, 1.2)]
)
def test_convection_equals_skew_average(dim, M, dealias):
    # oracle: the skew average ((v.grad v) + div(v (x) v)) / 2 over full
    # tensors, built here from the public transforms.  On a dealiased grid
    # the divergence form alone agrees with it; elsewhere the solver takes
    # it, and its rotation part, which adds no energy, is pinned only here.
    g = TorusGrid(dim, M, 2 * np.pi, dealias_factor=dealias)
    basis = make_basis(g, basis_capacity(g))
    c = np.random.default_rng(6).standard_normal(basis_capacity(g))
    _, conv = _rhs_parts(basis, FluidParams(1.9, 1.0), c)

    ik = 1j * g.wavevectors
    vhat = basis.synthesize_coeffs(c)
    V = g.to_physical(vhat)
    G = g.to_physical(ik[np.newaxis, :] * vhat[:, np.newaxis])  # d_j v_i
    w1 = np.einsum("j...,ij...->i...", V, G)
    z_hat = g.to_spectral(V[:, np.newaxis] * V[np.newaxis, :])
    skew = 0.5 * (g.to_spectral(w1) + np.sum(ik[np.newaxis] * z_hat, axis=1))
    expected = basis.project_coeffs(skew)
    assert np.max(np.abs(conv - expected)) <= 1e-12 * np.max(np.abs(expected))


# -- adaptive stepping ------------------------------------------------------------


def test_zero_state_stays_zero(grid2d):
    basis = make_basis(grid2d, 8)
    state = GalerkinState(basis, np.zeros(8), 0.0)
    ctrl = StepController(rtol=1e-8)
    out = advance(state, FluidParams(1.9, 1.0), ctrl)
    assert np.all(out.c == 0.0)
    assert out.t > 0.0


def test_newtonian_exponential_oracle(grid2d):
    basis = make_basis(grid2d, 4)
    c = np.zeros(4)
    c[0] = 0.7
    state = GalerkinState(basis, c, 0.0)
    params = FluidParams(2.0, 1.0)
    rtol = 1e-8
    ctrl = StepController(rtol=rtol, atol=1e-14)
    while state.t < 1.0:
        state = advance(state, params, ctrl, dt_cap=1.0 - state.t)
    lam = basis.eigenvalues[0]
    exact = 0.7 * np.exp(-0.5 * lam * 1.0)
    assert abs(state.c[0] - exact) <= 10 * rtol * abs(exact) + 10 * ctrl.atol


def test_fixed_step_order_sweep(grid2d):
    # halving the step cuts the error by at least 4x (5th order in practice)
    basis = make_basis(grid2d, 4)
    params = FluidParams(2.0, 1.0)
    lam = basis.eigenvalues[0]
    exact = 0.7 * np.exp(-0.5 * lam)

    def run_fixed(dt):
        c = np.zeros(4)
        c[0] = 0.7
        state = GalerkinState(basis, c, 0.0)
        ctrl = StepController(rtol=1e6, atol=1e6)  # error control disabled
        for _ in range(round(1.0 / dt)):
            ctrl.dt = dt
            state = advance(state, params, ctrl, dt_cap=dt)
        return abs(state.c[0] - exact)

    errors = [run_fixed(dt) for dt in (0.2, 0.1, 0.05)]
    assert errors[0] / errors[1] >= 4.0
    assert errors[1] / errors[2] >= 4.0


def test_tolerance_tightening_reduces_error(grid2d):
    basis = make_basis(grid2d, 4)
    params = FluidParams(2.0, 1.0)
    lam = basis.eigenvalues[0]
    exact = 0.7 * np.exp(-0.5 * lam)

    def run(rtol):
        c = np.zeros(4)
        c[0] = 0.7
        state = GalerkinState(basis, c, 0.0)
        ctrl = StepController(rtol=rtol, atol=1e-14)
        while state.t < 1.0:
            state = advance(state, params, ctrl, dt_cap=1.0 - state.t)
        return abs(state.c[0] - exact)

    assert run(1e-9) < run(1e-5)


def test_stiffness_error_carries_diagnostics(grid2d):
    basis = make_basis(grid2d, 20)
    rng = np.random.default_rng(5)
    state = GalerkinState(basis, 50.0 * rng.standard_normal(20), 0.0)
    ctrl = StepController(rtol=1e-13, atol=1e-16, dt_min=0.5)
    ctrl.dt = 1.0
    with pytest.raises(StiffnessError) as exc:
        advance(state, FluidParams(1.9, 1.0), ctrl)
    assert exc.value.dt < 0.5


@pytest.mark.parametrize(
    "kw", [{"rtol": np.nan}, {"atol": np.nan}, {"dt_min": np.nan}, {"rtol": 0.0},
           {"atol": -1e-12}]
)
def test_step_controller_rejects_bad_tolerances(kw):
    with pytest.raises(ValueError):
        StepController(**kw)


@pytest.fixture
def bounded_rhs(monkeypatch):
    """Make a non-terminating step-size loop fail instead of hanging."""
    import plsf.galerkin as galerkin

    calls = []
    rhs = galerkin._rhs_parts

    def counted(*args):
        calls.append(1)
        if len(calls) > 300:
            raise RuntimeError("advance did not stop")
        return rhs(*args)

    monkeypatch.setattr(galerkin, "_rhs_parts", counted)
    return calls


@pytest.mark.parametrize("dt", [None, 1e-3], ids=["initial-dt", "set-dt"])
def test_advance_stops_on_nan_state(grid2d, bounded_rhs, dt):
    # a NaN k1 makes the initial step NaN, and `dt < dt_min` never holds for
    # it; from a finite dt, rejecting the NaN error norm only shrinks dt
    # towards dt_min one rejection at a time
    basis = make_basis(grid2d, 20)
    c = np.ones(20)
    c[3] = np.nan
    ctrl = StepController()
    ctrl.dt = dt
    with pytest.raises(StiffnessError):
        advance(GalerkinState(basis, c, 0.0), FluidParams(1.9, 1.0), ctrl)
    assert len(bounded_rhs) <= 7


# -- trajectory runs ---------------------------------------------------------------


def small_config(**kw):
    base = dict(
        dim=2, M=16, L=2 * np.pi, p=1.9, mu=1.0, N=20, T=0.25,
        rtol=1e-7, sample_dt=0.025, init_kind="taylor_green", amplitude=1.0,
    )
    base.update(kw)
    return SolverConfig(**base)


def test_run_rejects_nan_mu():
    # a hand-built config skips the config-file checks
    with pytest.raises(ValueError):
        run_trajectory(small_config(mu=float("nan")))


def test_run_t_zero_single_sample():
    rec = run_trajectory(small_config(T=0.0))
    assert rec.times.size == 1
    assert rec.times[0] == 0.0
    assert rec.steps == 0


def test_run_determinism_bit_identical():
    a = run_trajectory(small_config())
    b = run_trajectory(small_config())
    assert a.csv_bytes() == b.csv_bytes()


def test_run_records_cadence_and_endpoints():
    rec = run_trajectory(small_config())
    for k in range(1, 11):
        target = k * 0.025
        assert np.min(np.abs(rec.times - target)) < 1e-12
    assert rec.times[-1] == 0.25
    assert np.all(np.diff(rec.times) > 0)


def test_cadence_snaps_near_duplicate_end_time():
    # 11 * 0.03 = 0.32999999999999996, one ulp below T = 0.33
    T = 0.33
    rec = run_trajectory(small_config(N=8, T=T, sample_dt=0.03))
    assert np.all(np.diff(rec.times) > 0)
    assert rec.times[-1] == T
    assert np.min(np.diff(rec.times)) >= 1e-9 * T
    for k in range(1, 11):
        assert np.min(np.abs(rec.times - k * 0.03)) < 1e-12


def test_collected_states_one_per_requested_time():
    # requested times that snap onto the same sample still get a state each
    T = 0.33
    times = [k * 0.03 for k in range(12)] + [T]
    rec, states = run_trajectory(small_config(N=8, T=T, sample_dt=0.03),
                                 collect_states_at=times)
    assert len(states) == len(times)
    assert np.array_equal(states[-2], states[-1])
    assert rec.times[-1] == T


def test_energy_monotone_within_tolerance():
    rec = run_trajectory(small_config())
    increases = np.diff(rec.energy)
    assert np.all(increases <= 10 * 1e-7 * rec.energy[0])
    assert np.all(rec.energy >= 0)
    assert np.all(rec.rho_tilde >= 0)
    assert np.all(rec.rho >= 0)


def test_run_random_band_reproducible():
    cfg = small_config(init_kind="random_band", band=4, seed=9, amplitude=0.8)
    a = run_trajectory(cfg)
    b = run_trajectory(cfg)
    assert a.csv_bytes() == b.csv_bytes()


def test_record_d2_channel():
    rec = run_trajectory(small_config(record_d2=True, T=0.05, sample_dt=0.025))
    assert rec.d2_p_norm is not None
    assert np.all(rec.d2_p_norm > 0)
    header = rec.csv_bytes().decode().splitlines()[0]
    assert header == "t,energy,rho,rho_tilde,grad_p_norm,Ip,d2_p_norm"


def test_csv_roundtrip(tmp_path):
    rec = run_trajectory(small_config(T=0.1))
    path = tmp_path / "traj.csv"
    rec.to_csv(path)
    back = TrajectoryRecord.from_csv(path, p=rec.p, mu=rec.mu, N=rec.N)
    assert np.array_equal(back.times, rec.times)
    assert np.array_equal(back.energy, rec.energy)
    assert np.array_equal(back.rho_tilde, rec.rho_tilde)


def test_csv_columns_contiguous_and_bytes_roundtrip(tmp_path):
    rec = run_trajectory(small_config(record_d2=True, T=0.05, sample_dt=0.01))
    path = tmp_path / "traj.csv"
    rec.to_csv(path)
    back = TrajectoryRecord.from_csv(path, p=rec.p, mu=rec.mu, N=rec.N)
    columns = (back.times, back.energy, back.rho, back.rho_tilde,
               back.grad_p_norm, back.Ip, back.d2_p_norm)
    assert all(col.flags.c_contiguous for col in columns)
    assert back.csv_bytes() == path.read_bytes() == rec.csv_bytes()


def test_csv_header_only_raises_without_warning(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("t,energy,rho,rho_tilde,grad_p_norm,Ip\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="holds no samples"):
            TrajectoryRecord.from_csv(path)


def test_csv_wrong_header_rejected(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("t,energy,rho,grad_p_norm,rho_tilde,Ip\n0.0,1.0,2.0,3.0,4.0,5.0\n")
    with pytest.raises(ValueError, match="does not follow the trajectory CSV contract"):
        TrajectoryRecord.from_csv(path)


@pytest.mark.parametrize("record_d2", [False, True], ids=["no-d2", "d2"])
@pytest.mark.parametrize("mu", [1.0, 0.0], ids=["mu1", "mu0"])
@pytest.mark.parametrize(
    "dim,M,dealias,N",
    [(2, 16, 1.5, 30), (3, 8, 1.5, 101), (2, 10, 1.2, None)],
    ids=["2d", "3d", "2d-aliased"],
)
def test_functionals_match_public_operations(dim, M, dealias, N, mu, record_d2):
    # the sample runs in the basis's work arena; the public operations are
    # the reference, bit for bit (energy and rho are the coefficient sums,
    # exact in theory only, so they match the quadrature to rounding)
    from plsf.constitutive import I_p
    from plsf.fields import gradient, hessian_samples

    grid = TorusGrid(dim, M, 2 * np.pi, dealias_factor=dealias)
    basis = make_basis(grid, N or basis_capacity(grid))
    c = np.random.default_rng(11).standard_normal(basis.size) * 0.5
    state = GalerkinState(basis, c, 0.0)
    params = FluidParams(1.9, mu)
    vals = state_functionals(state, params, record_d2=record_d2)
    v = state.velocity()
    assert vals["energy"] == pytest.approx(lp_norm(v, 2) ** 2, rel=1e-10)
    assert vals["rho"] == pytest.approx(lp_norm(gradient(v), 2) ** 2, rel=1e-10)
    assert vals["rho_tilde"] == rho_tilde(v, params)
    assert vals["grad_p_norm"] == lp_norm(gradient(v), 1.9)
    if mu > 0:
        assert vals["Ip"] == I_p(v, params)
    else:
        assert np.isnan(vals["Ip"])
    if record_d2:
        assert vals["d2_p_norm"] == lp_norm(hessian_samples(v), 1.9, grid=grid)
    else:
        assert "d2_p_norm" not in vals


def _full_basis(dim, M, dealias):
    grid = TorusGrid(dim, M, 2 * np.pi, dealias_factor=dealias)
    return make_basis(grid, basis_capacity(grid))


def test_arena_calls_match_cold_calls():
    # RHS and sample share each basis's work buffers: warm calls on two
    # bases, interleaved over two states each, give what a cold call on a
    # fresh basis gives, and what callers do to returned arrays stays theirs
    params = FluidParams(1.9, 1.0)
    kinds = [(2, 16, 1.5), (3, 8, 1.0)]  # dealiased, and the skew path
    warm = {kind: _full_basis(*kind) for kind in kinds}
    rng = np.random.default_rng(21)
    coeffs = {kind: [rng.standard_normal(warm[kind].size) for _ in range(2)]
              for kind in kinds}

    def evaluate(basis, c):
        visc, conv = _rhs_parts(basis, params, c)
        vals = state_functionals(GalerkinState(basis, c, 0.0), params, record_d2=True)
        return visc, conv, vals, basis.synthesize_coeffs(c)

    for _ in range(2):
        for n in range(2):
            for kind in kinds:
                c = coeffs[kind][n]
                got = evaluate(warm[kind], c)
                cold = evaluate(_full_basis(*kind), c)
                assert np.array_equal(got[0], cold[0])
                assert np.array_equal(got[1], cold[1])
                assert got[2] == cold[2]
                assert np.array_equal(got[3], cold[3])
                for returned in (got[0], got[1], got[3]):
                    returned[...] = np.nan


@pytest.mark.parametrize("kernel", ["rhs", "sample"])
def test_warm_kernels_allocate_under_four_padded_channels(kernel):
    # a warm call works in the basis's arena: what it allocates is the
    # returned vectors and small bookkeeping, not grid-sized temporaries
    import tracemalloc

    basis = _full_basis(2, 32, 1.5)
    params = FluidParams(1.9, 1.0)
    c = np.random.default_rng(8).standard_normal(basis.size)
    if kernel == "rhs":
        call = lambda: _rhs_parts(basis, params, c)
    else:
        call = lambda: state_functionals(GalerkinState(basis, c, 0.0), params)
    call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    channel = 8 * basis.grid.padded_M**2
    assert peak < 4 * channel


def test_lambda_cut_truncation():
    cfg = small_config(N=None, lambda_cut=2.0)
    rec = run_trajectory(cfg)
    assert rec.N == 8  # lambda <= 2 holds the first two shells


def test_galerkin_nesting(grid2d):
    v = random_solenoidal(grid2d, band=6, seed=12)
    small = project_initial_data(v, make_basis(grid2d, 10))
    large = project_initial_data(v, make_basis(grid2d, 40))
    assert np.array_equal(small.c, large.c[:10])


def test_shell_order_insensitivity(grid2d):
    # permuting entries inside full eigenvalue shells leaves the dynamics
    # invariant (the span is the same); check the energy trace agrees
    basis = make_basis(grid2d, 8)  # two complete shells
    entries = list(basis.entries)
    first_shell = [entries[2], entries[0], entries[3], entries[1]]
    second_shell = [entries[7], entries[5], entries[4], entries[6]]
    alt = StokesBasis(grid2d, first_shell + second_shell)
    assert [e.wavevector for e in alt.entries] != [e.wavevector for e in entries] or [
        e.trig for e in alt.entries
    ] != [e.trig for e in entries]
    v = random_solenoidal(grid2d, band=2, seed=14)
    params = FluidParams(1.9, 1.0)
    s1 = project_initial_data(v, basis)
    s2 = project_initial_data(v, alt)
    c1, c2 = StepController(rtol=1e-9), StepController(rtol=1e-9)
    for _ in range(3):
        s1 = advance(s1, params, c1, dt_cap=0.05)
        s2 = advance(s2, params, c2, dt_cap=0.05)
    e1 = float(np.dot(s1.c, s1.c))
    e2 = float(np.dot(s2.c, s2.c))
    assert e1 == pytest.approx(e2, rel=1e-9)
