import math
import re
import warnings

import numpy as np
import pytest

from conftest import (
    I_p,
    half_spectrum,
    half_to_physical,
    half_wavevectors,
    hessian,
    permute_axes,
    rho_tilde,
    spectral_shape,
    stress,
    sym_gradient,
    trace_free_value,
)
from plsf.basis import basis_capacity, full_basis, make_basis
from plsf.constitutive import FluidParams
from plsf.errors import StiffnessError
from plsf.fields import _kept_entries, lp_norm, random_solenoidal
from plsf.galerkin import (
    _DP_A,
    _DP_B5,
    _initial_dt,
    _padded_values,
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
    # the semi-discrete energy law -c . dc/dt = rho_tilde, with the rho_tilde
    # a sample records: c . P div sigma = -rho_tilde exactly by discrete
    # Parseval (D is band-limited), so what the law leaves over at rounding
    # level is c . conv
    basis = make_basis(grid, N)
    rng = np.random.default_rng(seed)
    params = FluidParams(1.9, 1.0)
    for _ in range(trials):
        c = rng.standard_normal(N)
        production = -float(np.dot(c, _rhs_parts(basis, params, c)))
        sample = state_functionals(GalerkinState(basis, c, 0.0), params)
        assert production == pytest.approx(sample["rho_tilde"], rel=1e-13)


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


def test_convection_neutrality_even_without_oversampling():
    # skew antisymmetry is exact independent of aliasing
    g = TorusGrid(2, 16, 2 * np.pi, dealias_factor=1.0)
    _check_convection_neutrality(g, 40, seed=4, trials=1)


@pytest.mark.parametrize(
    "dim,M,dealias", [(2, 16, 1.5), (3, 8, 1.5), (2, 16, 1.0), (3, 8, 1.0), (2, 10, 1.2)]
)
def test_convection_equals_skew_average(dim, M, dealias):
    # oracle: P div sigma - conv, with conv the skew average
    # ((v.grad v) + div(v (x) v)) / 2, over full tensors, built here from
    # the public transforms and the full-channel stress of the test oracle.
    # On a dealiased grid the divergence form alone agrees with it;
    # elsewhere the solver takes it, and its rotation part, which adds no
    # energy, is pinned only here.
    g = TorusGrid(dim, M, 2 * np.pi, dealias_factor=dealias)
    basis = make_basis(g, basis_capacity(g))
    c = np.random.default_rng(6).standard_normal(basis_capacity(g))
    params = FluidParams(1.9, 1.0)
    rhs = _rhs_parts(basis, params, c)

    ik = 1j * half_wavevectors(g)
    vhat = half_spectrum(g, basis.synthesize(c).coeffs)
    V = half_to_physical(g, vhat)
    G = half_to_physical(g, ik[np.newaxis, :] * vhat[:, np.newaxis])  # d_j v_i
    w1 = np.einsum("j...,ij...->i...", V, G)
    sigma = stress(sym_gradient(basis.synthesize(c)), params).values
    # every term at the basis wavevectors, where the projection reads them
    index = g.band_index(basis.modes)
    ikm = 1j * (2 * np.pi / g.L) * basis.modes.T

    def div(tensor):
        return np.sum(ikm[np.newaxis] * g.to_spectral(tensor, index), axis=1)

    skew = 0.5 * (g.to_spectral(w1, index) + div(V[:, np.newaxis] * V[np.newaxis, :]))
    expected = basis.project_modes(div(sigma)) - basis.project_modes(skew)
    assert np.max(np.abs(rhs - expected)) <= 1e-12 * np.max(np.abs(expected))


def _transform_calls(monkeypatch):
    """The channels of each to_physical and each to_spectral call from now
    on, as two lists."""
    calls = {}
    for name in ("to_physical", "to_spectral"):
        seen, transform = calls.setdefault(name, []), getattr(TorusGrid, name)

        def counted(self, data, *args, _seen=seen, _transform=transform, **kw):
            _seen.append(math.prod(data.shape[: data.ndim - self.dim]))
            return _transform(self, data, *args, **kw)

        monkeypatch.setattr(TorusGrid, name, counted)
    return calls["to_physical"], calls["to_spectral"]


@pytest.mark.parametrize(
    "dim,M,dealias,inverse,forward",
    [(2, 16, 1.5, [4], [2]), (3, 8, 1.5, [8], [5]), (2, 16, 1.0, [5], [4]),
     (3, 8, 1.0, [11], [8]), (2, 64, 1.5, [4], [2]), (3, 16, 1.5, [8], [5]),
     (3, 32, 1.5, [1] * 8, [1] * 5)],
    ids=["2d", "3d", "2d-skew", "3d-skew", "2d-64", "3d-16", "3d-32"],
)
def test_rhs_transform_channel_budget(monkeypatch, dim, M, dealias, inverse, forward):
    # v, the rotation (skew path) and D without D_dd go in; the flux T
    # without T_dd, and v . grad v on the skew path, come out.  A call takes
    # as many channels as _CHUNK_BYTES of spectrum hold: the whole pass each
    # way up to 2D 64^2 and 3D 16^3, a channel per call from 3D 32^3 up
    # (590 KB inverse and 922 KB forward per channel)
    basis = _full_basis(dim, M, dealias)
    ins, outs = _transform_calls(monkeypatch)
    _rhs_parts(basis, FluidParams(1.9, 1.0), np.random.default_rng(2).standard_normal(basis.size))
    assert (ins, outs) == (inverse, forward)


@pytest.mark.parametrize("dim,M", [(2, 16), (3, 8)])
def test_projection_annihilates_gradients(dim, M):
    # P (ik q) = 0: an isotropic part q I of the flux never reaches the RHS,
    # which is why T_dd can be subtracted from T's diagonal
    basis = _full_basis(dim, M, 1.5)
    rng = np.random.default_rng(3)
    q = rng.standard_normal(len(basis.modes)) + 1j * rng.standard_normal(len(basis.modes))
    grad = 1j * (2 * np.pi / basis.grid.L) * basis.modes.T * q
    scale = np.sqrt(2.0 * basis.grid.volume) * np.max(np.abs(grad))
    assert np.max(np.abs(basis.project_modes(grad))) <= 8 * dim * np.finfo(float).eps * scale
    # the same vectors rotated a quarter turn are not annihilated
    assert np.max(np.abs(basis.project_modes(grad[::-1]))) > 0.1 * scale


@pytest.mark.parametrize("p, mu", [(1.85, 0.5), (1.8, 0.0)])
def test_rhs_and_samples_invariant_under_axis_permutation(p, mu):
    # the cyclic axis map (x, y, z) -> (y, z, x) is a symmetry of the PDE;
    # it sends the basis to itself in another order, and the pruned
    # per-axis passes of to_physical and to_spectral treat each axis
    # differently, so every quantity below is summed in another order from
    # other transforms.  The largest disagreement reads 5.8e-16 (2.6 ulps,
    # |f|^2), over seeds 0-3 and both parameter pairs
    grid = TorusGrid(3, 16, 2 * np.pi)
    basis = full_basis(grid)
    v = random_solenoidal(grid, band=5, seed=0, amplitude=1.5)
    params = FluidParams(p, mu)
    values = []
    for u in (v, permute_axes(v)):
        state = project_initial_data(u, basis)
        f = galerkin_rhs(state, params)
        sample = state_functionals(state, params, record_d2=True)
        values.append({"production": -float(np.dot(state.c, f)), "rhs_sq": float(np.dot(f, f)),
                       **sample})
    want, got = values
    assert want.keys() == got.keys()
    assert math.isnan(want["Ip"]) == math.isnan(got["Ip"]) == (mu == 0)
    for key in want:
        if not math.isnan(want[key]):
            assert got[key] == pytest.approx(want[key], rel=4 * np.finfo(float).eps, abs=0), key


# -- adaptive stepping ------------------------------------------------------------


def test_dormand_prince_last_stage_is_the_solution(grid2d):
    # DP5(4) is FSAL: the stage-7 input sums the 5th-order weights, so
    # advance returns that input as y5 and its RHS is the last stage
    assert _DP_A[-1] == _DP_B5[:-1]
    assert _DP_B5[-1] == 0.0
    basis = make_basis(grid2d, 24)
    params = FluidParams(1.9, 1.0)
    state = project_initial_data(random_solenoidal(grid2d, band=3, seed=8), basis)
    ctrl = StepController(rtol=1e-8)
    out = advance(state, params, ctrl)
    assert np.array_equal(ctrl.last_segment.stages[-1], galerkin_rhs(out, params))


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


def test_rhs_evaluations_are_counted(grid2d):
    # advance evaluates k1 once per call and six stages per attempt
    rec = run_trajectory(small_config())
    assert rec.steps > 0
    assert rec.rhs_evaluations == rec.steps + 6 * (rec.steps + rec.rejections)
    basis = make_basis(grid2d, 24)
    state = project_initial_data(random_solenoidal(grid2d, band=3, seed=8), basis)
    ctrl = StepController(rtol=1e-8, dt=10.0)  # far too long a first attempt
    advance(state, FluidParams(1.9, 1.0), ctrl)
    assert ctrl.nreject > 0
    assert ctrl.nrhs == 1 + 6 * (ctrl.naccept + ctrl.nreject)


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


def test_collected_states_one_per_requested_time(monkeypatch):
    # requested times that snap onto the same sample still get a state each.
    # A state is the run's basis and the length-N vector sampled at its
    # time: what it synthesizes is, bit for bit, the spectrum of the vector
    # as it was sampled, so no later step wrote it, and it is no view of the
    # step controller's buffers.
    import plsf.galerkin as galerkin_mod

    controllers, sampled = [], {}
    sample = galerkin_mod.state_functionals

    class Controller(StepController):
        def __post_init__(self):
            super().__post_init__()
            controllers.append(self)

    def spy(state, params, record_d2=False):
        sampled[state.t] = state.basis.synthesize(state.c).coeffs
        return sample(state, params, record_d2=record_d2)

    monkeypatch.setattr(galerkin_mod, "StepController", Controller)
    monkeypatch.setattr(galerkin_mod, "state_functionals", spy)
    T = 0.33
    times = [k * 0.03 for k in range(12)] + [T]
    rec, states = run_trajectory(small_config(N=8, T=T, sample_dt=0.03),
                                 collect_states_at=times)
    assert len(states) == len(times)
    assert states[-2] is states[-1]
    assert rec.times[-1] == T
    (ctrl,) = controllers
    basis = states[0].basis
    for st in states:
        assert isinstance(st, GalerkinState) and st.basis is basis
        assert st.c.shape == (8,) and st.c.dtype == np.float64
        assert not np.shares_memory(st.c, ctrl._buffers)
        assert basis.synthesize(st.c).coeffs.tobytes() == sampled[st.t].tobytes()


def test_collect_times_snap_to_T_or_are_refused():
    # a time within 1e-9 T of T is T's state; one outside [0, T] beyond
    # that is an error, not a missing state
    T = 0.3
    cfg = small_config(N=8, T=T, sample_dt=0.1)
    rec, states = run_trajectory(cfg, collect_states_at=[0.0, 3 * 0.1, T * (1 + 1e-10)])
    assert [st.t for st in states] == [0.0, T, T]
    assert rec.times[-1] == T
    for bad in (T * (1 + 1e-8), 1.0, -1e-3, float("nan")):
        with pytest.raises(ValueError, match="outside"):
            run_trajectory(cfg, collect_states_at=[0.1, bad])


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


FUNCTIONAL_CASES = pytest.mark.parametrize(
    "dim,M,dealias,N",
    [(2, 16, 1.5, 30), (3, 8, 1.5, 101), (2, 10, 1.2, None)],
    ids=["2d", "3d", "2d-aliased"],
)


def _sampled_state(dim, M, dealias, N):
    grid = TorusGrid(dim, M, 2 * np.pi, dealias_factor=dealias)
    basis = make_basis(grid, N or basis_capacity(grid))
    c = np.random.default_rng(11).standard_normal(basis.size) * 0.5
    return GalerkinState(basis, c, 0.0)


@pytest.mark.parametrize("record_d2", [False, True], ids=["no-d2", "d2"])
@pytest.mark.parametrize("mu", [1.0, 0.0], ids=["mu1", "mu0"])
@FUNCTIONAL_CASES
def test_functionals_match_public_operations(dim, M, dealias, N, mu, record_d2):
    # the sample runs in the basis's work arena on trace-free channels; the
    # public gradient and the test oracle's full-channel forms transform
    # every channel, so the two agree to rounding, and the Hessian, which
    # has no trace-free channel, bit for bit (energy and rho are the
    # coefficient sums, exact in theory only, so they match the quadrature
    # to rounding)
    from plsf.fields import gradient

    state = _sampled_state(dim, M, dealias, N)
    params = FluidParams(1.9, mu)
    vals = state_functionals(state, params, record_d2=record_d2)
    v = state.velocity()
    assert vals["energy"] == pytest.approx(lp_norm(v, 2) ** 2, rel=1e-10)
    assert vals["rho"] == pytest.approx(lp_norm(gradient(v), 2) ** 2, rel=1e-10)
    assert vals["rho_tilde"] == pytest.approx(rho_tilde(v, params), rel=1e-14)
    assert vals["grad_p_norm"] == pytest.approx(lp_norm(gradient(v), 1.9), rel=1e-14)
    if mu > 0:
        assert vals["Ip"] == pytest.approx(I_p(v, params), rel=1e-14)
    else:
        assert np.isnan(vals["Ip"])
    if record_d2:
        assert vals["d2_p_norm"] == lp_norm(hessian(v), 1.9, grid=state.basis.grid)
    else:
        assert "d2_p_norm" not in vals


@pytest.mark.parametrize("mu", [1.0, 0.0], ids=["mu1", "mu0"])
@FUNCTIONAL_CASES
def test_functionals_match_trace_free_oracle(dim, M, dealias, N, mu):
    # equality, not a tolerance: the kernel keeps the oracle's channels and
    # sum order, for the sample and for every key of the kernel
    from plsf.galerkin import _padded_values

    state = _sampled_state(dim, M, dealias, N)
    params = FluidParams(1.9, mu)
    vals = state_functionals(state, params, record_d2=True)
    v = state.velocity()
    assert vals["rho_tilde"] == trace_free_value(v, ("rho_tilde", params))
    assert vals["grad_p_norm"] == trace_free_value(v, ("grad", 1.9))
    assert vals["d2_p_norm"] == trace_free_value(v, ("hess", 1.9))
    if mu > 0:
        assert vals["Ip"] == trace_free_value(v, ("I_p", params))
    keys = [("u", 2.0), ("u", 1.5), ("grad", 3.0), ("hess", 2.0), ("shifted", params),
            ("rho_tilde", params), ("rho_tilde", FluidParams(1.7, 0.5))]
    keys += [("I_p", FluidParams(1.9, 1e-2))] + ([("I_p", params)] if mu > 0 else [])
    got = _padded_values(state.basis, _kept_entries(v.coeffs, state.basis.kept), keys)
    assert got == {key: trace_free_value(v, key) for key in keys}


@pytest.mark.parametrize("record_d2", [False, True], ids=["no-d2", "d2"])
@pytest.mark.parametrize(
    "dim,M,dealias,grad,strain,hess",
    [(2, 16, 1.5, [2, 1], [2, 2], [3, 3]), (3, 8, 1.0, [3, 3, 2], [3] * 5, [6, 6, 6])],
    ids=["2d", "3d"],
)
def test_sample_transform_channel_budget(monkeypatch, dim, M, dealias, grad, strain, hess,
                                         record_d2):
    # one sample: grad v without d_d v_d (7 channels in 2D, 23 in 3D with
    # d_s D_ij below) a row per call, d_s D_ij for the pairs i <= j but
    # (d, d) a pair per call, and the Hessian's j <= k triangle a component
    # per call
    seen, transform = [], TorusGrid.to_physical

    def counted(self, data, *args, **kw):
        seen.append(math.prod(data.shape[: data.ndim - self.dim]))
        return transform(self, data, *args, **kw)

    basis = _full_basis(dim, M, dealias)
    c = np.random.default_rng(4).standard_normal(basis.size)
    monkeypatch.setattr(TorusGrid, "to_physical", counted)
    state_functionals(GalerkinState(basis, c, 0.0), FluidParams(1.9, 1.0), record_d2=record_d2)
    assert seen == grad + strain + (hess if record_d2 else [])
    assert sum(grad + strain) == {2: 7, 3: 23}[dim]


# the bytes the RHS's buffers alone took at 3D M^3, full band, dealias 1.5,
# with a full (M,)^3 spectrum buffer of 9 channels
RHS_ONLY_BYTES = {16: 2_716_224, 32: 21_901_504}


@pytest.mark.parametrize("M", [16, 32])
def test_arena_within_the_rhs_budget_plus_one_padded_grid(M):
    # one set of buffers serves both kernels, and no kernel forms an (M,)^3
    # spectrum: with the kept-position constants (1j k and the scatter and
    # gather indices) the arena stays three spectral channels under the
    # RHS-only bytes of the full-spectrum layout.  On a dealiased 3D grid
    # phys holds the RHS's n_rhs = 8 grids, which the functionals stream
    # grad v and d_s D_ij through, beside mag and tmp: no dd grid (D_dd
    # is formed in tmp) and no divergence buffer (the basis's mode-value
    # scratch takes it).  At 32^3 a transform call carries one channel,
    # so work holds one channel's padded half-spectrum and gath one
    # channel's coefficients: it reads 2,112,800 and 12,331,872 B
    # (2,414,960 and 14,816,304 B with a ninth phys grid, dd and div)
    from plsf.galerkin import _Arena

    basis = _full_basis(3, M, 1.5)
    arena = _Arena(basis)
    assert arena.n_rhs == 8 and arena.phys.shape[0] == arena.n_rhs
    assert arena.dd is None
    names = ("phys", "mag", "tmp", "mask", "coef", "row", "work", "gath", "kept_ik")
    total = sum(getattr(arena, name).nbytes for name in names)
    total += sum(index.nbytes for index in basis.kept[:2])
    gone = ("spec", "ik", "kk", "kept_kk", "tensor_row", "div")
    assert not any(hasattr(arena, name) for name in gone)
    assert total <= RHS_ONLY_BYTES[M] - 3 * M**3 * 16
    if M == 32:
        assert total <= 12_400_000


def test_arena_at_64_cubed_holds_ten_padded_grids():
    # the arena's buffers come from np.empty, so building it at 3D 64^3
    # full band touches no page of them.  Every array it holds, buffers
    # and constants, reads 107,164,048 B (127,320,928 B with a ninth phys
    # grid, dd and a (d, modes) divergence buffer)
    from plsf.galerkin import _Arena

    basis = _full_basis(3, 64, 1.5)
    arena = _Arena(basis)
    shape = basis.grid.padded_shape
    held = {id(a): a for a in vars(arena).values() if isinstance(a, np.ndarray)}
    grids = sum(a.size for a in held.values() if a.dtype == np.float64 and a.shape[-3:] == shape)
    assert grids == (arena.n_rhs + 2) * math.prod(shape) == 10 * math.prod(shape)
    assert sum(a.nbytes for a in held.values()) <= 107_500_000


def _kernel_outputs(basis, u):
    """The bytes of the RHS, the sample with ||D^2 v|| at mu > 0 and at
    mu = 0, and table_row on every key, for the state c of basis and the
    field u."""
    from plsf.inequalities import TABLE_KEYS, table_row

    c = np.random.default_rng(5).standard_normal(basis.size) / np.sqrt(basis.size)
    out = []
    for params in (FluidParams(1.9, 1.0), FluidParams(1.8, 0.0)):
        out.append(_rhs_parts(basis, params, c).tobytes())
        vals = state_functionals(GalerkinState(basis, c, 0.0), params, record_d2=True)
        out.append(np.array([vals[name] for name in sorted(vals)]).tobytes())
    params = FluidParams(1.9, 0.5)
    keys = [key for name, keys in TABLE_KEYS.items()
            for key in keys(params if name in ("lemma3", "ap3") else 1.9)]
    row = table_row(u, keys, basis)
    out += [np.asarray(row[key]).tobytes() for key in keys]
    return out


@pytest.mark.parametrize("dim,M,dealias", [(2, 16, 1.5), (3, 8, 1.5), (3, 8, 1.0)],
                         ids=["2d", "3d", "3d-skew"])
def test_channel_per_call_gives_the_bits_of_whole_pass_calls(monkeypatch, dim, M, dealias):
    # numpy transforms each channel on its own, and the divergence gains its
    # terms in the order of an einsum over each flux row: chunking the calls
    # changes no bit of any kernel's output, v . grad v included
    from plsf import galerkin

    u = random_solenoidal(_full_basis(dim, M, dealias).grid, band=3, seed=2)
    whole = _kernel_outputs(_full_basis(dim, M, dealias), u)
    monkeypatch.setattr(galerkin, "_CHUNK_BYTES", 1)
    ins, outs = _transform_calls(monkeypatch)
    chunked = _kernel_outputs(_full_basis(dim, M, dealias), u)
    assert set(ins) == set(outs) == {1}
    assert chunked == whole


def _full_basis(dim, M, dealias):
    grid = TorusGrid(dim, M, 2 * np.pi, dealias_factor=dealias)
    return make_basis(grid, basis_capacity(grid))


def _full_spectrum_rhs(basis, params, c):
    """The Galerkin RHS with its inputs built the full-spectrum way: the
    synthesized field's half-layout spectrum, derivative factors over every
    entry of it, then its band placed for to_physical; the rest in the
    kernel's order of operations."""
    from plsf.constitutive import _stress_factor
    from plsf.fields import symmetric_components

    g = basis.grid
    d = g.dim
    rows, cols, pos = symmetric_components(d)
    strain = list(zip(rows.tolist(), cols.tolist()))[:-1]
    rot = [] if g.dealiased else [(i, j) for i, j in strain if i != j]
    n_rot = len(rot)
    ik = 1j * half_wavevectors(g)
    vhat = half_spectrum(g, basis.synthesize(c).coeffs)
    inputs = list(vhat)
    for k, (i, j) in enumerate(rot + strain):
        half = np.multiply(ik[j], vhat[i])
        (np.subtract if k < n_rot else np.add)(half, np.multiply(ik[i], vhat[j]), out=half)
        inputs.append(np.multiply(0.5, half, out=half))
    phys = half_to_physical(g, np.array(inputs))
    V, D = phys[:d], phys[d + n_rot :]
    diag = pos.diagonal()[:-1]
    diag = slice(diag[0], diag[-1] + 1, max(1, diag[-1] - diag[0]))
    D_dd = np.negative(np.sum(D[diag], axis=0))
    w_off = np.array([1.0 + (i != j) for i, j in strain])
    dd_sq = np.einsum("k...,k...,k->...", D, D, w_off, out=np.empty(g.padded_shape))
    dd_sq += np.square(D_dd)
    fac = _stress_factor(dd_sq, params, out=dd_sq, mask=np.empty(g.padded_shape, bool))
    out = [D]
    if n_rot:
        full = [*D, D_dd]
        w1 = np.array([sum(V[j] * full[pos[i, j]] for j in range(d)) for i in range(d)])
        for R, (i, j) in zip(phys[d : d + n_rot], rot):
            w1[i] += V[j] * R
            w1[j] -= V[i] * R
        out.append(w1)
    D[diag] -= D_dd
    s = 0.5 if n_rot else 1.0
    t_dd = s * np.square(V[d - 1])
    for T, (i, j) in zip(D, strain):
        np.multiply(fac, T, out=T)
        T -= s * (V[i] * V[j])
        if i == j:
            T += t_dd
    S = g.to_spectral(np.concatenate(out), g.band_index(basis.modes))
    ikm = 1j * ((2.0 * np.pi / g.L) * basis.modes.T.astype(np.float64, order="C"))
    div = np.empty((d, len(basis.modes)), np.complex128)
    for i in range(d):
        n = d - 1 if i == d - 1 else d
        np.einsum("j...,j...->...", ikm[:n], S[pos[i, :n]], out=div[i])
    if n_rot:
        div -= 0.5 * S[len(strain):]
    return basis.project_modes(div)


@pytest.mark.parametrize("mu", [1.0, 0.0], ids=["mu1", "mu0"])
@pytest.mark.parametrize(
    "dim,M,dealias,N",
    [(2, 16, 1.5, None), (3, 8, 1.0, None), (2, 16, 1.5, 13), (3, 8, 1.5, 13)],
    ids=["2d", "3d-skew", "2d-N13", "3d-N13"],
)
def test_kept_inputs_match_the_full_spectrum_oracle(dim, M, dealias, N, mu):
    # the kernels form their transform inputs at the basis's kept positions
    # and scatter them into the padded half-spectrum; the oracles synthesize
    # the whole half-layout spectrum first (the functionals' is trace_free_value,
    # in the kernel's sum orders).  Same operands, same bits.
    grid = TorusGrid(dim, M, 2 * np.pi, dealias_factor=dealias)
    basis = make_basis(grid, N or basis_capacity(grid))
    rng = np.random.default_rng(17)
    params = FluidParams(1.9, mu)
    keys = [("u", 2.0), ("u", 1.5), ("grad", 1.9), ("grad", 3.0), ("hess", 2.0),
            ("shifted", params), ("rho_tilde", params), ("rho_tilde", FluidParams(1.7, 0.5)),
            ("I_p", FluidParams(1.9, 1e-2))]
    for c in (rng.standard_normal(basis.size), np.where(rng.random(basis.size) < 0.5, 0.0,
                                                       rng.standard_normal(basis.size))):
        rhs = _rhs_parts(basis, params, c)
        assert rhs.tobytes() == _full_spectrum_rhs(basis, params, c).tobytes()
        v = basis.synthesize(c)
        expected = {key: trace_free_value(v, key) for key in keys}
        kept = basis.kept_coeffs(c)
        assert _padded_values(basis, kept, keys) == expected
        assert _padded_values(basis, _kept_entries(v.coeffs, basis.kept), keys) == expected
        # the sample shares rho_tilde's stress factor with I_p when mu > 0
        sample = state_functionals(GalerkinState(basis, c, 0.0), params, record_d2=True)
        shared = [("grad", 1.9), ("rho_tilde", params), ("hess", 1.9)]
        shared += [("I_p", params)] if mu > 0 else []
        names = ["grad_p_norm", "rho_tilde", "d2_p_norm", "Ip"][: len(shared)]
        assert [sample[name] for name in names] == [trace_free_value(v, key) for key in shared]


def test_kept_coeffs_are_the_synthesized_field_at_the_kept_wavevectors():
    # both signs of a vanishing part, in 2D and 3D, full and truncated bands
    for dim, M, N in [(2, 8, None), (2, 16, 13), (3, 8, None), (3, 12, 101)]:
        grid = TorusGrid(dim, M, 2 * np.pi)
        basis = make_basis(grid, N or basis_capacity(grid))
        c = np.random.default_rng(dim * M).standard_normal(basis.size)
        c[::3], c[1::5] = 0.0, -0.0
        dst, rows, split = basis.kept
        modes = basis.modes[rows]
        modes[split:] *= -1
        assert np.all(modes[:, -1] >= 0)
        assert np.sum(modes[:, -1] == 0) == 2 * np.sum(basis.modes[:, -1] == 0)
        flat = np.ravel_multi_index(tuple((modes % M).T), spectral_shape(grid))
        v = basis.synthesize(c)
        spectrum = half_spectrum(grid, v.coeffs).reshape(dim, -1)
        kept = basis.kept_coeffs(c)
        assert np.array_equal(kept, spectrum[:, flat])
        # what a table row reads of the synthesized field, bit for bit
        assert kept.tobytes() == _kept_entries(v.coeffs, basis.kept).tobytes()
        # and the half layout holds nothing else
        assert not np.any(np.delete(spectrum, flat, axis=1))


def test_one_controller_steps_two_bases_of_different_size(grid2d):
    # the stage buffers follow N; each step equals a fresh controller's
    params = FluidParams(1.9, 1.0)
    v = random_solenoidal(grid2d, band=3, seed=9)
    states = [project_initial_data(v, make_basis(grid2d, n)) for n in (24, 40)]
    ctrl = StepController(rtol=1e-8, dt=1e-3)
    for _ in range(2):
        for k, state in enumerate(states):
            ref = StepController(rtol=1e-8, dt=ctrl.dt, err_prev=ctrl.err_prev)
            expected = advance(state, params, ref)
            got = advance(state, params, ctrl)
            assert got.c.tobytes() == expected.c.tobytes() and got.t == expected.t
            assert ctrl.last_segment.stages.tobytes() == ref.last_segment.stages.tobytes()
            assert ctrl.last_segment.stages.shape == (7, state.basis.size)
            states[k] = got


def test_arena_calls_match_cold_calls():
    # RHS, table row and sample share each basis's work buffers: warm calls
    # on two bases, interleaved over two states each, give what a cold call
    # on a fresh basis gives, and what callers do to returned arrays stays
    # theirs
    from plsf.inequalities import table_row

    params = FluidParams(1.9, 1.0)
    keys = [("u", 2.0), ("grad", 1.9), ("shifted", params), ("rho_tilde", params),
            ("I_p", params), ("hess", 1.9), ("drho_half", params), ("proj_cumsum", None)]
    # dealiased, the skew path, and 3D dealiased, where phys is longer than
    # the RHS's channels
    kinds = [(2, 16, 1.5), (3, 8, 1.0), (3, 8, 1.5)]
    warm = {kind: _full_basis(*kind) for kind in kinds}
    rng = np.random.default_rng(21)
    coeffs = {kind: [rng.standard_normal(warm[kind].size) for _ in range(2)]
              for kind in kinds}

    def evaluate(basis, c):
        rhs = _rhs_parts(basis, params, c)
        u = basis.synthesize(c)
        row = table_row(u, keys, basis)
        vals = state_functionals(GalerkinState(basis, c, 0.0), params, record_d2=True)
        return rhs, vals, u.coeffs, row

    for _ in range(2):
        for n in range(2):
            for kind in kinds:
                c = coeffs[kind][n]
                got = evaluate(warm[kind], c)
                cold = evaluate(_full_basis(*kind), c)
                assert np.array_equal(got[0], cold[0])
                assert got[1] == cold[1]
                assert np.array_equal(got[2], cold[2])
                assert got[3].keys() == cold[3].keys()
                assert all(np.array_equal(got[3][key], cold[3][key]) for key in keys)
                # the row and the sample share one kernel: the same field,
                # the same bits
                row, vals = got[3], got[1]
                assert [row["grad", 1.9], row["rho_tilde", params], row["I_p", params],
                        row["hess", 1.9]] == [vals["grad_p_norm"], vals["rho_tilde"],
                                              vals["Ip"], vals["d2_p_norm"]]
                got[0][...] = np.nan  # the synthesized field's coeffs are read-only
                assert not got[2].flags.writeable


@pytest.mark.parametrize("kernel, dim, M", [("rhs", 2, 32), ("sample", 2, 32),
                                           ("rhs", 3, 16), ("sample", 3, 16)],
                         ids=["rhs", "sample", "rhs-3d", "sample-3d"])
def test_warm_kernels_allocate_under_four_padded_channels(kernel, dim, M):
    # a warm call works in the basis's arena: what it allocates is the
    # returned vectors and small bookkeeping, not grid-sized temporaries
    import tracemalloc

    basis = _full_basis(dim, M, 1.5)
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
    channel = 8 * basis.grid.padded_M**dim
    assert peak < 4 * channel


def test_warm_rhs_writes_into_out_without_a_coefficient_vector():
    # the RHS projects its divergence straight into `out`: no fresh result
    # and no transposed copy of it
    import tracemalloc

    basis = _full_basis(3, 16, 1.5)
    params = FluidParams(1.9, 1.0)
    c = np.random.default_rng(8).standard_normal(basis.size)
    row = np.empty(basis.size)
    _rhs_parts(basis, params, c, row)
    tracemalloc.start()
    try:
        got = _rhs_parts(basis, params, c, row)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got is row
    assert peak < 8 * basis.size
    assert row.tobytes() == galerkin_rhs(GalerkinState(basis, c, 0.0), params).tobytes()


def test_warm_step_allocates_at_most_two_coefficient_vectors():
    # each stage's RHS writes into its row of the stage buffer, and the
    # error norm works in the buffer's free row: a step allocates its
    # solution and one transient of the error norm, nothing else of length N
    import tracemalloc

    basis = _full_basis(3, 16, 1.5)
    params = FluidParams(1.9, 1.0)
    c = 1e-2 * np.random.default_rng(5).standard_normal(basis.size)
    ctrl = StepController()
    state = advance(GalerkinState(basis, c, 0.0), params, ctrl)
    tracemalloc.start()
    try:
        nxt = advance(state, params, ctrl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ctrl.naccept == 2 and nxt.c is not state.c
    assert peak <= 2.25 * 8 * basis.size


def test_initial_dt_weighs_in_the_free_row():
    # the first step's size is weighed by error_norm in the stage buffer's
    # free row: |y0| is its one transient of length N, and the bits are
    # those of the plain scale-and-RMS form
    import tracemalloc

    N = 100_000
    rng = np.random.default_rng(3)
    y0, f0 = rng.standard_normal(N), 1e3 * rng.standard_normal(N)
    ctrl = StepController(rtol=1e-6, atol=1e-9)
    tmp = np.empty(N)
    tracemalloc.start()
    try:
        h = _initial_dt(f0, y0, ctrl, 1.0, tmp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * N
    sc = ctrl.atol + ctrl.rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / sc) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / sc) ** 2)))
    assert d0 > 1e-5 and d1 > 1e-5
    assert h == float(np.clip(0.01 * d0 / d1, ctrl.dt_min, 1.0))


def test_lambda_cut_truncation():
    cfg = small_config(N=None, lambda_cut=2.0)
    rec = run_trajectory(cfg)
    assert rec.N == 8  # lambda <= 2 holds the first two shells


@pytest.mark.parametrize("kw, named", [
    (dict(N=0), "N = 0 selects no mode"),
    (dict(N=None, lambda_cut=0.5), "lowest eigenvalue is (2 pi / L)^2 = 1.0"),
    (dict(N=None, lambda_cut=0.5, L=np.pi), "lowest eigenvalue is (2 pi / L)^2 = 4.0"),
], ids=["N-0", "lambda_cut-2pi", "lambda_cut-pi"])
def test_empty_galerkin_system_is_a_value_error(kw, named):
    # an empty system must not reach the integrator, where it fails as too stiff
    cfg = small_config(**kw)
    with pytest.raises(ValueError, match=re.escape(named)):
        cfg.resolve_N(cfg.build_grid())
    with pytest.raises(ValueError, match=re.escape(named)):
        run_trajectory(cfg)


def test_galerkin_nesting(grid2d):
    v = random_solenoidal(grid2d, band=6, seed=12)
    small = project_initial_data(v, make_basis(grid2d, 10))
    large = project_initial_data(v, make_basis(grid2d, 40))
    assert np.array_equal(small.c, large.c[:10])


def test_stage_sums_keep_the_bits_of_pythons_sum():
    # Python's sum starts from int 0: 0 + (-0.0) is +0.0, which the
    # buffered stage sums reproduce
    from plsf.galerkin import _weighted_sum

    ks = np.array([[-0.0, 1.5, -0.0, 0.0], [-0.0, -2.0, 0.0, -0.0], [-0.0, 0.25, -0.0, -0.0]])
    acc, tmp = np.empty(4), np.empty(4)
    for weights in [(0.5,), (0.0, -1.0), (3 / 40, 9 / 40, 0.0), (-1.0, 0.0, 2.0)]:
        expected = sum(w * k for w, k in zip(weights, ks) if w != 0.0)
        assert _weighted_sum(weights, ks, acc, tmp).tobytes() == expected.tobytes()
