import numpy as np
import pytest

from conftest import I_p, hessian, rho_tilde, sym_gradient, trace_free_value
from plsf.basis import full_basis, make_basis
from plsf.constitutive import FluidParams
from plsf.errors import ConfigError, GridMismatchError
from plsf.fields import SpectralVelocity, gradient, lp_norm, random_solenoidal
from plsf.galerkin import GalerkinState, SolverConfig, galerkin_rhs, run_trajectory
from plsf.grid import TorusGrid
from plsf.inequalities import (
    TABLE_KEYS,
    check_ap3,
    check_cl_i,
    check_friedrichs,
    check_interpolations,
    check_lemma1,
    check_lemma3,
    ensemble_fields,
    field_table,
)


@pytest.fixture(scope="module")
def ens3d():
    return list(ensemble_fields(3, 12, 2 * np.pi, band=4, decay=2.0, seed=1, count=60))


@pytest.fixture(scope="module")
def ens3d_fresh():
    return list(ensemble_fields(3, 12, 2 * np.pi, band=4, decay=2.0, seed=901, count=60))


@pytest.fixture(scope="module")
def ens3d_unpadded():
    # dealias 1.0: the padded grid is the native one, and the RHS of the
    # drho_half key takes the skew-symmetric path
    return list(ensemble_fields(3, 10, 2 * np.pi, band=4, decay=2.0, seed=3, count=12,
                                dealias=1.0))


@pytest.fixture(scope="module")
def ens2d():
    return list(ensemble_fields(2, 16, 2 * np.pi, band=5, decay=1.5, seed=2, count=50))


def single_mode_samples(L, M=16):
    grid = TorusGrid(2, M, L)
    basis = make_basis(grid, 2)
    return [basis.entry_field(1)]  # sin mode at |n| = 1


def table(samples, check, arg):
    """The per-field table holding what `check` reads at `arg`."""
    return field_table(samples, TABLE_KEYS[check](arg))


# -- lemma 1 (second derivatives control the lower norms) ----------------------


def test_lemma1_single_mode_exact_ratio():
    # |k| = 2 pi / L; ratio (1 + |k|) / |k|^2 for q = 2
    L = np.pi
    rep = check_lemma1(table(single_mode_samples(L), "lemma1", 2.0), 2.0)
    k = 2 * np.pi / L
    assert rep.worst_ratio == pytest.approx((1 + k) / k**2, rel=1e-10)


def test_lemma1_skips_zero_field():
    grid = TorusGrid(2, 16, 2 * np.pi)
    samples = single_mode_samples(2 * np.pi) + [SpectralVelocity.zero(grid)]
    rep = check_lemma1(table(samples, "lemma1", 1.9), 1.9)
    assert rep.skipped == 1
    assert rep.count == 1


def test_lemma1_no_violations_at_twice_empirical(ens3d, ens3d_fresh):
    calibration = check_lemma1(table(ens3d, "lemma1", 1.9), 1.9)
    rep = check_lemma1(table(ens3d_fresh, "lemma1", 1.9), 1.9,
                       frozen_c=2.0 * calibration.empirical_C)
    assert rep.violations == 0
    # cross-ensemble stability of the constant itself
    assert rep.empirical_C == pytest.approx(calibration.empirical_C, rel=0.2)


def test_lemma1_rejects_bad_exponent(ens2d):
    rows = table(ens2d, "lemma1", 1.0)
    with pytest.raises(ValueError):
        check_lemma1(rows, 1.0)


# -- Friedrichs ------------------------------------------------------------------


def test_friedrichs_single_basis_mode_kappa_one():
    rep = check_friedrichs(table(single_mode_samples(2 * np.pi), "friedrichs", 2.0), 2.0, 0.5)
    assert rep.kappa <= 2  # the mode sits in the first shell


def test_friedrichs_skips_zero_field():
    # the zero field's row has ||u||_2 = 0 and every projection sum 0: its
    # ratio would be 0/0
    grid = TorusGrid(2, 16, 2 * np.pi)
    alone = check_friedrichs(table(single_mode_samples(2 * np.pi), "friedrichs", 2.0), 2.0, 0.5)
    samples = single_mode_samples(2 * np.pi) + [SpectralVelocity.zero(grid)]
    rep = check_friedrichs(table(samples, "friedrichs", 2.0), 2.0, 0.5)
    assert (rep.skipped, rep.count) == (1, 1)
    assert (rep.worst_ratio, rep.kappa) == (alone.worst_ratio, alone.kappa)
    rep = check_friedrichs(table([SpectralVelocity.zero(grid)], "friedrichs", 2.0), 2.0, 0.5)
    assert (rep.skipped, rep.count, rep.worst_ratio, rep.kappa) == (1, 0, 0.0, 1)


def full_sums(samples):
    """0, then the running sums of the squared full-basis coefficients of
    each field, over the whole basis."""
    basis = full_basis(samples[0].grid)
    return [np.concatenate([[0.0], np.cumsum(basis.project(u) ** 2)]) for u in samples]


def linear_scan(lhs, cums, grads, epsilon):
    """Reference on full running sums: try kappa = 1, 2, ... in turn with
    the suite's inequality (the basis size if none holds for every field);
    returns kappa, the right-hand sides at it and the worst ratio."""
    N = len(cums[0]) - 1
    kappa = next((k for k in range(1, N + 1)
                  if all(l <= (1 + epsilon) * c[k] + epsilon * g + 1e-12 * max(l, 1.0)
                         for l, c, g in zip(lhs, cums, grads))), N)
    right = [(1 + epsilon) * c[kappa] + epsilon * g for c, g in zip(cums, grads)]
    return kappa, right, max(l / r for l, r in zip(lhs, right))


def linear_scan_kappa(samples, q, epsilon):
    lhs = [lp_norm(u, 2) ** 2 for u in samples]
    grads = [lp_norm(gradient(u), q) ** 2 for u in samples]
    return linear_scan(lhs, full_sums(samples), grads, epsilon)[0]


def scan_table(rows, samples, q, epsilon):
    """linear_scan on the table's norms and the full running sums."""
    k_u, k_grad, _, _ = TABLE_KEYS["friedrichs"](q)
    return linear_scan([row[k_u] ** 2 for row in rows], full_sums(samples),
                       [row[k_grad] ** 2 for row in rows], epsilon)


@pytest.mark.parametrize("epsilon", [0.2, 0.05, 0.01])
@pytest.mark.parametrize("name", ["ens2d", "ens3d"])
def test_friedrichs_kappa_matches_linear_scan(request, name, epsilon):
    samples = request.getfixturevalue(name)
    rep = check_friedrichs(table(samples, "friedrichs", 1.9), 1.9, epsilon)
    assert rep.kappa == linear_scan_kappa(samples, 1.9, epsilon)


@pytest.mark.parametrize("epsilon", [0.2, 0.05, 0.01])
@pytest.mark.parametrize("name", ["ens2d", "ens3d"])
def test_friedrichs_cut_sums_match_full_sums(request, name, epsilon):
    # the table keeps each field's running sums only up to its last nonzero
    # coefficient; kappa, the right-hand sides and the worst ratio are those
    # of the full sums bit for bit
    samples = request.getfixturevalue(name)
    rows = table(samples, "friedrichs", 1.9)
    rep = check_friedrichs(rows, 1.9, epsilon)
    assert (rep.kappa, rep.right, rep.worst_ratio) == scan_table(rows, samples, 1.9, epsilon)


def test_friedrichs_cut_sums_edge_cases():
    g = TorusGrid(2, 16, 2 * np.pi)
    basis = full_basis(g)
    first_shell = np.zeros(basis.size)
    first_shell[: np.searchsorted(basis.eigenvalues, basis.eigenvalues[0], "right")] = 1.0
    fields = {
        # every coefficient nonzero: the cut keeps the whole basis
        "full": basis.synthesize(np.random.default_rng(3).standard_normal(basis.size)),
        "single shell": basis.synthesize(first_shell),
    }
    k_u, _, k_cum, k_size = TABLE_KEYS["friedrichs"](1.9)
    rows = table(list(fields.values()), "friedrichs", 1.9)
    assert [len(row[k_cum]) for row in rows] == [basis.size + 1, int(first_shell.sum()) + 1]
    assert all(row[k_size] == basis.size for row in rows)
    # no nonzero coefficient: one sum is kept
    assert list(table([SpectralVelocity.zero(g)], "friedrichs", 1.9)[0][k_cum]) == [0.0, 0.0]
    for name, u, row in zip(fields, fields.values(), rows):
        for epsilon in (0.5, 1e-3):
            rep = check_friedrichs([row], 1.9, epsilon)
            assert (rep.kappa, rep.right, rep.worst_ratio) == scan_table(
                [row], [u], 1.9, epsilon), name
    # a row whose bound holds at no kappa, its norm inflated past its
    # coefficients: kappa is the basis size, read past the end of the cut sums
    u = fields["single shell"]
    never = dict(rows[1])
    never[k_u] *= 2.0
    rep = check_friedrichs([never], 1.9, 1e-3)
    assert rep.kappa == basis.size > len(never[k_cum])
    assert (rep.kappa, rep.right, rep.worst_ratio) == scan_table([never], [u], 1.9, 1e-3)


def test_friedrichs_single_mode_kappa_matches_linear_scan():
    samples = single_mode_samples(2 * np.pi)
    rows = table(samples, "friedrichs", 2.0)
    for epsilon in (0.5, 1e-3):
        rep = check_friedrichs(rows, 2.0, epsilon)
        assert rep.kappa == linear_scan_kappa(samples, 2.0, epsilon)


def test_friedrichs_kappa_monotone_in_epsilon(ens2d):
    rows = table(ens2d, "friedrichs", 1.9)
    r1 = check_friedrichs(rows, 1.9, 0.2)
    r2 = check_friedrichs(rows, 1.9, 0.1)
    r3 = check_friedrichs(rows, 1.9, 0.05)
    assert r1.kappa <= r2.kappa <= r3.kappa


def test_friedrichs_terminates_at_exponent_boundary(ens2d):
    q = 1.2 + 1e-6
    rep = check_friedrichs(table(ens2d, "friedrichs", q), q, 0.05)
    assert rep.kappa <= 2 * (16 // 2 - 1 + 16 // 2 - 1) ** 2  # finite, within band


def test_friedrichs_rejects_low_exponent(ens2d):
    rows = table(ens2d, "friedrichs", 1.1)
    with pytest.raises(ValueError):
        check_friedrichs(rows, 1.1, 0.1)


# -- lemma 3 ----------------------------------------------------------------------


def test_lemma3_zero_field_sd4_volume_ratio():
    grid = TorusGrid(3, 12, 2 * np.pi)
    params = FluidParams(1.85, 0.7)
    sd1, sd4, sd2 = check_lemma3(table([SpectralVelocity.zero(grid)], "lemma3", params),
                                 params)
    # u = 0: SD4 reads mu^(p/4) L^(d/2) <= c mu^(p/4)
    assert sd4.worst_ratio == pytest.approx((2 * np.pi) ** 1.5, rel=1e-10)
    assert sd1.worst_ratio == 0.0  # left side vanishes with u


def test_lemma3_p_near_two_collapses_sd1(ens3d):
    # p -> 2: SD1 approaches ||D^2 u||_2 <= c I_2(u)^(1/2) = c ||grad D u||_2
    params = FluidParams(2.0, 1.0)
    sd1, _, _ = check_lemma3(table(ens3d, "lemma3", params), params)
    sample = ens3d[0]
    lhs = lp_norm(hessian(sample), 2.0, grid=sample.grid)
    rhs = np.sqrt(I_p(sample, FluidParams(2.0, 1.0)))
    assert sd1.left[0] == pytest.approx(lhs, rel=1e-12)
    # the shifted-strain factor carries exponent 0 at p = 2
    assert sd1.right[0] == pytest.approx(rhs, rel=1e-12)


def test_lemma3_constants_stable_across_ensembles(ens3d, ens3d_fresh):
    params = FluidParams(1.85, 1.0)
    for a, b in zip(check_lemma3(table(ens3d, "lemma3", params), params),
                    check_lemma3(table(ens3d_fresh, "lemma3", params), params)):
        assert a.empirical_C == pytest.approx(b.empirical_C, rel=0.2)


def test_lemma3_mu_independence_surrogate(ens3d):
    constants = {"SD1": [], "SD4": [], "SD2": []}
    for mu in (1e-2, 1.0, 1e2):
        params = FluidParams(1.85, mu)
        for rep in check_lemma3(table(ens3d, "lemma3", params), params):
            constants[rep.id].append(rep.empirical_C)
    for name, vals in constants.items():
        assert max(vals) / min(vals) < 2.0, name


def test_lemma3_requires_positive_mu(ens3d):
    rows = table(ens3d, "lemma3", FluidParams(1.85, 1.0))
    with pytest.raises(ValueError):
        check_lemma3(rows, FluidParams(1.85, 0.0))


# -- interpolation inequalities ------------------------------------------------------


def test_interpolations_exact_constant(ens3d):
    reports = check_interpolations(table(ens3d, "interp", 1.9), 1.9)
    assert reports["c1"].violations == 0
    assert reports["c2"].violations == 0
    assert reports["c1"].worst_ratio <= 1.0 + 1e-10
    assert reports["c2"].worst_ratio <= 1.0 + 1e-10
    assert np.isfinite(reports["d_interp"].empirical_C)
    assert reports["d_interp"].empirical_C > 0


def test_interpolations_degenerate_p2_single_mode():
    # p = 2 degenerate check: ||grad v||_3 <= ||grad v||_6^(1/2) ||grad v||_2^(1/2)
    samples = single_mode_samples(2 * np.pi)
    reports = check_interpolations(table(samples, "interp", 2.0), 2.0)
    assert reports["c1"].worst_ratio <= 1.0 + 1e-12
    v = samples[0]
    G = gradient(v)
    direct = lp_norm(G, 6.0) ** 0.5 * lp_norm(G, 2.0) ** 0.5
    assert reports["c1"].right[0] == pytest.approx(direct, rel=1e-12)


def test_interpolations_zero_field_trivial():
    grid = TorusGrid(2, 16, 2 * np.pi)
    reports = check_interpolations(table([SpectralVelocity.zero(grid)], "interp", 1.9), 1.9)
    assert reports["c1"].violations == 0
    assert reports["c1"].left[0] == 0.0


def test_interpolations_json_contract(ens2d):
    rep = check_interpolations(table(ens2d, "interp", 1.9), 1.9)["c1"]
    js = rep.to_json()
    assert set(js) == {"id", "p", "mu", "count", "worst_ratio", "empirical_C",
                       "frozen_C", "violations"}


# -- CL-I uniformity --------------------------------------------------------------------


@pytest.fixture(scope="module")
def d2_family():
    records = []
    for N in (8, 24, 60):
        cfg = SolverConfig(
            dim=2, M=16, L=2 * np.pi, p=1.9, mu=1.0, N=N, T=0.2, rtol=1e-7,
            sample_dt=5e-3, init_kind="taylor_green", amplitude=1.0,
            record_d2=True,
        )
        records.append(run_trajectory(cfg))
    return records


def test_cl_i_requires_d2_channel():
    cfg = SolverConfig(dim=2, M=16, N=8, T=0.05, sample_dt=0.05, rtol=1e-6)
    rec = run_trajectory(cfg)
    with pytest.raises(ConfigError) as exc:
        check_cl_i([rec], 1.9)
    assert "d2_p_norm" in str(exc.value)


def test_cl_i_uniform_family(d2_family):
    report = check_cl_i(d2_family, 1.9)
    assert report["uniform"]
    assert report["beta_variant_used"] == "statement"
    for row in report["per_N"]:
        assert row["integral_beta_statement"] > 0
        assert row["integral_beta_proof"] > 0
        assert np.isfinite(row["integral_beta_statement"])
        assert np.isfinite(row["integral_beta_proof"])


def test_cl_i_zero_initial_data():
    cfg = SolverConfig(
        dim=2, M=16, N=8, T=0.05, rtol=1e-6, sample_dt=0.025,
        init_kind="random_band", band=3, amplitude=0.0, record_d2=True,
    )
    rec = run_trajectory(cfg)
    report = check_cl_i([rec, rec], 1.9)
    for row in report["per_N"]:
        assert row["integral_beta_statement"] == 0.0


# -- instantaneous differential inequality -------------------------------------------


def test_ap3_zero_state():
    grid = TorusGrid(2, 16, 2 * np.pi)
    params = FluidParams(1.9, 1.0)
    report = check_ap3(table([SpectralVelocity.zero(grid)], "ap3", params), params)
    assert report["violations"] == 0


def test_ap3_newtonian_single_mode_strict():
    params = FluidParams(2.0, 1.0)
    report = check_ap3(table(single_mode_samples(2 * np.pi), "ap3", params), params)
    assert report["violations"] == 0
    row = report["rows"][0]
    # the stress and strain contributions cancel; the bound is strict
    assert abs(row["lhs"]) < 1e-8 * max(1.0, row["rhs"])
    assert row["rhs"] > 0
    assert row["margin"] > 0


def test_ap3_random_states_no_violations(ens2d, ens3d):
    params = FluidParams(1.9, 1.0)
    for ens in (ens2d, ens3d):
        report = check_ap3(table(ens, "ap3", params), params)
        assert report["violations"] == 0


def test_ap3_requires_positive_mu(ens2d):
    rows = table(ens2d, "ap3", FluidParams(1.9, 1.0))
    with pytest.raises(ValueError):
        check_ap3(rows, FluidParams(1.9, 0.0))


def test_sd3_strain_controlled_by_hessian(ens3d, ens3d_fresh):
    # proof tool of the second-derivative lemma: ||Du||_p <= c ||D^2 u||_p
    def empirical(ens):
        ratios = []
        for u in ens:
            num = lp_norm(sym_gradient(u), 1.85)
            den = lp_norm(hessian(u), 1.85, grid=u.grid)
            if den > 0:
                ratios.append(num / den)
        return max(ratios)

    c_a, c_b = empirical(ens3d), empirical(ens3d_fresh)
    assert np.isfinite(c_a)
    assert c_a == pytest.approx(c_b, rel=0.2)


# -- the per-field table ----------------------------------------------------------


def every_key(p, mu):
    q = max(p, 1.3)
    keys = [k for arg in (p, q) for check in ("lemma1", "friedrichs")
            for k in TABLE_KEYS[check](arg)]
    keys += TABLE_KEYS["interp"](p)
    for m in (1e-2, 1.0, 1e2, mu):
        keys += TABLE_KEYS["lemma3"](FluidParams(p, m))
    return keys + TABLE_KEYS["ap3"](FluidParams(p, mu))


def oracle_value(u, key, basis):
    """What the per-suite loops computed from per-field calls, on the test
    oracle's full-channel forms."""
    name, arg = key
    if name == "u":
        return lp_norm(u, arg)
    if name == "grad":
        return lp_norm(gradient(u), arg)
    if name == "hess":
        return lp_norm(hessian(u), arg, grid=u.grid)
    if name == "I_p":
        return I_p(u, arg)
    if name == "rho_tilde":
        return rho_tilde(u, arg)
    if name == "shifted":
        D = sym_gradient(u)
        shifted = np.sqrt(arg.mu + np.sum(D.values**2, axis=(0, 1)))
        return lp_norm(shifted, arg.p, grid=u.grid)
    if name == "basis_size":
        return basis.size
    c = basis.project(u)
    if name == "proj_cumsum":
        return np.concatenate([[0.0], np.cumsum(c**2)])
    assert name == "drho_half"
    cdot = galerkin_rhs(GalerkinState(basis, c, 0.0), arg)
    return float(np.dot(basis.eigenvalues * c, cdot))


# the keys read from the trace-free channels of the padded-grid kernel
TRACE_FREE = ("grad", "shifted", "rho_tilde", "I_p")


@pytest.mark.parametrize("name", ["ens2d", "ens3d", "ens3d_unpadded"])
def test_table_matches_per_suite_oracle(request, name):
    # equality, not a tolerance, where the walk transforms what the loops
    # transformed and must keep their summation order; the trace-free keys
    # agree to rounding (their exact oracle is the next test's)
    samples = request.getfixturevalue(name)
    keys = every_key(1.9, 0.5) + [("rho_tilde", FluidParams(1.9, 0.5))]
    rows = field_table(samples, keys)
    basis = full_basis(samples[0].grid)
    assert len(rows) == len(samples)
    for u, row in zip(samples, rows):
        fresh = SpectralVelocity(u.grid, u.coeffs, validate=False)
        assert set(row) == set(keys)
        for key in keys:
            expected = oracle_value(fresh, key, basis)
            if key[0] == "proj_cumsum":
                # the sums up to the last nonzero coefficient, and past it
                # the oracle's are all the last one
                cut = row[key]
                last = np.flatnonzero(basis.project(fresh))[-1]
                assert len(cut) == last + 2, key
                assert np.array_equal(cut, expected[: len(cut)]), key
                assert np.all(expected[len(cut) :] == cut[-1]), key
            elif key[0] in TRACE_FREE:
                assert row[key] == pytest.approx(expected, rel=1e-14), key
            else:
                assert row[key] == expected, key


@pytest.mark.parametrize("name", ["ens2d", "ens3d", "ens3d_unpadded"])
def test_table_matches_trace_free_oracle(request, name):
    samples = request.getfixturevalue(name)
    keys = [key for key in every_key(1.9, 0.5) + [("rho_tilde", FluidParams(1.9, 0.5))]
            if key[0] not in ("proj_cumsum", "drho_half", "basis_size")]
    rows = field_table(samples, keys)
    for u, row in zip(samples, rows):
        fresh = SpectralVelocity(u.grid, u.coeffs, validate=False)
        assert row == {key: trace_free_value(fresh, key) for key in keys}


def test_table_leaves_no_derivative_cache_on_the_fields():
    ens = list(ensemble_fields(3, 8, 2 * np.pi, band=3, decay=2.0, seed=4, count=3))
    rows = field_table(ens, every_key(1.85, 1.0))
    assert len(rows) == 3
    for u in ens:
        assert set(vars(u)) == {"grid", "coeffs"}


def test_table_transforms_each_field_once(monkeypatch):
    # 2D dealiased, per field: v 2, grad v 3 (no d_2 v_2), grad D 4 (the
    # pairs but (2, 2)), the Hessian's upper triangle 6 and the RHS 4,
    # whatever the number of keys
    import plsf.inequalities as ineq_mod

    channels, basis_calls = [], []
    to_physical = TorusGrid.to_physical

    def counted(self, coeffs, **buffers):
        channels.append(int(np.prod(coeffs.shape[: coeffs.ndim - self.dim])))
        return to_physical(self, coeffs, **buffers)

    def full(grid):
        basis_calls.append(grid)
        return full_basis(grid)

    ens = list(ensemble_fields(2, 16, 2 * np.pi, band=4, decay=2.0, seed=6, count=5))
    keys = every_key(1.9, 1.0) + TABLE_KEYS["lemma1"](1.5)  # a second Hessian norm
    monkeypatch.setattr(TorusGrid, "to_physical", counted)
    monkeypatch.setattr(ineq_mod, "full_basis", full)
    field_table(ens, keys)
    assert sum(channels) == 19 * 5
    assert len(basis_calls) == 1


def test_table_forms_only_what_its_keys_read(monkeypatch):
    channels = []
    to_physical = TorusGrid.to_physical

    def counted(self, coeffs, **buffers):
        channels.append(int(np.prod(coeffs.shape[: coeffs.ndim - self.dim])))
        return to_physical(self, coeffs, **buffers)

    ens = list(ensemble_fields(3, 8, 2 * np.pi, band=3, decay=2.0, seed=2, count=2))
    monkeypatch.setattr(TorusGrid, "to_physical", counted)
    for keys, per_field in (
        ([("u", 2.0)], 3),
        ([("grad", 3.0), ("grad", 5.7)], 8),  # d_3 u_3 = -d_1 u_1 - d_2 u_2
        ([("shifted", FluidParams(1.9, 1.0))], 8),  # |Du|^2 from grad u
        ([("hess", 1.9)], 18),
        ([("proj_cumsum", None)], 0),
    ):
        channels.clear()
        field_table(ens, keys)
        assert sum(channels) == per_field * 2, keys


def test_warm_table_row_allocates_no_padded_grid():
    # a warm row works in the full basis's arena: its magnitudes allocate
    # nothing grid-sized, and the projection and the RHS only basis-length
    # vectors (each about 0.5 padded channels here)
    import tracemalloc

    from plsf.inequalities import table_row

    ens = list(ensemble_fields(3, 12, 2 * np.pi, band=4, decay=2.0, seed=7, count=2))
    basis = full_basis(ens[0].grid)
    keys = list(dict.fromkeys(every_key(1.9, 1.0)))
    padded = [key for key in keys if key[0] not in ("proj_cumsum", "drho_half")]
    channel = 8 * basis.grid.padded_M**3
    table_row(ens[0], keys, basis)
    for row_keys, bound in ((padded, channel), (keys, 4 * channel)):
        tracemalloc.start()
        try:
            table_row(ens[1], row_keys, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, len(row_keys)


def test_table_rejects_fields_on_another_grid():
    # the rows share the arena of the first field's full basis; a field on
    # a torus of another size would read its wavevectors, also one met in
    # the middle of a stream
    ens = list(ensemble_fields(2, 16, 2 * np.pi, band=3, decay=2.0, seed=1, count=1))
    other = list(ensemble_fields(2, 16, np.pi, band=3, decay=2.0, seed=1, count=1))
    with pytest.raises(GridMismatchError):
        field_table(ens + other, [("grad", 2.0)])

    def stream():
        yield from ensemble_fields(2, 16, 2 * np.pi, band=3, decay=2.0, seed=1, count=2)
        yield from other
        raise AssertionError("the stream was read past the mismatched field")

    with pytest.raises(GridMismatchError):
        field_table(stream(), [("grad", 2.0)])


def drawn_up_front(dim, M, L, band, decay, seed, count, amplitude=1.0, amp_spread=2.0):
    """Reference ensemble: every amplitude, then every field drawn at once,
    field i from child i + 1 of the seed sequence."""
    grid = TorusGrid(dim, M, L)
    children = np.random.SeedSequence(seed).spawn(count + 1)
    amps = amplitude * 10.0 ** np.random.default_rng(children[0]).uniform(
        -amp_spread, amp_spread, size=count)
    return [random_solenoidal(grid, band=band, decay=decay, amplitude=float(amps[i]),
                              seed=np.random.default_rng(children[i + 1]))
            for i in range(count)]


@pytest.mark.parametrize("dim, M, band", [(2, 16, 5), (3, 8, 3)])
def test_streamed_fields_equal_the_ensemble(dim, M, band):
    args = (dim, M, 2 * np.pi, band, 2.0, 11, 6)
    stream = ensemble_fields(*args)
    assert iter(stream) is stream  # drawn as iterated, not a list
    want = list(ensemble_fields(*args))
    ref = drawn_up_front(*args)
    got = list(stream)
    assert len(got) == len(want) == len(ref) == 6
    for u, v, w in zip(got, want, ref):
        assert u.coeffs.tobytes() == v.coeffs.tobytes() == w.coeffs.tobytes()


@pytest.mark.parametrize("dim, M, band", [(2, 16, 5), (3, 8, 3)])
def test_table_of_a_stream_equals_the_table_of_the_list(dim, M, band):
    args = (dim, M, 2 * np.pi, band, 2.0, 4, 5)
    keys = every_key(1.9, 1.0)
    listed = field_table(list(ensemble_fields(*args)), keys)
    streamed = field_table(ensemble_fields(*args), keys)
    assert len(streamed) == len(listed) == 5
    for a, b in zip(streamed, listed):
        assert list(a) == list(b)
        for key in a:
            if key[0] == "proj_cumsum":
                assert np.array_equal(a[key], b[key]), key
            else:
                assert a[key] == b[key], key
    assert field_table(ensemble_fields(*args[:-1], 0), keys) == []


def test_table_memory_does_not_grow_with_count():
    # the pass holds at most two fields, and a row only its scalars and its
    # cut running sums: from 8 fields to 32, every key included, the table
    # it returns grows by under 3.3 KB a row (it reads 3.0 KB; one field's
    # coefficients are 8.2 KB), the traced peak of drawing and tabulating
    # them grows by at most 1.15x what that table grows (it reads 1.09x),
    # and the peak above the table stays within 1.05x.  The growths are
    # bounded rather than the peak against the peak, so that the size of
    # the basis and its arena, which every count pays once, does not set
    # the bound (with every field held and every row's sums over the whole
    # basis the peaks read about 1.8x apart, and the peaks above the table
    # 1.6x)
    import tracemalloc

    keys = every_key(1.9, 1.0)
    args = dict(dim=3, M=8, L=2 * np.pi, band=3, decay=2.0, seed=8)
    field_table(ensemble_fields(count=2, **args), keys)  # fill the per-grid caches
    peak, held, above = {}, {}, {}
    for count in (8, 32):
        tracemalloc.start()
        try:
            rows = field_table(ensemble_fields(count=count, **args), keys)
            held[count], peak[count] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == count
        above[count] = peak[count] - held[count]
        del rows
    assert held[32] - held[8] < 3300 * (32 - 8), held
    assert peak[32] - peak[8] < 1.15 * (held[32] - held[8]), (peak, held)
    assert above[32] < 1.05 * above[8], above


def test_table_rejects_I_p_without_mu(ens2d):
    with pytest.raises(ValueError):
        field_table(ens2d, [("grad", 2.0), ("I_p", FluidParams(1.9, 0.0))])


def test_table_takes_two_rho_tilde_laws(ens2d):
    # rho_tilde reads |Du|^2 and leaves Du as it was, so each law in one
    # call gets its value from a call of its own
    laws = [FluidParams(1.9, 1.0), FluidParams(1.9, 0.0), FluidParams(1.7, 0.5)]
    both = field_table(ens2d[:3], [("rho_tilde", law) for law in laws])
    for law in laws:
        alone = field_table(ens2d[:3], [("rho_tilde", law)])
        assert [row["rho_tilde", law] for row in both] == [row["rho_tilde", law] for row in alone]


def test_nan_mu_rejected_before_any_check(ens2d):
    rows = table(ens2d, "ap3", FluidParams(1.9, 1.0))
    with pytest.raises(ValueError):
        check_ap3(rows, FluidParams(1.9, float("nan")))
    with pytest.raises(ValueError):
        check_lemma3(rows, FluidParams(1.9, float("nan")))
