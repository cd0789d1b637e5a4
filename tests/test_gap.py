import math

import numpy as np
import pytest

from plsf.errors import InsufficientFamilyError
from plsf.galerkin import SolverConfig, TrajectoryRecord, run_trajectory
from plsf.gap import (
    PLATEAU_RTOL,
    _beta_balance,
    beta_proof_formula,
    beta_statement_formula,
    dissipation_form,
    energy_residual,
    energy_residual_over,
    exceedance_partition,
    exponents,
    gap_estimate,
    gap_report_json,
    jump_form,
    lemma5_functional,
    lemma5_monotone_bound,
    measure_bound_check,
    weight_P,
    weighted_energy_residual,
)


def synthetic_record(times, rho, energy=None, rho_tilde=None, N=1):
    times = np.asarray(times, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if energy is None:
        energy = np.exp(-times)
    if rho_tilde is None:
        rho_tilde = 0.5 * np.exp(-times)
    return TrajectoryRecord(
        p=1.9, mu=1.0, N=N, times=times, energy=energy, rho=rho,
        rho_tilde=rho_tilde, grad_p_norm=np.sqrt(rho), Ip=rho,
    )


# -- exponent table -------------------------------------------------------------


def test_exponents_boundary_p2():
    t = exponents(2.0)
    assert t.zeta == pytest.approx(3.0, abs=1e-14)
    assert t.gamma == pytest.approx(2.0, abs=1e-14)
    assert t.lam == pytest.approx(2.0, abs=1e-14)
    assert t.b == pytest.approx(0.5, abs=1e-14)
    assert t.c_interp == pytest.approx(0.5, abs=1e-14)
    assert t.d == pytest.approx(0.5, abs=1e-14)
    assert not t.valid_full
    assert "p < 2" in t.violation


def test_exponents_lower_boundary():
    t = exponents(1.8 + 1e-9)
    assert t.zeta == pytest.approx(6.0, rel=1e-7)
    assert t.gamma == pytest.approx(5.0, rel=1e-7)


def test_exponents_out_of_range_named():
    t = exponents(1.7)
    assert not t.valid_full
    assert t.valid_zeta_only
    assert "p > 9/5" in t.violation


@pytest.mark.parametrize("p", [1.81, 1.85, 1.9, 1.95, 1.99])
def test_exponent_interval_invariants(p):
    t = exponents(p)
    assert t.valid_full
    assert 3.0 < t.zeta < 6.0
    assert 2.0 < t.gamma < 5.0
    assert t.lam > 1.0 and t.zeta > 1.0
    assert 0.5 < t.b < 0.6
    assert 0.5 < t.c_interp < 9.0 / 17.0 + 1e-12
    assert 0.5 < t.d < 9.0 / 16.0


@pytest.mark.parametrize("p", [1.81, 1.9, 1.99])
def test_beta_balance_selects_exactly_one_variant(p):
    t = exponents(p)
    d_stmt = abs(t.beta_statement - t.beta_balance)
    d_proof = abs(t.beta_proof - t.beta_balance)
    assert t.beta_variant == "statement"
    assert d_stmt < 1e-10
    assert d_proof > 1e-3  # the other variant is clearly not the balance root
    assert t.beta_statement == pytest.approx(beta_statement_formula(p), abs=1e-15)
    assert t.beta_proof == pytest.approx(beta_proof_formula(p), abs=1e-15)
    assert 0.0 < t.beta < 1.0


@pytest.mark.parametrize("p", [1.7, 1.75, 1.8, 3.0, 10.0])
def test_beta_balance_undefined_without_root_in_unit_interval(p):
    t = exponents(p)
    assert math.isnan(t.beta_balance)
    assert t.beta_variant == "undefined"


def test_beta_balance_flat_balance_is_undefined():
    # at p = 4 + sqrt(7), 1 + A = 0: the balance does not depend on beta
    assert math.isnan(_beta_balance(4.0 + math.sqrt(7.0)))


def _pole(shift):
    # a float p at which -p^2 + 8p - shift rounds to exactly 0.0
    root = 4.0 + math.sqrt(16.0 - shift)
    for direction in (math.inf, -math.inf):
        p = root
        for _ in range(64):
            if -p * p + 8 * p - shift == 0.0:
                return p
            p = math.nextafter(p, direction)
    raise AssertionError("no exact float pole found")


@pytest.mark.parametrize("shift", [9.0, 6.0], ids=["statement", "proof"])
def test_exponents_at_beta_formula_poles(shift):
    p = _pole(shift)
    t = exponents(p)
    assert t.beta_variant == "undefined"
    assert math.isnan(t.beta_statement if shift == 9.0 else t.beta_proof)


def test_beta_balance_at_p2():
    assert exponents(2.0).beta_balance == pytest.approx(1.0 / 3.0, abs=1e-15)


@pytest.mark.parametrize("p", np.linspace(1.81, 1.99, 19))
def test_beta_balance_solves_balance_condition(p):
    lam = 2.0 * (3.0 - p) / (3.0 * p - 5.0)
    inv_delta_coef = (2.0 - p) / p + (5.0 * p - 6.0) * lam / (p * p)
    inv_delta_prime = 3.0 * lam * (2.0 - p) / (2.0 * p)
    beta = exponents(p).beta_balance
    lhs = (inv_delta_coef * beta + inv_delta_prime) / (1.0 - beta)
    assert lhs == pytest.approx(1.0, abs=1e-14)


# -- weight function --------------------------------------------------------------


def test_exponents_dim_warning():
    assert exponents(1.9).dim_warning is None
    t2 = exponents(1.9, dim=2)
    assert t2.dim_warning is not None
    assert "dim = 3" in t2.dim_warning


def test_weight_below_threshold_is_one():
    assert weight_P(0.7, 0.5, 2.0) == 1.0
    thr = np.tan(0.7) ** (1 / 2.0)
    assert weight_P(0.7, thr * 0.999999, 2.0) == 1.0


def test_weight_decays_to_zero():
    assert weight_P(0.3, 1e8, 2.0) < 1e-7


def test_weight_closed_form_point():
    # alpha = pi/4, rho^gamma = tan(pi/3): (pi - 2 pi/3) / (pi/2) = 2/3
    rho = np.tan(np.pi / 3)
    assert weight_P(np.pi / 4, rho, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_weight_domain_errors():
    with pytest.raises(ValueError):
        weight_P(np.pi / 2, 1.0, 2.0)
    with pytest.raises(ValueError):
        weight_P(0.5, -1.0, 2.0)


def test_weight_properties_on_random_samples():
    rng = np.random.default_rng(1)
    for _ in range(200):
        alpha = rng.uniform(0, np.pi / 2 - 1e-6)
        gamma = rng.uniform(1.0, 5.0)
        rho = np.sort(rng.uniform(0, 20, size=32))
        vals = weight_P(alpha, rho, gamma)
        assert np.all(vals > 0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) <= 1e-15)  # nonincreasing in rho
        thr = np.tan(alpha) ** (1 / gamma)
        eps = 1e-9 * max(thr, 1.0)
        lo, hi = weight_P(alpha, max(thr - eps, 0.0), gamma), weight_P(alpha, thr + eps, gamma)
        assert abs(lo - hi) < 1e-6  # continuous across the threshold


# -- exceedance partitions ---------------------------------------------------------


def test_partition_empty_when_below_threshold():
    ts = np.linspace(0, 1, 101)
    rec = synthetic_record(ts, np.full_like(ts, 0.5))
    part = exceedance_partition(rec, 0.0, 1.0, np.arctan(2.0), 1.0)
    assert part.intervals == ()
    assert part.admissible
    assert part.total_measure == 0.0


def test_partition_saturated_when_above_threshold():
    ts = np.linspace(0, 1, 101)
    rec = synthetic_record(ts, np.full_like(ts, 5.0))
    part = exceedance_partition(rec, 0.0, 1.0, np.arctan(2.0), 1.0)
    assert len(part.intervals) == 1
    iv = part.intervals[0]
    assert iv.start == 0.0 and iv.end == 1.0
    assert iv.left_truncated and iv.right_truncated
    assert not part.admissible


def test_partition_domain_error():
    ts = np.linspace(0, 1, 11)
    rec = synthetic_record(ts, np.ones_like(ts))
    with pytest.raises(ValueError):
        exceedance_partition(rec, 0.5, 0.5, 0.3, 1.0)


def sin_crossings(A, B, omega, phase, level, t0, t1):
    """Closed-form solutions of A + B sin(omega t + phase) = level."""
    target = (level - A) / B
    out = []
    k0 = int(np.floor((omega * t0 + phase) / (2 * np.pi))) - 1
    k1 = int(np.ceil((omega * t1 + phase) / (2 * np.pi))) + 1
    for k in range(k0, k1 + 1):
        for base in (math.asin(target), np.pi - math.asin(target)):
            t = (base - phase + 2 * np.pi * k) / omega
            if t0 < t < t1:
                out.append(t)
    return sorted(out)


def test_partition_matches_arcsine_oracle():
    gamma = 2.5
    A, B, omega, phase = 2.0, 1.2, 2 * np.pi * 2.3, 0.7
    ts = np.linspace(0.0, 1.0, 20001)
    rho = A + B * np.sin(omega * ts + phase)
    rec = synthetic_record(ts, rho)
    level = 2.4  # rho threshold, away from the extrema
    alpha = float(np.arctan(level**gamma))
    part = exceedance_partition(rec, 0.0, 1.0, alpha, gamma)
    expected = sin_crossings(A, B, omega, phase, level, 0.0, 1.0)
    got = [x for iv in part.intervals for x in (iv.start, iv.end)
           if 0.0 < x < 1.0]
    assert len(got) == len(expected)
    assert max(abs(a - b) for a, b in zip(got, expected)) < 1e-8


def test_partition_endpoints_sit_on_threshold():
    gamma = 2.0
    ts = np.linspace(0.0, 1.0, 5001)
    rho = 1.0 + 0.8 * np.sin(2 * np.pi * 3 * ts)
    rec = synthetic_record(ts, rho)
    alpha = float(np.arctan(1.3**gamma))
    part = exceedance_partition(rec, 0.0, 1.0, alpha, gamma)
    assert part.intervals
    # crossings live on the piecewise-linear interpolant of rho^gamma
    y_samples = rho**gamma
    for iv in part.intervals:
        for x, trunc in ((iv.start, iv.left_truncated), (iv.end, iv.right_truncated)):
            if not trunc:
                y = np.interp(x, ts, y_samples)
                assert y == pytest.approx(part.threshold, rel=1e-9)


def test_partition_brute_force_linear_solve_oracle():
    rng = np.random.default_rng(7)
    gamma = 3.0
    for _ in range(25):
        ts = np.linspace(0, 1, 2001)
        rho = 1.0 + rng.uniform(0.3, 1.0) * np.sin(
            2 * np.pi * rng.uniform(1, 4) * ts + rng.uniform(0, 6)
        )
        rec = synthetic_record(ts, rho)
        level = rng.uniform(1.05, 1.25)
        thr = level**gamma
        alpha = float(np.arctan(thr))
        part = exceedance_partition(rec, 0.0, 1.0, alpha, gamma)
        # independent path: direct linear solve on each sign-change segment
        y = rho**gamma
        expected = []
        for i in range(len(ts) - 1):
            a, b = y[i] - thr, y[i + 1] - thr
            if (a > 0) != (b > 0):
                expected.append(ts[i] + (ts[i + 1] - ts[i]) * (-a) / (b - a))
        got = [x for iv in part.intervals for x in (iv.start, iv.end)
               if 0.0 < x < 1.0]
        assert len(got) == len(expected)
        if got:
            assert max(abs(g - e) for g, e in zip(got, expected)) < 1e-9


def partition_oracle(times, y, thr, s, t):
    """Segment-by-segment walk over the piecewise-linear interpolant of y on
    [s, t], with each crossing solved on its segment in closed form.
    Returns ([(start, end, left_truncated, right_truncated)], admissible)."""
    inside = [k for k in range(len(times)) if s < times[k] < t]
    ts = [s] + [times[k] for k in inside] + [t]
    ys = [np.interp(s, times, y)] + [y[k] for k in inside] + [np.interp(t, times, y)]
    intervals = []
    start, left = (s, True) if ys[0] > thr else (None, False)
    for k in range(len(ts) - 1):
        if (ys[k] > thr) == (ys[k + 1] > thr):
            continue
        x = ts[k] + (thr - ys[k]) * (ts[k + 1] - ts[k]) / (ys[k + 1] - ys[k])
        x = min(max(x, ts[k]), ts[k + 1])
        if ys[k + 1] > thr:
            start, left = x, False
        else:
            intervals.append((start, x, left, False))
            start = None
    if start is not None:
        intervals.append((start, t, left, True))
    return intervals, not ys[0] > thr and not ys[-1] > thr


def assert_matches_oracle(times, rho, alpha, s, t, gamma=1.0):
    rec = synthetic_record(times, rho)
    part = exceedance_partition(rec, s, t, alpha, gamma)
    want, admissible = partition_oracle(rec.times, rec.rho**gamma, part.threshold, s, t)
    got = [(iv.start, iv.end, iv.left_truncated, iv.right_truncated)
           for iv in part.intervals]
    assert got == want
    assert part.admissible == admissible
    return part


ALPHA = 0.9
THR = float(np.tan(ALPHA))  # with gamma = 1 a sample equal to THR sits on the threshold


def test_partition_sample_exactly_on_threshold():
    ts = np.linspace(0.0, 1.0, 6)
    rho = np.array([0.5, 2.0, THR, 0.5, THR, 2.0 * THR])
    part = assert_matches_oracle(ts, rho, ALPHA, 0.0, 1.0)
    # the on-threshold sample ends the first interval; the second starts there
    assert part.intervals[0].end == ts[2]
    assert part.intervals[1].start == ts[4]
    assert part.intervals[1].right_truncated and not part.admissible


def test_partition_touch_without_crossing():
    ts = np.linspace(0.0, 1.0, 5)
    below = assert_matches_oracle(ts, np.array([0.5, 0.8, THR, 0.8, 0.5]), ALPHA, 0.0, 1.0)
    assert below.intervals == () and below.admissible
    above = assert_matches_oracle(ts, np.array([0.5, 2.0, THR, 2.0, 0.5]), ALPHA, 0.0, 1.0)
    # touching from above splits the set at the touch point
    assert len(above.intervals) == 2
    assert above.intervals[0].end == above.intervals[1].start == ts[2]


def test_partition_both_ends_above():
    ts = np.linspace(0.0, 1.0, 101)
    rho = THR + np.cos(2 * np.pi * ts)
    part = assert_matches_oracle(ts, rho, ALPHA, 0.0, 1.0)
    assert len(part.intervals) == 2
    first, last = part.intervals
    assert first.start == 0.0 and first.left_truncated and not first.right_truncated
    assert last.end == 1.0 and last.right_truncated and not last.left_truncated
    assert not part.admissible


def test_partition_single_interval_truncated_both_sides():
    ts = np.linspace(0.0, 1.0, 11)
    rho = THR + 1.0 + 0.5 * np.sin(7 * ts)
    part = assert_matches_oracle(ts, rho, ALPHA, 0.25, 0.75)
    assert len(part.intervals) == 1
    iv = part.intervals[0]
    assert (iv.start, iv.end) == (0.25, 0.75)
    assert iv.left_truncated and iv.right_truncated


def test_partition_window_off_the_sample_grid():
    ts = np.linspace(0.0, 1.0, 101)
    rho = THR + 0.3 * np.sin(2 * np.pi * 3 * ts + 0.2)
    for s, t in ((0.013, 0.987), (0.0, 0.5049), (0.3333, 1.0), (0.4101, 0.4199)):
        assert_matches_oracle(ts, rho, ALPHA, s, t)


def test_partition_random_quantized_traces_match_oracle():
    # values on a coarse lattice that contains the threshold, so samples on
    # the threshold, touches and flat runs all occur
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        ts = np.sort(rng.choice(np.arange(200), size=n, replace=False)) / 199.0
        rho = THR * rng.integers(0, 5, size=n) / 2.0
        s, t = sorted(rng.uniform(ts[0], ts[-1], size=2))
        if rng.random() < 0.3:
            s, t = ts[0], ts[-1]
        if s < t:
            assert_matches_oracle(ts, rho, ALPHA, float(s), float(t))


def test_partition_monotone_inclusion_in_alpha():
    gamma = 2.0
    ts = np.linspace(0, 1, 4001)
    rho = 1.5 + 1.2 * np.sin(2 * np.pi * 2 * ts + 0.4)
    rec = synthetic_record(ts, rho)
    alphas = [np.arctan(lv**gamma) for lv in (1.6, 1.9, 2.2, 2.5)]
    parts = [exceedance_partition(rec, 0.0, 1.0, a, gamma) for a in alphas]
    tol = 1e-8
    for small, big in zip(parts[1:], parts[:-1]):
        for iv in small.intervals:
            assert any(
                out.start - tol <= iv.start and iv.end <= out.end + tol
                for out in big.intervals
            )


# -- energy residuals ---------------------------------------------------------------


def test_energy_residual_zero_trajectory():
    ts = np.linspace(0, 1, 51)
    rec = synthetic_record(ts, np.zeros_like(ts), energy=np.zeros_like(ts),
                           rho_tilde=np.zeros_like(ts))
    assert energy_residual(rec, 0.0, 1.0) == 0.0


def test_energy_residual_corruption_linearity():
    ts = np.linspace(0, 1, 51)
    energy = np.exp(-2 * ts)
    rho_t = np.exp(-2 * ts)
    rec = synthetic_record(ts, np.ones_like(ts), energy=energy, rho_tilde=rho_t)
    base = energy_residual(rec, 0.0, 1.0)
    delta = 3e-3
    corrupted = energy.copy()
    corrupted[-1] += delta
    rec2 = synthetic_record(ts, np.ones_like(ts), energy=corrupted, rho_tilde=rho_t)
    assert energy_residual(rec2, 0.0, 1.0) == pytest.approx(base + delta, abs=1e-14)


def test_energy_residual_rejects_a_window_outside_the_record():
    # it once held rho_tilde and the energy constant past the last sample
    # and integrated on, where weighted_energy_residual raised
    ts = np.linspace(0, 1, 51)
    rec = synthetic_record(ts, np.ones_like(ts), energy=np.exp(-2 * ts),
                           rho_tilde=np.exp(-2 * ts))
    for s, t in ((0.0, 5.0), (-1.0, 1.0), (0.0, 1.0 + 1e-9)):
        for residual in (energy_residual,
                         lambda r, s, t: weighted_energy_residual(r, s, t, 0.5, 2.0)):
            with pytest.raises(ValueError, match="outside the record span"):
                residual(rec, s, t)
    # the span's own ends, up to 1e-12, are inside
    assert energy_residual(rec, -1e-13, 1.0 + 1e-13) == pytest.approx(
        energy_residual(rec, 0.0, 1.0), rel=1e-8)


@pytest.fixture(scope="module")
def resolved_run():
    cfg = SolverConfig(
        dim=2, M=32, L=2 * np.pi, p=1.9, mu=1.0, T=0.5, rtol=1e-8,
        sample_dt=5e-4, init_kind="taylor_green", amplitude=1.0,
    )
    return run_trajectory(cfg)


def test_energy_residual_resolved_run(resolved_run):
    res = energy_residual(resolved_run, 0.0, 0.5)
    assert res <= 1e-6 * resolved_run.energy[0]


def test_weighted_identity_reduces_when_inactive(resolved_run):
    table = exponents(1.9)
    rho_max = float(np.max(resolved_run.rho))
    alpha = float(np.arctan(2.0 * rho_max**table.gamma))
    weighted = weighted_energy_residual(resolved_run, 0.0, 0.5, alpha, table.gamma)
    plain = energy_residual(resolved_run, 0.0, 0.5)
    assert weighted == pytest.approx(plain, rel=1e-12)


def test_weighted_identity_zero_trajectory():
    ts = np.linspace(0, 1, 51)
    zero = np.zeros_like(ts)
    rec = synthetic_record(ts, zero, energy=zero, rho_tilde=zero)
    assert weighted_energy_residual(rec, 0.0, 1.0, 0.5, 2.0) == 0.0


def test_weighted_identity_active_threshold(resolved_run):
    table = exponents(1.9)
    rho_mid = float(np.quantile(resolved_run.rho, 0.5))
    alpha = float(np.arctan(rho_mid**table.gamma))
    res = weighted_energy_residual(resolved_run, 0.0, 0.5, alpha, table.gamma)
    assert res <= 1e-5 * resolved_run.energy[0]


# -- gap estimate ---------------------------------------------------------------------


def test_gap_estimate_needs_family(resolved_run):
    with pytest.raises(InsufficientFamilyError):
        gap_estimate([resolved_run], 0.0, 0.5, [0.5], 2.0)


@pytest.fixture(scope="module")
def family():
    records = []
    for N in (24, 60, 112):
        cfg = SolverConfig(
            dim=2, M=16, L=2 * np.pi, p=1.9, mu=1.0, N=N, T=0.5, rtol=1e-8,
            sample_dt=1e-3, init_kind="taylor_green", amplitude=1.0,
        )
        records.append(run_trajectory(cfg))
    return records


def test_gap_two_form_consistency(family):
    table = exponents(1.9)
    rho_max = max(float(np.max(r.rho)) for r in family)
    levels = [0.3, 0.6, 0.9, 1.2, 2.0, 4.0]
    alphas = [float(np.arctan((lv * rho_max) ** table.gamma)) for lv in levels]
    est = gap_estimate(family, 0.0, 0.5, alphas, table.gamma)
    for row_group, alpha in zip(est.per_alpha, est.alphas):
        for row in row_group:
            rec = next(r for r in family if r.N == row["N"])
            part = exceedance_partition(rec, 0.0, 0.5, alpha, table.gamma)
            budget = energy_residual_over(rec, part)
            assert abs(row["dissipation_form"] - row["jump_form"]) <= budget + 1e-12


def test_gap_vanishes_for_resolved_family(family):
    table = exponents(1.9)
    rho_max = max(float(np.max(r.rho)) for r in family)
    alphas = [float(np.arctan((lv * rho_max) ** table.gamma))
              for lv in (0.5, 0.9, 1.1, 1.5, 3.0, 10.0)]
    est = gap_estimate(family, 0.0, 0.5, alphas, table.gamma)
    residual = max(energy_residual(r, 0.0, 0.5) for r in family)
    assert est.M_estimate <= 10 * max(residual, 1e-12)
    assert est.plateau_found
    assert est.measure_decay_ok


def test_gap_empty_partitions_give_zero(family):
    table = exponents(1.9)
    rho_max = max(float(np.max(r.rho)) for r in family)
    alphas = [float(np.arctan((lv * rho_max) ** table.gamma)) for lv in (2.0, 4.0, 8.0)]
    est = gap_estimate(family, 0.0, 0.5, alphas, table.gamma)
    assert est.M_estimate == 0.0
    report = gap_report_json(est, table)
    assert set(report) >= {
        "alphas", "M_estimate", "s", "t", "gamma", "zeta", "beta_variant_used",
    }


def test_dissipation_form_nonnegative(family):
    table = exponents(1.9)
    rho_max = max(float(np.max(r.rho)) for r in family)
    for lv in (0.2, 0.5, 0.8):
        alpha = float(np.arctan((lv * rho_max) ** table.gamma))
        for rec in family:
            part = exceedance_partition(rec, 0.0, 0.5, alpha, table.gamma)
            assert dissipation_form(rec, part) >= 0.0


def test_gap_single_record_two_forms(resolved_run):
    # on any single record the two forms agree within the identity budget
    table = exponents(1.9)
    level = float(np.quantile(resolved_run.rho, 0.6))
    alpha = float(np.arctan(level**table.gamma))
    part = exceedance_partition(resolved_run, 0.0, 0.5, alpha, table.gamma)
    diss = dissipation_form(resolved_run, part)
    jump = jump_form(resolved_run, part)
    assert abs(diss - jump) <= energy_residual_over(resolved_run, part) + 1e-12


# -- bounded variation functional ------------------------------------------------------


def test_lemma5_zero_trajectory():
    ts = np.linspace(0, 1, 51)
    zero = np.zeros_like(ts)
    rec = synthetic_record(ts, zero, energy=zero, rho_tilde=zero)
    assert lemma5_functional(rec, 3.5) == 0.0


def test_lemma5_monotone_antiderivative_oracle():
    zeta = 3.857142857142857
    ts = np.linspace(0, 1, 4001)
    rho = 5.0 * np.exp(-3 * ts)  # monotone decrease
    rec = synthetic_record(ts, rho)
    val = lemma5_functional(rec, zeta)
    bound = ((1 + rho[-1]) ** (1 - zeta) - (1 + rho[0]) ** (1 - zeta)) / (zeta - 1)
    bound = abs(bound)
    assert val == pytest.approx(bound, rel=1e-4)
    assert val <= bound * (1 + 1e-3) + 1e-12
    assert lemma5_monotone_bound(rec, zeta) == pytest.approx(bound, rel=1e-12)


def test_lemma5_uniform_across_family(family):
    zeta = exponents(1.9).zeta
    vals = [lemma5_functional(r, zeta) for r in family]
    assert max(vals) <= 2.0 * min(vals)


# -- measure bound ----------------------------------------------------------------------


def test_measure_bound_trivial():
    ts = np.linspace(0, 1, 101)
    rec = synthetic_record(ts, np.full_like(ts, 0.5))
    table = exponents(1.9)
    alpha = float(np.arctan(0.9**table.gamma))  # above max rho^gamma
    report = measure_bound_check([rec], [alpha], table.beta, table.gamma)
    assert report["violations"] == 0
    assert report["per_N"][0]["rows"][0]["measure"] == 0.0


def test_measure_bound_synthetic_excursion():
    table = exponents(1.9)
    ts = np.linspace(0, 1, 20001)
    rho = 1.0 + 3.0 * np.exp(-((ts - 0.5) ** 2) / 0.002)
    rec = synthetic_record(ts, rho)
    alphas = [float(np.arctan(lv**table.gamma)) for lv in (1.5, 2.0, 3.0)]
    report = measure_bound_check([rec], alphas, table.beta, table.gamma)
    assert report["violations"] == 0
    for row in report["per_N"][0]["rows"]:
        assert row["measure"] <= row["bound"]


def test_measure_bound_log_log_slope_on_power_tail():
    table = exponents(1.9)
    beta, gamma = table.beta, table.gamma
    ts = np.linspace(1e-6, 1.0, 400001)
    rho = ts ** (-2.0 / beta)  # measure{rho^gamma > y} = y^(-beta/(2 gamma))
    rec = synthetic_record(ts, rho)
    levels = (2.0, 4.0, 8.0, 16.0)
    alphas = [float(np.arctan(lv**gamma)) for lv in levels]
    measures = []
    for alpha in alphas:
        part = exceedance_partition(rec, ts[0], 1.0, alpha, gamma)
        measures.append(part.total_measure)
    logt = np.log([lv**gamma for lv in levels])
    logm = np.log(measures)
    slope = np.polyfit(logt, logm, 1)[0]
    assert slope <= -beta / (2 * gamma) + 1e-3
