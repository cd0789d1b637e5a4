"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  The heavy full-band family is computed once and shared."""

import json
import math
import time

import numpy as np
import pytest

from plsf.basis import basis_capacity, make_basis
from plsf.cli import main
from plsf.constitutive import (
    FluidParams,
    oo_identity_residual,
    oo_residual_scale,
)
from plsf.fields import save_checkpoint
from plsf.galerkin import SolverConfig, run_trajectory
from plsf.gap import (
    energy_residual,
    energy_residual_over,
    exceedance_partition,
    exponents,
    gap_estimate,
    lemma5_functional,
    lemma5_monotone_bound,
)
from plsf.grid import TorusGrid
from plsf.inequalities import (
    TABLE_KEYS,
    FieldEnsemble,
    check_interpolations,
    field_table,
)

L2PI = 2 * np.pi


def accept_config(**kw):
    base = dict(
        dim=2, M=64, L=L2PI, p=1.9, mu=1.0, T=1.0, rtol=1e-8,
        sample_dt=1e-3, init_kind="taylor_green", amplitude=1.0,
    )
    base.update(kw)
    return SolverConfig(**base)


ACCEPT_CFG_TEXT = """
[grid]
dim = 2
M = 64
L = 6.283185307179586

[fluid]
p = 1.9
mu = 1.0

[time]
T = 1.0
rtol = 1e-08
sample_dt = 0.001

[init]
kind = taylor_green
amplitude = 1.0
"""


def report(criterion: str, passed: bool, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"{criterion} failed: {detail}"


@pytest.fixture(scope="module")
def full_band_run():
    t0 = time.perf_counter()
    record = run_trajectory(accept_config())
    elapsed = time.perf_counter() - t0
    return record, elapsed


@pytest.fixture(scope="module")
def family(full_band_run):
    grid = TorusGrid(2, 64, L2PI)
    band = basis_capacity(grid)
    records = [full_band_run[0]]
    for frac in (2, 4):
        records.append(run_trajectory(accept_config(N=band // frac)))
    return sorted(records, key=lambda r: r.N)


def test_criterion_1_energy_identity(full_band_run):
    record, elapsed = full_band_run
    res = energy_residual(record, 0.0, 1.0)
    rel = res / record.energy[0]
    passed = rel <= 1e-6 and elapsed <= 60.0
    report("1 (discrete energy identity)", passed,
           f"relative residual {rel:.3e} (tol 1e-6), runtime {elapsed:.1f}s (cap 60s)")


def test_criterion_2_newtonian_oracle(tmp_path):
    grid = TorusGrid(2, 64, L2PI)
    basis = make_basis(grid, 4)
    c0 = 0.8
    mode = basis.entry_field(0) * c0  # |k| = 2 pi / L = 1
    ckpt = tmp_path / "mode.plsf"
    save_checkpoint(ckpt, mode)
    cfg = accept_config(p=2.0, N=4, init_kind="checkpoint", path=str(ckpt),
                        sample_dt=None)
    record = run_trajectory(cfg)
    lam = basis.eigenvalues[0]
    exact = c0 * math.exp(-0.5 * lam * 1.0)
    got = math.sqrt(record.energy[-1])
    rel = abs(got - exact) / exact
    report("2 (Newtonian decay oracle)", rel <= 1e-6,
           f"relative error {rel:.3e} (tol 1e-6)")


def test_criterion_3_oo_identity():
    rng = np.random.default_rng(2024)
    p_grid = (1.81, 1.9, 1.99)
    mu_grid = (0.1, 1.0)
    failures = 0
    worst = 0.0
    for _ in range(10_000):
        params = FluidParams(p_grid[rng.integers(3)], mu_grid[rng.integers(2)])
        D = rng.standard_normal((3, 3)) * 10 ** rng.uniform(-2, 2)
        D = 0.5 * (D + D.T)
        dD = rng.standard_normal((3, 3)) * 10 ** rng.uniform(-2, 2)
        dD = 0.5 * (dD + dD.T)
        res = oo_identity_residual(D, dD, params)
        scale = oo_residual_scale(D, dD, params)
        worst = max(worst, res / scale)
        if res > 1e-10 * scale:
            failures += 1
    report("3 (pointwise stress-derivative identity)", failures == 0,
           f"{failures} failures in 10000 samples, worst scaled residual {worst:.2e}")


def test_criterion_4_interpolation_constant_one():
    ens = FieldEnsemble.generate(3, 12, L2PI, band=4, decay=1.5, seed=31,
                                 count=1000)
    reports = check_interpolations(field_table(ens.samples, TABLE_KEYS["interp"](1.9)), 1.9)
    c1v, c2v = reports["c1"].violations, reports["c2"].violations
    report("4 (interpolation inequalities at constant 1)", c1v == 0 and c2v == 0,
           f"violations c1={c1v} c2={c2v}, worst ratios "
           f"{reports['c1'].worst_ratio:.12f}, {reports['c2'].worst_ratio:.12f}")


def test_criterion_5_gap_two_forms(family):
    table = exponents(1.9)
    rho_max = max(float(np.max(r.rho)) for r in family)
    levels = (0.3, 0.5, 0.7, 0.9, 1.5, 3.0)
    alphas = [float(np.arctan((lv * rho_max) ** table.gamma)) for lv in levels]
    est = gap_estimate(family, 0.0, 1.0, alphas, table.gamma)
    worst_gap = 0.0
    consistent = True
    for row_group, alpha in zip(est.per_alpha, est.alphas):
        for row in row_group:
            rec = next(r for r in family if r.N == row["N"])
            part = exceedance_partition(rec, 0.0, 1.0, alpha, table.gamma)
            budget = energy_residual_over(rec, part)
            mismatch = abs(row["dissipation_form"] - row["jump_form"])
            worst_gap = max(worst_gap, mismatch - budget)
            if mismatch > budget + 1e-12:
                consistent = False
    passed = consistent and est.M_estimate <= 1e-5
    report("5 (gap two-form consistency and vanishing gap)", passed,
           f"max(mismatch - budget) {worst_gap:.2e}, M_estimate {est.M_estimate:.2e}")


def test_criterion_6_partition_oracle():
    from plsf.galerkin import TrajectoryRecord

    rng = np.random.default_rng(99)
    gamma = exponents(1.9).gamma
    ts = np.arange(0.0, 1.0 + 1e-12, 2.5e-5)
    worst = 0.0
    inclusion_ok = True
    for _ in range(1000):
        A = rng.uniform(1.5, 2.5)
        B = rng.uniform(0.4, 0.8)
        omega = 2 * np.pi * rng.uniform(1.0, 3.0)
        phase = rng.uniform(0, 2 * np.pi)
        rho = A + B * np.sin(omega * ts + phase)
        rec = TrajectoryRecord(
            p=1.9, mu=1.0, N=1, times=ts, energy=np.exp(-ts), rho=rho,
            rho_tilde=np.exp(-ts), grad_p_norm=np.sqrt(rho), Ip=rho,
        )
        # threshold away from the extrema so crossings are transversal
        level = A + B * rng.uniform(-0.6, 0.6)
        alpha = float(np.arctan(level**gamma))
        part = exceedance_partition(rec, 0.0, 1.0, alpha, gamma)
        target = (level - A) / B
        cross = []
        k0 = int(np.floor((omega * 0.0 + phase) / (2 * np.pi))) - 1
        k1 = int(np.ceil((omega * 1.0 + phase) / (2 * np.pi))) + 1
        for k in range(k0, k1 + 1):
            for base in (math.asin(target), np.pi - math.asin(target)):
                tc = (base - phase + 2 * np.pi * k) / omega
                if 0.0 < tc < 1.0:
                    cross.append(tc)
        cross.sort()
        got = [x for iv in part.intervals for x in (iv.start, iv.end)
               if 0.0 < x < 1.0]
        assert len(got) == len(cross)
        if cross:
            worst = max(worst, max(abs(a - b) for a, b in zip(got, cross)))
        # monotone set inclusion for a higher threshold
        alpha2 = float(np.arctan((level + 0.05 * B) ** gamma))
        part2 = exceedance_partition(rec, 0.0, 1.0, alpha2, gamma)
        for iv in part2.intervals:
            if not any(o.start - 1e-8 <= iv.start and iv.end <= o.end + 1e-8
                       for o in part.intervals):
                inclusion_ok = False
    passed = worst <= 1e-8 and inclusion_ok
    report("6 (exceedance partition oracle)", passed,
           f"worst crossing error {worst:.2e} (tol 1e-8), "
           f"inclusion {'ok' if inclusion_ok else 'violated'}")


def test_criterion_7_lemma5_uniformity(family):
    zeta = exponents(1.9).zeta
    values = [lemma5_functional(r, zeta) for r in family]
    bounds = [lemma5_monotone_bound(r, zeta) for r in family]
    within_factor = max(values) <= 2.0 * min(values)
    bounded = all(v <= b * (1 + 2e-3) + 1e-10 for v, b in zip(values, bounds))
    report("7 (bounded-variation functional uniformity)",
           within_factor and bounded,
           f"values {[f'{v:.6e}' for v in values]}, "
           f"spread {max(values)/min(values):.3f} (cap 2), "
           f"bound slack {max(v - b for v, b in zip(values, bounds)):.2e}")


def test_criterion_8_convergence_study(tmp_path):
    cfg_text = """
[grid]
dim = 2
M = 32

[fluid]
p = 1.9
mu = 1.0

[time]
T = 0.5
rtol = 1e-08

[init]
kind = random_band
band = 3
seed = 11
amplitude = 1.5
decay = 1.0

[study]
N_list = 24,80,240,480
q_list = 1.0,1.5,1.8
state_dt = 0.02
"""
    cfg_path = tmp_path / "study.cfg"
    cfg_path.write_text(cfg_text)
    out = tmp_path / "conv.json"
    code = main(["converge", str(cfg_path), "--out", str(out)])
    assert code == 0
    study = json.loads(out.read_text())
    monotone = all(study["monotone"][repr(q)] for q in (1.0, 1.5, 1.8))
    fractions = study["pointwise_fraction_improving"]
    pointwise_ok = all(f >= 0.9 for f in fractions)
    report("8 (nested-resolution convergence)", monotone and pointwise_ok,
           f"e_N monotone {monotone}, pointwise improving fractions {fractions}")


def test_criterion_9_exponent_table():
    tol = 1e-12
    worst = 0.0
    selection_ok = True
    for p in (1.81, 1.9, 1.99):
        t = exponents(p)
        closed = {
            "zeta": 3 * (p - 1) / (3 * p - 5),
            "gamma": 3 * (p - 1) / (3 * p - 5) - 1,
            "lam": 2 * (3 - p) / (3 * p - 5),
            "b": (3 - p) / 2,
            "c_interp": p / (3 * p - 2),
            "d": 2 * p / (7 * p - 6),
        }
        for name, val in closed.items():
            worst = max(worst, abs(getattr(t, name) - val))
        # the dual-variant report must select exactly one printed formula
        d_stmt = abs(t.beta_statement - t.beta_balance)
        d_proof = abs(t.beta_proof - t.beta_balance)
        unique = (d_stmt < 1e-9) != (d_proof < 1e-9)
        selection_ok = selection_ok and unique and t.beta_variant in (
            "statement", "proof")
    passed = worst <= tol and selection_ok
    report("9 (exponent table)", passed,
           f"worst closed-form deviation {worst:.2e} (tol 1e-12), "
           f"variant selection unique: {selection_ok}")


def test_criterion_10_determinism(tmp_path):
    cfg_path = tmp_path / "accept.cfg"
    cfg_path.write_text(ACCEPT_CFG_TEXT)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["run", str(cfg_path), "--out", str(out2)]) == 0
    csv_same = (out1 / "trajectory.csv").read_bytes() == (
        out2 / "trajectory.csv").read_bytes()
    json_same = (out1 / "summary.json").read_bytes() == (
        out2 / "summary.json").read_bytes()
    report("10 (byte-identical artifacts)", csv_same and json_same,
           f"csv identical {csv_same}, json identical {json_same}")
