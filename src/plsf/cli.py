"""Batch command-line front door.

Subcommands
-----------
run       integrate one configuration, write trajectory artifacts
gap       energy-gap report over a family of trajectory CSVs
verify    inequality suites on a random field ensemble
converge  nested-resolution convergence study

Exit codes: 0 all checks pass, 1 check failure, 2 usage/config error,
3 runtime error (stiffness, I/O).  PLSF_THREADS caps fan-out workers.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import gap as gapmod
from . import inequalities as ineq
from .basis import basis_capacity
from .config import RunConfig, load_config, serialize_config, with_overrides
from .constitutive import (
    FluidParams,
    oo_identity_residual,
    oo_residual_scale,
)
from .errors import CapacityError, ConfigError, PlsfError, StiffnessError
from .fields import SpectralVelocity, gradient, lp_norm, save_checkpoint
from .galerkin import TrajectoryRecord, run_trajectory


def _jsonify(obj):
    """obj in JSON types; a non-finite float, which RFC 8259 JSON cannot
    hold, becomes null."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonify(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


# -- run ---------------------------------------------------------------------


def cmd_run(cfg: RunConfig, out_dir: str | None) -> int:
    directory = Path(out_dir or cfg.output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    want_ckpt = "checkpoint" in cfg.output_formats
    if want_ckpt:
        record, states = run_trajectory(cfg.solver, collect_states_at=[cfg.solver.T])
    else:
        record = run_trajectory(cfg.solver)
    record.to_csv(directory / "trajectory.csv")
    if "json" in cfg.output_formats:
        summary = {
            "p": record.p,
            "mu": record.mu,
            "N": record.N,
            "T": cfg.solver.T,
            "steps": record.steps,
            "rejections": record.rejections,
            "rhs_evaluations": record.rhs_evaluations,
            "samples": int(record.times.size),
            "final_energy": float(record.energy[-1]),
            "initial_energy": float(record.energy[0]),
            "config": serialize_config(cfg),
        }
        _write_json(directory / "summary.json", summary)
    if want_ckpt:
        grid = cfg.solver.build_grid()
        save_checkpoint(directory / "final_state.plsf",
                        SpectralVelocity(grid, states[-1], validate=False))
    print(f"run: N={record.N} steps={record.steps} "
          f"samples={record.times.size} -> {directory}")
    return 0


# -- gap ---------------------------------------------------------------------


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _load_manifest(path: str):
    """The manifest at `path` and the records of its trajectories.  Every
    field is checked, and each violation named, before any file is read;
    `dim` defaults to 3."""
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ConfigError([f"manifest {path} must be a JSON object"])
    for key in ("p", "trajectories"):
        if key not in manifest:
            raise ConfigError([f"manifest {path} lacks the {key!r} field"])
    entries = manifest["trajectories"]
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ConfigError([f"manifest {path}: 'trajectories' must be a list of objects"])
    problems, first = [], {}
    p = manifest["p"]
    # gamma, the exponent of the exceedance sets, is defined on (5/3, 2] only
    if not _is_number(p) or not 5.0 / 3.0 < p <= 2.0:
        problems.append(f"manifest {path}: 'p' must be a finite number in (5/3, 2], "
                        f"got {p!r}")
    mu = manifest.get("mu", float("nan"))
    if "mu" in manifest and not (_is_number(mu) and math.isfinite(mu) and mu >= 0):
        problems.append(f"manifest {path}: 'mu' must be a finite number >= 0, got {mu!r}")
    dim = manifest.setdefault("dim", 3)
    if not (_is_int(dim) and dim in (2, 3)):
        problems.append(f"manifest {path}: 'dim' must be 2 or 3, got {dim!r}")
    members = []
    for k, entry in enumerate(entries):
        problems += [f"manifest {path} trajectory {k} lacks the {key!r} field"
                     for key in ("N", "path") if key not in entry]
        name = entry.get("path", "")
        if not isinstance(name, str):
            problems.append(f"manifest {path} trajectory {k}: 'path' must be a string, "
                            f"got {name!r}")
        if "N" not in entry:
            continue
        N = entry["N"]
        if not _is_int(N) or N < 1:
            problems.append(f"manifest {path} trajectory {k}: 'N' must be an integer >= 1, "
                            f"got {N!r}")
        elif N in first:
            problems.append(f"manifest {path} trajectory {k} repeats N = {N} "
                            f"of trajectory {first[N]}")
        else:
            first[N] = k
        members.append((N, name))
    if len(entries) < 2:
        # the gap extrapolates over resolutions
        problems.append(f"manifest {path} needs at least 2 trajectories, got {len(entries)}")
    if problems:
        raise ConfigError(problems)
    records = []
    for N, name in members:
        traj_path = Path(name)
        if not traj_path.is_absolute():
            traj_path = Path(path).parent / traj_path
        if not traj_path.exists():
            raise FileNotFoundError(f"manifest references missing file {traj_path}")
        records.append(TrajectoryRecord.from_csv(traj_path, p=p, mu=mu, N=N))
    return manifest, records


def cmd_gap(manifest_path: str, s: float, t: float, alphas, out: str | None) -> int:
    manifest, records = _load_manifest(manifest_path)
    table = gapmod.exponents(manifest["p"], dim=manifest["dim"])
    est = gapmod.gap_estimate(records, s, t, alphas, table.gamma)
    failures = []
    for row_group, parts, alpha in zip(est.per_alpha, est.partitions, est.alphas):
        for row, part in zip(row_group, parts):
            rec = next(r for r in records if r.N == row["N"])
            budget = gapmod.energy_residual_over(rec, part)
            mismatch = abs(row["dissipation_form"] - row["jump_form"])
            if mismatch > budget + 1e-10 * max(1.0, abs(row["dissipation_form"])):
                failures.append(
                    {"N": row["N"], "alpha": alpha, "mismatch": mismatch,
                     "budget": budget}
                )
    report = gapmod.gap_report_json(est, table)
    report["two_form_failures"] = failures
    out_path = out or "gap_report.json"
    _write_json(out_path, report)
    print(f"gap: M_estimate={est.M_estimate!r} at alpha={est.M_alpha!r} "
          f"plateau={est.plateau_found} -> {out_path}")
    return 1 if failures else 0


# -- verify ------------------------------------------------------------------

SUITES = ("lemma1", "friedrichs", "lemma3", "interp", "oo", "ap3")
LEMMA3_MUS = (1e-2, 1.0, 1e2)
FRIEDRICHS_MIN_Q = 1.3

# A suite that reads the per-field table takes `table`, its memoised
# builder: the one pass over the ensemble runs inside the first such suite.
# Its second argument is its entry of cmd_verify's `check_args`, the
# arguments its check is called with.


def _suite_lemma1(table, args):
    (q,) = args
    rows = table()
    half = len(rows) // 2
    calibration = ineq.check_lemma1(rows[:half], q)
    report = ineq.check_lemma1(rows[half:], q, frozen_c=2.0 * calibration.empirical_C)
    passed = report.violations == 0
    return passed, {"calibrated_C": calibration.empirical_C,
                    "frozen_C": report.frozen_C, **report.to_json()}


def _suite_friedrichs(table, args):
    (q,) = args
    r1 = ineq.check_friedrichs(table(), q, 0.1)
    r2 = ineq.check_friedrichs(table(), q, 0.05)
    passed = r2.kappa >= r1.kappa
    return passed, {"kappa_eps_0.1": r1.kappa, "kappa_eps_0.05": r2.kappa,
                    "monotone_in_eps": passed}


def _suite_lemma3(table, args):
    constants = {"SD1": [], "SD4": [], "SD2": []}
    for params in args:
        for rep in ineq.check_lemma3(table(), params):
            constants[rep.id].append(rep.empirical_C)
    detail = {}
    passed = True
    for name, vals in constants.items():
        entry = {"constants_by_mu": {str(params.mu): v for params, v in zip(args, vals)}}
        if all(math.isfinite(v) and v > 0 for v in vals):
            spread = max(vals) / min(vals)
            ok = spread < 2.0
            entry.update(spread=spread, mu_stable=ok)
        else:
            # e.g. a field so small that its squares underflow
            ok = False
            entry.update(spread=None, mu_stable=False,
                         reason="an empirical constant is 0 or non-finite, "
                                "so its spread over mu is undefined")
        passed = passed and ok
        detail[name] = entry
    return passed, detail


def _suite_interp(table, args):
    (p,) = args
    reports = ineq.check_interpolations(table(), p)
    passed = reports["c1"].violations == 0 and reports["c2"].violations == 0
    return passed, {k: r.to_json() for k, r in reports.items()}


def _suite_oo(d, params, count, seed):
    rng = np.random.default_rng(seed)
    failures = 0
    worst = 0.0
    for _ in range(count):
        A = rng.standard_normal((d, d)) * 10 ** rng.uniform(-2, 2)
        dA = rng.standard_normal((d, d)) * 10 ** rng.uniform(-2, 2)
        A = 0.5 * (A + A.T)
        dA = 0.5 * (dA + dA.T)
        res = oo_identity_residual(A, dA, params)
        scale = oo_residual_scale(A, dA, params)
        worst = max(worst, res / scale if scale > 0 else 0.0)
        if res > 1e-10 * scale:
            failures += 1
    return failures == 0, {"count": count, "failures": failures,
                           "worst_scaled_residual": worst}


def _suite_ap3(table, args):
    (params,) = args
    report = ineq.check_ap3(table(), params)
    report.pop("rows")
    return report["violations"] == 0, report


def cmd_verify(cfg: RunConfig, suites: list[str], out: str | None) -> int:
    unknown = [suite for suite in suites if suite not in SUITES]
    if unknown:
        raise ConfigError([f"unknown suite {suite!r}; choose from {SUITES}"
                           for suite in unknown])
    if "lemma1" in suites and cfg.verify_count < 2:
        # lemma1 calibrates its constant on one half of the ensemble
        raise ConfigError([f"suite lemma1 needs [verify] count >= 2, "
                           f"got {cfg.verify_count}"])
    needs_mu = {"lemma3", "oo", "ap3"} & set(suites)
    if needs_mu and cfg.solver.mu <= 0:
        raise ConfigError(
            [f"suites {sorted(needs_mu)} need [fluid] mu > 0, got {cfg.solver.mu}"]
        )
    params = FluidParams(cfg.solver.p, cfg.solver.mu)
    check_args = {  # the arguments each suite passes to its check
        "lemma1": [params.p], "interp": [params.p], "ap3": [params],
        "friedrichs": [max(params.p, FRIEDRICHS_MIN_Q)],
        "lemma3": [FluidParams(params.p, mu) for mu in LEMMA3_MUS],
    }
    keys = [key for suite in suites for arg in check_args.get(suite, ())
            for key in ineq.TABLE_KEYS[suite](arg)]
    table = functools.cache(lambda: ineq.field_table(ineq.FieldEnsemble.generate(
        cfg.solver.dim, cfg.solver.M, cfg.solver.L,
        band=cfg.verify_band, decay=cfg.verify_decay,
        seed=cfg.verify_seed, count=cfg.verify_count,
        amplitude=cfg.verify_amplitude, dealias=cfg.solver.dealias,
    ).samples, keys))
    results = {}
    all_pass = True
    for suite in suites:
        if suite == "oo":
            passed, detail = _suite_oo(cfg.solver.dim, params, cfg.verify_count,
                                       cfg.verify_seed)
        else:
            # every name was checked above; looked up in the module now, so
            # that a function rebound there after import is the one called
            passed, detail = globals()[f"_suite_{suite}"](table, check_args[suite])
        results[suite] = {"pass": passed, "detail": detail}
        all_pass = all_pass and passed
        print(f"verify {suite:<12} {'PASS' if passed else 'FAIL'}")
    if out:
        _write_json(out, results)
    return 0 if all_pass else 1


# -- converge ----------------------------------------------------------------


def _study_times(cfg: RunConfig) -> list[float]:
    T = cfg.solver.T
    dt = cfg.study_state_dt
    n = int(np.floor(T / dt + 1e-9))
    times = [k * dt for k in range(n + 1)]
    if times[-1] < T:
        times.append(T)
    return times


def _study_workers(raw: str, n_jobs: int) -> int:
    """Worker count for the study fan-out from the PLSF_THREADS value.

    The process pool starts all its workers up front, so the request is
    capped by the job count and the CPU count."""
    message = f"PLSF_THREADS must be a positive integer, got {raw!r}"
    try:
        requested = int(raw)
    except ValueError:
        raise ConfigError([message]) from None
    if requested < 1:
        raise ConfigError([message])
    return min(requested, n_jobs, os.cpu_count() or 1)


def _run_study_member(args):
    solver_cfg, times = args
    return run_trajectory(solver_cfg, collect_states_at=times)


def cmd_converge(cfg: RunConfig, out: str | None) -> int:
    if cfg.study_N_list is None:
        raise ConfigError(["[study] N_list is required for the convergence study"])
    n_list = list(cfg.study_N_list)
    grid = cfg.solver.build_grid()
    cap = basis_capacity(grid)
    if n_list[-1] > cap:
        raise ConfigError(
            [f"[study] N_list max {n_list[-1]} exceeds grid capacity {cap}"]
        )
    times = _study_times(cfg)
    jobs = [(with_overrides(cfg, N=N, lambda_cut=None).solver, times) for N in n_list]
    workers = _study_workers(os.environ.get("PLSF_THREADS", "1"), len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(_run_study_member, jobs))
    else:
        outputs = [_run_study_member(job) for job in jobs]

    table = gapmod.exponents(cfg.solver.p)
    beta = table.beta if table.beta_variant != "undefined" else 1.0
    records = [rec for rec, _ in outputs]
    states = [st for _, st in outputs]
    ref_states = states[-1]
    report = {
        "N_list": n_list,
        "q_list": list(cfg.study_q_list),
        "state_times": times,
        "beta_used": beta,
        "beta_variant": table.beta_variant,
        "errors": {},
        "monotone": {},
        "pointwise_fraction_improving": [],
        "pc_integrals": [],
        "histograms": [],
    }

    def grad_norm(c, q):
        return lp_norm(gradient(SpectralVelocity(grid, c, validate=False)), q)

    for member_states in states[:-1]:
        diffs = np.array([grad_norm(c_n - c_ref, cfg.solver.p)
                          for c_n, c_ref in zip(member_states, ref_states)])
        for q in cfg.study_q_list:
            e = float(np.trapezoid(diffs**q, times) ** (1.0 / q))
            report["errors"].setdefault(repr(q), []).append(e)

    for q in cfg.study_q_list:
        e_vals = report["errors"][repr(q)]
        report["monotone"][repr(q)] = all(
            b < a for a, b in zip(e_vals, e_vals[1:])
        )

    # pointwise a.e.-convergence surrogate on ||grad v||_2
    ref_grad_l2 = [grad_norm(c_ref, 2.0) for c_ref in ref_states]
    dev_rows = [
        np.array([abs(grad_norm(c_n, 2.0) - g_r)
                  for c_n, g_r in zip(member_states, ref_grad_l2)])
        for member_states in states[:-1]
    ]
    edges = [0.0] + [10.0**e for e in range(-14, 3)]
    for devs in dev_rows:
        hist, _ = np.histogram(devs, bins=edges)
        report["histograms"].append([int(x) for x in hist])
    for prev, nxt in zip(dev_rows, dev_rows[1:]):
        improving = float(np.mean(nxt <= prev + 1e-15))
        report["pointwise_fraction_improving"].append(improving)

    for rec in records:
        report["pc_integrals"].append(
            float(np.trapezoid(rec.rho ** (beta / 2.0), rec.times))
        )

    report["all_monotone"] = all(report["monotone"].values())
    out_path = out or "convergence_report.json"
    _write_json(out_path, report)
    for q in cfg.study_q_list:
        print(f"converge q={q}: e_N={report['errors'][repr(q)]} "
              f"monotone={report['monotone'][repr(q)]}")
    return 0


# -- entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plsf",
        description="Pseudo-spectral power-law fluid solver and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one configuration")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory override")

    p_gap = sub.add_parser("gap", help="energy-gap report from a manifest")
    p_gap.add_argument("manifest")
    p_gap.add_argument("--s", type=float, required=True)
    p_gap.add_argument("--t", type=float, required=True)
    p_gap.add_argument("--alphas", required=True,
                       help="comma-separated alpha grid (radians)")
    p_gap.add_argument("--out", default=None)

    p_ver = sub.add_parser("verify", help="inequality suites")
    p_ver.add_argument("config")
    p_ver.add_argument("--suites", default=",".join(SUITES))
    p_ver.add_argument("--out", default=None)

    p_con = sub.add_parser("converge", help="nested-resolution study")
    p_con.add_argument("config")
    p_con.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(load_config(args.config), args.out)
        if args.command == "gap":
            alphas = [float(x) for x in args.alphas.split(",") if x.strip()]
            return cmd_gap(args.manifest, args.s, args.t, alphas, args.out)
        if args.command == "verify":
            suites = [s.strip() for s in args.suites.split(",") if s.strip()]
            return cmd_verify(load_config(args.config), suites, args.out)
        if args.command == "converge":
            return cmd_converge(load_config(args.config), args.out)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        for line in exc.violations:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    except (ValueError, CapacityError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (StiffnessError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except PlsfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
