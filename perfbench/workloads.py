"""The four benchmark workloads: seeded inputs, the plsf command, and the
checks that decide whether one operation's outputs are correct.

Each workload is one real `plsf` CLI command.  `prepare` writes every
input file into `inputs/` from the seed alone; the command then runs in a
fresh operation directory beside it and sees only those files.  `check`
returns a list of problems, empty when the outputs are correct.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# plsf is imported lazily (inside the functions) because run.py first puts
# the checkout's src/ on sys.path.

L2PI = 6.283185307179586
P = 1.9


@dataclass(frozen=True)
class Scale:
    """Problem sizes; `FULL` is the benchmark, `TINY` the smoke tests."""

    run2d_M: int
    run2d_T: float
    run2d_sample_dt: float
    run3d_M: int
    run3d_T: float
    run3d_sample_dt: float
    gap_rows: int
    gap_members: int
    gap_alphas: int
    gap_freq: float
    verify_M: int
    verify_count: int


FULL = Scale(run2d_M=64, run2d_T=1.0, run2d_sample_dt=1e-3,
             run3d_M=32, run3d_T=0.05, run3d_sample_dt=0.01,
             gap_rows=40001, gap_members=4, gap_alphas=12, gap_freq=40.0,
             verify_M=16, verify_count=100)
TINY = Scale(run2d_M=16, run2d_T=0.05, run2d_sample_dt=0.01,
             run3d_M=8, run3d_T=0.01, run3d_sample_dt=0.005,
             gap_rows=401, gap_members=2, gap_alphas=3, gap_freq=4.0,
             verify_M=8, verify_count=16)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    first: tuple[str, ...]  # module:function whose first call ends set-up
    prepare: Callable[[Path, int, Scale], list[str]]
    check: Callable[[Path, Path, int], list[str]]
    digests: tuple[str, ...] = ()  # outputs that must repeat byte for byte


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


# -- run2d -----------------------------------------------------------------------


def _prepare_run2d(inputs: Path, seed: int, sc: Scale) -> list[str]:
    # The acceptance configuration is fixed (Taylor-Green data has no
    # randomness), so the seed does not change this input.
    _write(inputs / "run2d.ini", f"""\
[grid]
dim = 2
M = {sc.run2d_M}
[fluid]
p = {P}
mu = 1.0
[time]
T = {sc.run2d_T!r}
rtol = 1e-8
sample_dt = {sc.run2d_sample_dt!r}
[init]
kind = taylor_green
[output]
directory = out
formats = csv,json,checkpoint
""")
    return ["run", "../inputs/run2d.ini"]


def _read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def _check_run2d(op: Path, inputs: Path, rc: int) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    tr = _read_csv(op / "out" / "trajectory.csv")
    # criterion 1: E(T) + 2 int_0^T rho_tilde - E(0), composite trapezoid
    e = tr["energy"]
    residual = abs(e[-1] + 2.0 * np.trapezoid(tr["rho_tilde"], tr["t"]) - e[0])
    rel = residual / e[0]
    return [] if rel <= 1e-6 else [f"relative energy residual {rel:.3e} > 1e-6"]


# -- run3d -----------------------------------------------------------------------


def _prepare_run3d(inputs: Path, seed: int, sc: Scale) -> list[str]:
    from plsf.fields import random_solenoidal, save_checkpoint
    from plsf.grid import TorusGrid

    grid = TorusGrid(3, sc.run3d_M, L2PI)
    band = min(4, sc.run3d_M // 2 - 1)
    # At this amplitude the step size is set by the viscous stiffness of
    # the full band, so every seed takes the same number of steps.
    field = random_solenoidal(grid, band=band, decay=2.0, seed=seed, amplitude=0.1)
    save_checkpoint(inputs / "init3d.plsf", field)
    _write(inputs / "run3d.ini", f"""\
[grid]
dim = 3
M = {sc.run3d_M}
[fluid]
p = {P}
mu = 1.0
[time]
T = {sc.run3d_T!r}
rtol = 1e-8
sample_dt = {sc.run3d_sample_dt!r}
[init]
kind = checkpoint
path = ../inputs/init3d.plsf
[output]
directory = out
formats = csv,json,checkpoint
""")
    return ["run", "../inputs/run3d.ini"]


_CKPT_HEADER = struct.Struct("<4sIIIdQ")


def checkpoint_energy(path: Path) -> float:
    """||v||^2 by Parseval from a checkpoint file, read independently of plsf:
    each stored half-space mode stands for itself and its conjugate."""
    raw = path.read_bytes()
    magic, _version, dim, _M, L, count = _CKPT_HEADER.unpack_from(raw)
    if magic != b"PLSF":
        raise ValueError(f"{path} is not a PLSF checkpoint")
    data = np.frombuffer(raw, dtype="<f8", offset=_CKPT_HEADER.size)
    if data.size != count * dim * 2:
        raise ValueError(f"{path} has a truncated payload")
    return float(L**dim * 2.0 * np.sum(data * data))


def _check_run3d(op: Path, inputs: Path, rc: int) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    problems = []
    energy = _read_csv(op / "out" / "trajectory.csv")["energy"]
    parseval = checkpoint_energy(op / "out" / "final_state.plsf")
    rel = abs(parseval - energy[-1]) / energy[-1]
    if rel > 1e-12:
        problems.append(f"checkpoint Parseval energy is off by {rel:.3e} relative")
    if np.any(np.diff(energy) > 0):
        problems.append("energy increases between samples")
    return problems


# -- gap -------------------------------------------------------------------------


def _gap_family(seed: int, sc: Scale):
    """Seeded synthetic trajectories: rho is a sum of sinusoids, energy is
    E0 - 2 * (cumulative trapezoid of rho_tilde)."""
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 1.0, sc.gap_rows)
    base = rng.uniform(1.5, 2.5)
    # a main oscillation, a fast ripple that adds crossings near its
    # extremes, and a slow drift; the frequencies are fixed so that every
    # seed asks for about the same number of intervals
    freqs = [0.25 * sc.gap_freq, sc.gap_freq, 0.05 * sc.gap_freq]
    amps = [rng.uniform(0.4, 0.8), rng.uniform(0.05, 0.1), rng.uniform(0.1, 0.2)]
    phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
    rho_inf = base + sum(a * np.sin(2.0 * np.pi * f * times + ph)
                         for a, f, ph in zip(amps, freqs, phases))
    members = []
    n_list = [1000 * (j + 1) for j in range(sc.gap_members)]
    for N in n_list:
        rho = rho_inf * (1.0 + 0.002 * (n_list[-1] / N - 1.0))
        rho_tilde = rho * (1.0 + rho) ** ((P - 2.0) / 2.0)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (rho_tilde[1:] + rho_tilde[:-1])
                                               * np.diff(times))])
        energy = 1.0 + 2.0 * cum[-1] - 2.0 * cum
        members.append((N, np.column_stack([times, energy, rho, rho_tilde,
                                            np.sqrt(rho), rho])))
    return members, rho_inf


def _prepare_gap(inputs: Path, seed: int, sc: Scale) -> list[str]:
    from plsf.gap import exponents

    members, rho_inf = _gap_family(seed, sc)
    entries = []
    for N, data in members:
        name = f"traj_N{N}.csv"
        lines = ["t,energy,rho,rho_tilde,grad_p_norm,Ip"]
        lines += [",".join(map(repr, row)) for row in data.tolist()]
        _write(inputs / name, "\n".join(lines) + "\n")
        entries.append({"N": N, "path": name})
    _write(inputs / "manifest.json",
           json.dumps({"p": P, "mu": 1.0, "trajectories": entries}))
    gamma = exponents(P).gamma
    levels = np.quantile(rho_inf, np.linspace(0.1, 0.9, sc.gap_alphas))
    alphas = [float(np.arctan(lv**gamma)) for lv in levels]
    return ["gap", "../inputs/manifest.json", "--s", "0.0", "--t", "1.0",
            "--alphas", ",".join(map(repr, alphas)), "--out", "gap_report.json"]


def _check_gap(op: Path, inputs: Path, rc: int) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    report = json.loads((op / "gap_report.json").read_text(encoding="utf-8"))
    problems = []
    if report["two_form_failures"]:
        problems.append(f"{len(report['two_form_failures'])} two-form failures")
    if report["measure_decay_ok"] is not True:
        problems.append("measure_decay_ok is not true")
    manifest = json.loads((inputs / "manifest.json").read_text(encoding="utf-8"))
    rho = {e["N"]: _read_csv(inputs / e["path"]) for e in manifest["trajectories"]}
    gamma = report["gamma"]
    s, t = report["s"], report["t"]
    worst = 0.0
    for block in report["alphas"]:
        thr = float(np.tan(block["alpha"]))
        for row in block["per_N"]:
            tr = rho[row["N"]]
            ts, ys = tr["t"], tr["rho"] ** gamma
            above = ys > thr
            i = np.flatnonzero(above[:-1] != above[1:])
            # closed-form crossing of each linear segment with the threshold
            want = ts[i] + (thr - ys[i]) * (ts[i + 1] - ts[i]) / (ys[i + 1] - ys[i])
            want = want[(want > s) & (want < t)]
            got = np.sort([x for iv in row["intervals"] for x in iv if s < x < t])
            if got.size != want.size:
                problems.append(f"N={row['N']} alpha={block['alpha']!r}: "
                                f"{got.size} interior endpoints, expected {want.size}")
                continue
            if got.size:
                worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    if worst > 1e-10:
        problems.append(f"interval endpoint off its crossing by {worst:.3e} relative")
    return problems


# -- verify3d --------------------------------------------------------------------

SUITES = ("lemma1", "friedrichs", "lemma3", "interp", "oo", "ap3")


def _prepare_verify3d(inputs: Path, seed: int, sc: Scale) -> list[str]:
    _write(inputs / "verify3d.ini", f"""\
[grid]
dim = 3
M = {sc.verify_M}
[fluid]
p = {P}
mu = 1.0
[verify]
count = {sc.verify_count}
seed = {seed}
band = {min(4, sc.verify_M // 2 - 1)}
""")
    return ["verify", "../inputs/verify3d.ini", "--suites", ",".join(SUITES),
            "--out", "verify.json"]


def _check_verify3d(op: Path, inputs: Path, rc: int) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    results = json.loads((op / "verify.json").read_text(encoding="utf-8"))
    return [f"suite {name} did not pass" for name in SUITES
            if results.get(name, {}).get("pass") is not True]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "run2d",
            "acceptance config (2D 64^2 full band, T=1): RHS and functional "
            "work with almost no set-up",
            ("galerkin:advance",), _prepare_run2d, _check_run2d,
            ("out/trajectory.csv", "out/summary.json"),
        ),
        Workload(
            "run3d",
            "3D 32^3 full band from a seeded checkpoint: basis set-up, 3D "
            "transform shapes, checkpoint I/O and memory",
            ("galerkin:advance",), _prepare_run3d, _check_run3d,
            ("out/trajectory.csv", "out/summary.json", "out/final_state.plsf"),
        ),
        Workload(
            "gap",
            "gap post-process over seeded synthetic CSVs: exceedance partitions "
            "and CSV parsing, no solver code",
            ("gap:exceedance_partition",), _prepare_gap, _check_gap,
        ),
        Workload(
            "verify3d",
            "all six inequality suites at 3D 16^3: inverse transforms only, "
            "the only workload reaching plsf.inequalities",
            tuple(f"cli:_suite_{s}" for s in SUITES), _prepare_verify3d,
            _check_verify3d,
        ),
    )
}


def output_digest(op: Path, names) -> dict[str, str]:
    return {n: hashlib.sha256((op / n).read_bytes()).hexdigest() for n in names}


def tree_digest(*roots: Path) -> str:
    """Hash of every file under `roots` (and of the numpy version): outputs
    must repeat byte for byte for the same sources and inputs."""
    h = hashlib.sha256(np.__version__.encode())
    for root in roots:
        for path in sorted(p for p in root.rglob("*") if p.is_file()
                           and "__pycache__" not in p.parts):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()
