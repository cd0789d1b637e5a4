"""Run configuration: INI-style parsing, range validation, canonical
serialization.

Validation collects every violation instead of stopping at the first,
and unknown sections or keys are named explicitly.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .galerkin import SolverConfig

_SCHEMA = {
    "grid": ("dim", "M", "L", "dealias"),
    "fluid": ("p", "mu"),
    "galerkin": ("N", "lambda_cut", "record_d2"),
    "time": ("T", "rtol", "atol", "dt_min", "sample_dt"),
    "init": ("kind", "seed", "band", "amplitude", "decay", "path"),
    "output": ("directory", "formats"),
    "study": ("N_list", "q_list", "state_dt"),
    "verify": ("count", "seed", "band", "decay", "amplitude"),
}

_INIT_KINDS = ("taylor_green", "random_band", "checkpoint")
_FORMATS = ("csv", "json", "checkpoint")


@dataclass
class RunConfig:
    """Solver configuration plus the output and study/verify sections."""

    solver: SolverConfig = field(default_factory=SolverConfig)
    output_dir: str = "."
    output_formats: tuple[str, ...] = ("csv", "json")
    study_N_list: tuple[int, ...] | None = None
    study_q_list: tuple[float, ...] = (1.0, 1.5, 1.8)
    study_state_dt: float = 0.02
    verify_count: int = 200
    verify_seed: int = 0
    verify_band: int = 4
    verify_decay: float = 2.0
    verify_amplitude: float = 1.0


def _get(parser, section, key, conv, default, violations, describe):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        return conv(raw)
    except (TypeError, ValueError):
        violations.append(f"[{section}] {key} = {raw!r} is not a valid {describe}")
        return default


def _to_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _to_int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(x) for x in raw.split(",") if x.strip())


def _to_float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(x) for x in raw.split(",") if x.strip())


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ConfigError listing every violation."""
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str  # keys are case-sensitive (M, T, N_list)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"malformed config: {exc}"]) from exc

    violations: list[str] = []
    for section in parser.sections():
        if section not in _SCHEMA:
            violations.append(f"unknown section [{section}]")
            continue
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                violations.append(f"unknown key {key!r} in section [{section}]")

    g = lambda *a: _get(parser, *a)
    dim = g("grid", "dim", int, 2, violations, "integer")
    M = g("grid", "M", int, 64, violations, "integer")
    L = g("grid", "L", float, 6.283185307179586, violations, "number")
    dealias = g("grid", "dealias", float, 1.5, violations, "number")
    p = g("fluid", "p", float, 1.9, violations, "number")
    mu = g("fluid", "mu", float, 1.0, violations, "number")
    N = g("galerkin", "N", int, None, violations, "integer")
    lambda_cut = g("galerkin", "lambda_cut", float, None, violations, "number")
    record_d2 = g("galerkin", "record_d2", _to_bool, False, violations, "boolean")
    T = g("time", "T", float, 1.0, violations, "number")
    rtol = g("time", "rtol", float, 1e-8, violations, "number")
    atol = g("time", "atol", float, 1e-12, violations, "number")
    dt_min = g("time", "dt_min", float, 1e-12, violations, "number")
    sample_dt = g("time", "sample_dt", float, None, violations, "number")
    kind = g("init", "kind", str, "taylor_green", violations, "string")
    seed = g("init", "seed", int, 0, violations, "integer")
    band = g("init", "band", int, 1, violations, "integer")
    amplitude = g("init", "amplitude", float, 1.0, violations, "number")
    decay = g("init", "decay", float, 2.0, violations, "number")
    path = g("init", "path", str, None, violations, "string")
    out_dir = g("output", "directory", str, ".", violations, "string")
    formats = g("output", "formats", lambda s: tuple(
        x.strip() for x in s.split(",") if x.strip()), ("csv", "json"),
        violations, "list")
    n_list = g("study", "N_list", _to_int_list, None, violations, "integer list")
    q_list = g("study", "q_list", _to_float_list, (1.0, 1.5, 1.8), violations,
               "number list")
    state_dt = g("study", "state_dt", float, 0.02, violations, "number")
    v_count = g("verify", "count", int, 200, violations, "integer")
    v_seed = g("verify", "seed", int, 0, violations, "integer")
    v_band = g("verify", "band", int, 4, violations, "integer")
    v_decay = g("verify", "decay", float, 2.0, violations, "number")
    v_amp = g("verify", "amplitude", float, 1.0, violations, "number")

    if dim not in (2, 3):
        violations.append(f"[grid] dim = {dim} violates dim in {{2, 3}}")
    if M < 8 or M % 2 != 0:
        violations.append(f"[grid] M = {M} violates M even and >= 8")
    if L <= 0:
        violations.append(f"[grid] L = {L} violates L > 0")
    if dealias < 1:
        violations.append(f"[grid] dealias = {dealias} violates dealias >= 1")
    if not (1.0 < p <= 2.0):
        violations.append(f"[fluid] p = {p} violates p in (1, 2]")
    if mu < 0:
        violations.append(f"[fluid] mu = {mu} violates mu >= 0")
    if N is not None and lambda_cut is not None:
        violations.append("[galerkin] give N or lambda_cut, not both")
    if N is not None and N < 0:
        violations.append(f"[galerkin] N = {N} violates N >= 0")
    if lambda_cut is not None and not lambda_cut > 0:  # NaN too
        violations.append(f"[galerkin] lambda_cut = {lambda_cut} violates lambda_cut > 0")
    if T < 0:
        violations.append(f"[time] T = {T} violates T >= 0")
    if rtol <= 0:
        violations.append(f"[time] rtol = {rtol} violates rtol > 0")
    if atol < 0:
        violations.append(f"[time] atol = {atol} violates atol >= 0")
    if dt_min <= 0:
        violations.append(f"[time] dt_min = {dt_min} violates dt_min > 0")
    if sample_dt is not None and sample_dt <= 0:
        violations.append(f"[time] sample_dt = {sample_dt} violates sample_dt > 0")
    if kind not in _INIT_KINDS:
        violations.append(f"[init] kind = {kind!r} is not one of {_INIT_KINDS}")
    if kind == "checkpoint" and not path:
        violations.append("[init] kind = checkpoint needs a path")
    if band < 1:
        violations.append(f"[init] band = {band} violates band >= 1")
    for fmt in formats:
        if fmt not in _FORMATS:
            violations.append(f"[output] format {fmt!r} is not one of {_FORMATS}")
    if n_list is not None:
        if len(n_list) < 3 or any(b <= a for a, b in zip(n_list, n_list[1:])):
            violations.append(
                f"[study] N_list = {list(n_list)} must be strictly increasing "
                f"with length >= 3"
            )
    for q in q_list:
        if not (1.0 <= q < p):
            violations.append(
                f"[study] q = {q} violates q in [1, p); strong convergence only "
                f"holds below p = {p}"
            )
    if state_dt <= 0:
        violations.append(f"[study] state_dt = {state_dt} violates state_dt > 0")
    if v_count < 1:
        violations.append(f"[verify] count = {v_count} violates count >= 1")
    if v_band < 1:
        violations.append(f"[verify] band = {v_band} violates band >= 1")

    if violations:
        raise ConfigError(violations)

    solver = SolverConfig(
        dim=dim, M=M, L=L, dealias=dealias, p=p, mu=mu, N=N,
        lambda_cut=lambda_cut, record_d2=record_d2, T=T, rtol=rtol, atol=atol,
        dt_min=dt_min, sample_dt=sample_dt, init_kind=kind, seed=seed,
        band=band, amplitude=amplitude, decay=decay, path=path,
    )
    return RunConfig(
        solver=solver, output_dir=out_dir, output_formats=tuple(formats),
        study_N_list=n_list, study_q_list=q_list, study_state_dt=state_dt,
        verify_count=v_count, verify_seed=v_seed, verify_band=v_band,
        verify_decay=v_decay, verify_amplitude=v_amp,
    )


def load_config(path) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def serialize_config(cfg: RunConfig) -> str:
    """Canonical round-trippable text form."""
    s = cfg.solver
    out = io.StringIO()

    def sec(name, pairs):
        rows = [(k, v) for k, v in pairs if v is not None]
        if not rows:
            return
        out.write(f"[{name}]\n")
        for k, v in rows:
            if isinstance(v, bool):
                v = "true" if v else "false"
            elif isinstance(v, float):
                v = repr(v)
            elif isinstance(v, (tuple, list)):
                v = ",".join(repr(x) if isinstance(x, float) else str(x) for x in v)
            out.write(f"{k} = {v}\n")
        out.write("\n")

    sec("grid", [("dim", s.dim), ("M", s.M), ("L", s.L), ("dealias", s.dealias)])
    sec("fluid", [("p", s.p), ("mu", s.mu)])
    sec("galerkin", [("N", s.N), ("lambda_cut", s.lambda_cut),
                     ("record_d2", s.record_d2)])
    sec("time", [("T", s.T), ("rtol", s.rtol), ("atol", s.atol),
                 ("dt_min", s.dt_min), ("sample_dt", s.sample_dt)])
    sec("init", [("kind", s.init_kind), ("seed", s.seed), ("band", s.band),
                 ("amplitude", s.amplitude), ("decay", s.decay), ("path", s.path)])
    sec("output", [("directory", cfg.output_dir),
                   ("formats", ",".join(cfg.output_formats))])
    sec("study", [("N_list", cfg.study_N_list), ("q_list", cfg.study_q_list),
                  ("state_dt", cfg.study_state_dt)])
    sec("verify", [("count", cfg.verify_count), ("seed", cfg.verify_seed),
                   ("band", cfg.verify_band), ("decay", cfg.verify_decay),
                   ("amplitude", cfg.verify_amplitude)])
    return out.getvalue()


def with_overrides(cfg: RunConfig, **solver_overrides) -> RunConfig:
    return replace(cfg, solver=replace(cfg.solver, **solver_overrides))
