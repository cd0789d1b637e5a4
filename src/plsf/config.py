"""Run configuration: INI-style parsing, range validation, canonical
serialization.

`_SETTINGS` declares every (section, key) once: the `RunConfig` or
`SolverConfig` attribute it fills, its value kind and its single-key
range rule.  Defaults live only on those dataclasses.  Every number must
be finite: the float kinds reject nan and inf when they convert, so no
range check can be passed by NaN.  Validation collects every violation
instead of stopping at the first, and unknown sections or keys are named
explicitly.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable, NamedTuple

from .errors import ConfigError
from .galerkin import SolverConfig

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


class _NotFinite(ValueError):
    """A float setting parsed to nan or +-inf."""


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise _NotFinite(raw)
    return value


def _to_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _items(raw: str) -> list[str]:
    return [x.strip() for x in raw.split(",") if x.strip()]


class _Kind(NamedTuple):
    describe: str
    parse: Callable[[str], object]


_INT = _Kind("integer", int)
_FLOAT = _Kind("number", _finite)
_BOOL = _Kind("boolean", _to_bool)
_STR = _Kind("string", str)
_INT_LIST = _Kind("integer list", lambda raw: tuple(int(x) for x in _items(raw)))
_FLOAT_LIST = _Kind("number list", lambda raw: tuple(_finite(x) for x in _items(raw)))
_STR_LIST = _Kind("list", lambda raw: tuple(_items(raw)))


class _Setting(NamedTuple):
    section: str
    key: str
    attr: str  # RunConfig attribute, or SolverConfig attribute of RunConfig.solver
    kind: _Kind
    ok: Callable[[object], bool] | None = None  # single-key range rule
    rule: str = ""  # the rule as violation messages state it


_SETTINGS = (
    _Setting("grid", "dim", "dim", _INT, lambda v: v in (2, 3), "dim in {2, 3}"),
    _Setting("grid", "M", "M", _INT, lambda v: v >= 8 and v % 2 == 0, "M even and >= 8"),
    _Setting("grid", "L", "L", _FLOAT, lambda v: v > 0, "L > 0"),
    _Setting("grid", "dealias", "dealias", _FLOAT, lambda v: v >= 1, "dealias >= 1"),
    _Setting("fluid", "p", "p", _FLOAT, lambda v: 1.0 < v <= 2.0, "p in (1, 2]"),
    _Setting("fluid", "mu", "mu", _FLOAT, lambda v: v >= 0, "mu >= 0"),
    _Setting("galerkin", "N", "N", _INT, lambda v: v >= 1, "N >= 1"),
    _Setting("galerkin", "lambda_cut", "lambda_cut", _FLOAT, lambda v: v > 0,
             "lambda_cut > 0"),
    _Setting("galerkin", "record_d2", "record_d2", _BOOL),
    _Setting("time", "T", "T", _FLOAT, lambda v: v >= 0, "T >= 0"),
    _Setting("time", "rtol", "rtol", _FLOAT, lambda v: v > 0, "rtol > 0"),
    _Setting("time", "atol", "atol", _FLOAT, lambda v: v >= 0, "atol >= 0"),
    _Setting("time", "dt_min", "dt_min", _FLOAT, lambda v: v > 0, "dt_min > 0"),
    _Setting("time", "sample_dt", "sample_dt", _FLOAT, lambda v: v > 0, "sample_dt > 0"),
    _Setting("init", "kind", "init_kind", _STR),
    _Setting("init", "seed", "seed", _INT),
    _Setting("init", "band", "band", _INT, lambda v: v >= 1, "band >= 1"),
    _Setting("init", "amplitude", "amplitude", _FLOAT),
    _Setting("init", "decay", "decay", _FLOAT),
    _Setting("init", "path", "path", _STR),
    _Setting("output", "directory", "output_dir", _STR),
    _Setting("output", "formats", "output_formats", _STR_LIST),
    _Setting("study", "N_list", "study_N_list", _INT_LIST, lambda v: all(n >= 1 for n in v),
             "every N >= 1"),
    _Setting("study", "q_list", "study_q_list", _FLOAT_LIST),
    _Setting("study", "state_dt", "study_state_dt", _FLOAT, lambda v: v > 0,
             "state_dt > 0"),
    _Setting("verify", "count", "verify_count", _INT, lambda v: v >= 1, "count >= 1"),
    _Setting("verify", "seed", "verify_seed", _INT),
    _Setting("verify", "band", "verify_band", _INT, lambda v: v >= 1, "band >= 1"),
    _Setting("verify", "decay", "verify_decay", _FLOAT),
    _Setting("verify", "amplitude", "verify_amplitude", _FLOAT, lambda v: v != 0,
             "amplitude != 0"),
)

_SOLVER_ATTRS = frozenset(f.name for f in fields(SolverConfig))


def _value(cfg: RunConfig, setting: _Setting):
    owner = cfg.solver if setting.attr in _SOLVER_ATTRS else cfg
    return getattr(owner, setting.attr)


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ConfigError listing every violation."""
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str  # keys are case-sensitive (M, T, N_list)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"malformed config: {exc}"]) from exc

    violations: list[str] = []
    known = {(s.section, s.key) for s in _SETTINGS}
    sections = {s.section for s in _SETTINGS}
    for section in parser.sections():
        if section not in sections:
            violations.append(f"unknown section [{section}]")
            continue
        for key in parser.options(section):
            if (section, key) not in known:
                violations.append(f"unknown key {key!r} in section [{section}]")

    solver_values, run_values = {}, {}
    for s in _SETTINGS:
        if not parser.has_option(s.section, s.key):
            continue
        raw = parser.get(s.section, s.key)
        try:
            value = s.kind.parse(raw)
        except _NotFinite:
            need = f" (need {s.rule})" if s.rule else ""
            violations.append(
                f"[{s.section}] {s.key} = {raw!r} is not a finite {s.kind.describe}{need}"
            )
            continue
        except (TypeError, ValueError):
            violations.append(
                f"[{s.section}] {s.key} = {raw!r} is not a valid {s.kind.describe}"
            )
            continue
        (solver_values if s.attr in _SOLVER_ATTRS else run_values)[s.attr] = value
    cfg = RunConfig(solver=SolverConfig(**solver_values), **run_values)

    for s in _SETTINGS:
        value = _value(cfg, s)
        if s.ok is not None and value is not None and not s.ok(value):
            violations.append(f"[{s.section}] {s.key} = {value} violates {s.rule}")

    sc = cfg.solver
    if sc.N is not None and sc.lambda_cut is not None:
        violations.append("[galerkin] give N or lambda_cut, not both")
    if sc.init_kind not in _INIT_KINDS:
        violations.append(f"[init] kind = {sc.init_kind!r} is not one of {_INIT_KINDS}")
    if sc.init_kind == "checkpoint" and not sc.path:
        violations.append("[init] kind = checkpoint needs a path")
    for fmt in cfg.output_formats:
        if fmt not in _FORMATS:
            violations.append(f"[output] format {fmt!r} is not one of {_FORMATS}")
    n_list = cfg.study_N_list
    if n_list is not None:
        # only the convergence study reads q_list, and it requires N_list
        if len(n_list) < 3 or any(b <= a for a, b in zip(n_list, n_list[1:])):
            violations.append(
                f"[study] N_list = {list(n_list)} must be strictly increasing "
                f"with length >= 3"
            )
        for q in cfg.study_q_list:
            if not (1.0 <= q < sc.p):
                violations.append(
                    f"[study] q = {q} violates q in [1, p); strong convergence only "
                    f"holds below p = {sc.p}"
                )

    if violations:
        raise ConfigError(violations)
    return cfg


def load_config(path) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ",".join(repr(x) if isinstance(x, float) else str(x) for x in value)
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical round-trippable text form; unset (None) keys are left out,
    and so is a section with no key set."""
    lines: dict[str, list[str]] = {}
    for s in _SETTINGS:
        value = _value(cfg, s)
        if value is not None:
            lines.setdefault(s.section, []).append(f"{s.key} = {_format(value)}\n")
    return "".join(f"[{section}]\n{''.join(rows)}\n" for section, rows in lines.items())


def with_overrides(cfg: RunConfig, **solver_overrides) -> RunConfig:
    return replace(cfg, solver=replace(cfg.solver, **solver_overrides))
