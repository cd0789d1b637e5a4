"""Span tracing of the plsf layers from outside the package.

`Tracer.install` wraps, at run time, the public functions and methods of
every plsf module, plus the private RHS kernel, and patches each wrapped
name wherever it is looked up: in the defining module, in every module
that imported it with `from .x import y`, and in the package namespace.
No plsf source is edited.

A span is [name, start_ns, end_ns, parent index, run id, attribute].
Spans stay in memory and are written out once, at the end of the child
process.  `layer_metrics` turns them into the per-layer metrics of the
benchmark: calls, self time (duration minus the time covered by child
spans), channel counts, computed transform work and file bytes.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import time
from collections import defaultdict

MODULES = ("grid", "fields", "basis", "constitutive", "galerkin", "gap",
           "inequalities", "config", "cli")

# Private functions that are layer boundaries, and the span names used for
# methods of each module's central class, named after the module alone.
EXTRA = {("galerkin", "_rhs_parts"): "galerkin.rhs"}
ALIAS = {"grid.TorusGrid.": "grid.", "basis.StokesBasis.": "basis."}


def _transform_attr(args, result):
    """Channels, computed flops and computed bytes of one padded transform.

    Flops follow the usual real-FFT estimate 2.5 n log2 n per channel on
    the padded grid of n points; bytes are the input plus output array
    sizes.  Both are computed from shapes, not measured."""
    grid, data = args[0], args[1]
    channels = math.prod(data.shape[: data.ndim - grid.dim])
    n = math.prod(grid.padded_shape)
    flops = channels * 2.5 * n * math.log2(n)
    return [channels, flops, int(data.nbytes + result.nbytes)]


def _file_bytes(path_arg: int):
    def attr(args, result):
        return os.path.getsize(args[path_arg])
    return attr


def _make_basis_key(args, result):
    return f"{args[0]!r}|{args[1]}"


def _partition_key(args, result):
    record, s, t, alpha, gamma = args[:5]
    return f"{id(record)}|{s!r}|{t!r}|{alpha!r}|{gamma!r}"


ATTRS = {
    "grid.to_physical": _transform_attr,
    "grid.to_spectral": _transform_attr,
    "galerkin.TrajectoryRecord.to_csv": _file_bytes(1),
    "galerkin.TrajectoryRecord.from_csv": _file_bytes(1),
    "fields.save_checkpoint": _file_bytes(0),
    "fields.load_checkpoint": _file_bytes(0),
    "basis.make_basis": _make_basis_key,
    "gap.exceedance_partition": _partition_key,
}


def span_name(module: str, qualname: str) -> str:
    name = f"{module}.{qualname}"
    for prefix, repl in ALIAS.items():
        if name.startswith(prefix):
            return repl + name[len(prefix):]
    return name


def patch_everywhere(package, original, replacement) -> None:
    """Rebind every name in the package and its modules that refers to
    `original`, so callers that look the name up get `replacement`."""
    for ns in [package, *(getattr(package, m) for m in MODULES)]:
        for attr_name, obj in list(vars(ns).items()):
            if obj is original:
                setattr(ns, attr_name, replacement)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        attr = ATTRS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        run_id = self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, run_id, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if attr is not None:
                spans[idx][5] = attr(args, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every layer boundary of `package`."""
        modules = {m: getattr(package, m) for m in MODULES}
        replace: dict[int, tuple] = {}
        for mod_name, mod in modules.items():
            for attr_name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = EXTRA.get((mod_name, attr_name))
                    if name is None and attr_name.startswith("_"):
                        continue
                    name = name or span_name(mod_name, attr_name)
                    replace[id(obj)] = (obj, self.wrap(name, obj))
                elif inspect.isclass(obj) and not attr_name.startswith("_"):
                    self._wrap_methods(mod_name, obj)
        for original, wrapper in replace.values():
            patch_everywhere(package, original, wrapper)

    def _wrap_methods(self, mod_name: str, cls) -> None:
        for attr_name, raw in list(vars(cls).items()):
            if attr_name.startswith("_"):
                continue
            name = span_name(mod_name, f"{cls.__name__}.{attr_name}")
            if isinstance(raw, classmethod):
                setattr(cls, attr_name, classmethod(self.wrap(name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr_name, staticmethod(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr_name, self.wrap(name, raw))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


# -- derived metrics -----------------------------------------------------------


def self_times(spans) -> list[float]:
    """Self time in seconds of each span: its duration minus the part of
    its interval that its child spans cover."""
    covered: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent].append((start, end))
    out = []
    for idx, (name, start, end, *_) in enumerate(spans):
        inside, reach = 0, start
        for s, e in sorted(covered.get(idx, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                inside += e - s
                reach = e
        out.append((end - start - inside) * 1e-9)
    return out


def inclusive_times(spans) -> dict[str, float]:
    """Wall time under each span name, counting nested same-name spans once."""
    totals: dict[str, float] = defaultdict(float)
    for name, start, end, parent, *_ in spans:
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            totals[name] += (end - start) * 1e-9
    return totals


def aggregate(spans) -> dict:
    """Per span name: calls, self_s, inclusive_s, and the attribute list."""
    selfs = self_times(spans)
    incl = inclusive_times(spans)
    agg: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "attrs": []})
    for span, self_s in zip(spans, selfs):
        row = agg[span[0]]
        row["calls"] += 1
        row["self_s"] += self_s
        if span[5] is not None:
            row["attrs"].append(span[5])
    for name, row in agg.items():
        row["inclusive_s"] = incl[name]
    return dict(agg)


def _ratio(num: float, den: float) -> float:
    # a layer that was never called wasted nothing and did nothing: report 0
    return num / den if den else 0.0


def layer_metrics(spans, wall_s: float, import_s: float, steps: int,
                  rejections: int) -> dict[str, float]:
    """The per-layer metrics of one traced operation.

    `share` is a layer's wall time, nested calls counted once, over the
    traced operation's wall time; `cli.self_s` is the self time of all
    cli functions together, `cli.main` (the whole command) included."""
    agg = aggregate(spans)
    empty = {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0, "attrs": []}
    get = lambda name: agg.get(name, empty)
    m: dict[str, float] = {}

    flops = nbytes = 0.0
    for name in ("grid.to_physical", "grid.to_spectral"):
        row = get(name)
        m[f"{name}.calls"] = row["calls"]
        m[f"{name}.channels"] = sum(a[0] for a in row["attrs"])
        m[f"{name}.self_s"] = row["self_s"]
        flops += sum(a[1] for a in row["attrs"])
        nbytes += sum(a[2] for a in row["attrs"])
    m["grid.transform.flops_computed"] = flops
    m["grid.transform.bytes_computed"] = nbytes

    m["galerkin.steps"] = steps
    m["galerkin.rejections"] = rejections
    m["galerkin.accept_ratio"] = _ratio(steps, steps + rejections)
    for name, stats in (
        ("galerkin.rhs", ("calls", "self_s", "share")),
        ("galerkin.advance", ("self_s",)),
        ("galerkin.state_functionals", ("calls", "self_s", "share")),
        ("galerkin.StepSegment.interpolate", ("calls", "self_s")),
        ("galerkin.TrajectoryRecord.to_csv", ("self_s", "bytes")),
        ("galerkin.TrajectoryRecord.from_csv", ("self_s", "bytes")),
        ("galerkin.run_trajectory", ("self_s",)),
        ("constitutive.rho_tilde", ("calls", "self_s")),
        ("constitutive.I_p", ("calls", "self_s")),
        ("fields.hessian_samples", ("self_s",)),
        ("fields.grad_sym_gradient_samples", ("self_s",)),
        ("fields.lp_norm", ("calls", "self_s")),
        ("fields.representative_modes", ("calls", "self_s")),
        ("fields.save_checkpoint", ("self_s", "bytes")),
        ("fields.load_checkpoint", ("self_s", "bytes")),
        ("fields.random_solenoidal", ("self_s",)),
        ("basis.make_basis", ("calls", "self_s", "distinct_ratio", "share")),
        ("basis.basis_capacity", ("self_s",)),
        ("basis.synthesize_coeffs", ("calls", "self_s")),
        ("basis.project_coeffs", ("calls", "self_s")),
        ("gap.exceedance_partition", ("calls", "self_s", "distinct_ratio", "share")),
        ("gap.gap_estimate", ("self_s",)),
        ("gap.energy_residual_over", ("calls", "self_s")),
        ("inequalities.FieldEnsemble.generate", ("self_s",)),
        ("inequalities.check_lemma1", ("self_s",)),
        ("inequalities.check_friedrichs", ("self_s",)),
        ("inequalities.check_lemma3", ("self_s",)),
        ("inequalities.check_interpolations", ("self_s",)),
        ("inequalities.check_ap3", ("self_s",)),
        ("config.load_config", ("self_s",)),
    ):
        row = get(name)
        for stat in stats:
            if stat == "bytes":
                value = sum(row["attrs"])
            elif stat == "distinct_ratio":
                value = _ratio(len(set(row["attrs"])), row["calls"])
            elif stat == "share":
                value = _ratio(row["inclusive_s"], wall_s)
            else:
                value = row[stat]
            m[f"{name}.{stat}"] = value
    m["cli.import_s"] = import_s
    m["cli.self_s"] = sum(row["self_s"] for name, row in agg.items()
                          if name.startswith("cli."))
    return m
