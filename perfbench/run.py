"""plsf benchmark: four real CLI workloads, timed end to end, traced per layer.

    python3 perfbench/run.py [--workload run2d|run3d|gap|verify3d|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from its `src/`.
Every input is generated from `--seed` into `.bench_work/`.  Operations
run one at a time (closed loop, one client), each in a fresh child
process with numerical-library thread counts pinned to 1 and
`PLSF_THREADS` unset.

With `--trace 0` a run first launches a few set-up probes (children that
stop at the first call into the main loop), then whole operations until
`--seconds` is used up (at least one), and reports medians:

    wall_s       child launch to exit
    setup_s      child launch to the first main-loop call
    cpu_s        user + system CPU time of the child
    peak_rss_mb  peak resident memory of the child

With `--trace 1` it alternates untraced and traced operations and reports
the per-layer metrics of `spans.layer_metrics` (medians over the traced
operations) and the tracing overhead `trace.overhead_s`, traced minus
untraced `wall_s`.

Each operation is checked (see workloads.py).  The last stdout line is one
JSON object {correct, attempted, failed, metrics}; the exit code is 1 if
any check failed, 2 if the checkout holds no plsf sources.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_LIMIT_S = 150.0  # kill a hung child well inside the run's own limit
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PLSF_THREADS", None)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def environment() -> dict:
    """Machine and library record printed with every result."""
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(f"{index}/level").strip()
        kind = _read(f"{index}/type").strip()
        caches[f"L{level}{kind[:1].lower()}"] = _read(f"{index}/size").strip()
    env = child_env()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "child_threads": {var: env[var] for var in THREAD_VARS},
        "PLSF_THREADS": "unset",
    }


# -- one child -----------------------------------------------------------------


@dataclass
class Launch:
    """Outcome of one child process."""

    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    mark: dict  # written by child.py, plus the launch time
    summary: dict = field(default_factory=dict)  # the run's summary.json

    @property
    def setup_s(self) -> float | None:
        first = self.mark.get("first_call")
        return None if first is None else first - self.mark["launched"]


def launch(workload, op_dir: Path, argv, setup_only=False, spans=None) -> Launch:
    op_dir.mkdir(parents=True)
    mark_path = op_dir / "mark.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC),
           "--mark", str(mark_path)]
    for target in workload.first:
        cmd += ["--first", target]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans), "--run-id", op_dir.name]
    cmd += ["--", *argv]
    with open(op_dir / "stdout.txt", "wb") as out, open(op_dir / "stderr.txt", "wb") as err:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=op_dir, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall_s = time.monotonic() - launched
    proc.returncode = os.waitstatus_to_exitcode(status)
    mark = json.loads(_read(str(mark_path)) or "{}")
    mark["launched"] = launched
    rc = proc.returncode
    if rc != 0:
        tail = _read(str(op_dir / "stderr.txt")).strip().splitlines()[-5:]
        print(f"{workload.name}: {op_dir.name} exited {rc}: " + " | ".join(tail),
              file=sys.stderr)
    return Launch(rc, wall_s, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss * 1024 / 1e6, mark)


# -- one workload ----------------------------------------------------------------


class Session:
    """Inputs, operation directories and output checks of one workload run."""

    def __init__(self, workload, seed: int, scale, work: Path):
        from workloads import tree_digest

        self.workload = workload
        self.work = work
        self.inputs = work / "inputs"
        self.inputs.mkdir(parents=True)
        self.argv = workload.prepare(self.inputs, seed, scale)
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.digest_key = f"{workload.name}:{tree_digest(SRC / 'plsf', self.inputs)}"
        self.digest = None

    def _next_dir(self) -> Path:
        self.count += 1
        return self.work / f"op{self.count:03d}"

    def probe(self) -> float | None:
        """Launch the command up to its main loop; returns setup_s."""
        op_dir = self._next_dir()
        result = launch(self.workload, op_dir, self.argv, setup_only=True)
        shutil.rmtree(op_dir)
        self.attempted += 1
        if result.rc != 0 or result.setup_s is None:
            self.failed += 1
            return None
        return result.setup_s

    def operation(self, traced=False):
        """One whole command, checked; returns (Launch, spans or None)."""
        from workloads import output_digest

        op_dir = self._next_dir()
        spans_path = op_dir / "spans.json" if traced else None
        result = launch(self.workload, op_dir, self.argv, spans=spans_path)
        problems = self.workload.check(op_dir, self.inputs, result.rc)
        if not problems and self.workload.digests:
            problems = self._check_digest(output_digest(op_dir, self.workload.digests))
        if result.rc == 0 and result.setup_s is None:
            problems.append("the main loop was never entered")
        spans = json.loads(spans_path.read_text()) if traced and result.rc == 0 else None
        summary = op_dir / "out" / "summary.json"
        result.summary = json.loads(summary.read_text()) if summary.exists() else {}
        shutil.rmtree(op_dir)
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"{self.workload.name}: {op_dir.name} failed: " + "; ".join(problems),
                  file=sys.stderr)
        return result, spans

    def _check_digest(self, digest: dict) -> list[str]:
        """Outputs must repeat byte for byte: across operations of this run
        and across runs of the same sources (kept in .bench_work)."""
        if self.digest is None:
            store = WORK / "digests.json"
            known = json.loads(_read(str(store)) or "{}")
            self.digest = known.setdefault(self.digest_key, digest)
            tmp = store.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
            os.replace(tmp, store)
        return [f"{name} differs from an earlier run of the same code"
                for name in digest if digest[name] != self.digest.get(name)]


def measure(session: Session, seconds: float) -> dict:
    """Untraced: set-up probes, then whole operations until the time is used."""
    start = time.monotonic()
    setups = []
    while len(setups) < 3 or (len(setups) < 9 and time.monotonic() - start < 0.25 * seconds):
        s = session.probe()
        if s is None:
            break
        setups.append(s)
    ops = []
    while not ops or time.monotonic() - start + max(r.wall_s for r in ops) <= seconds:
        result, _ = session.operation()
        ops.append(result)
        if result.setup_s is not None:
            setups.append(result.setup_s)
    med = lambda xs: statistics.median(xs) if xs else 0.0
    return {
        "wall_s": med([r.wall_s for r in ops]),
        "setup_s": med(setups),
        "cpu_s": med([r.cpu_s for r in ops]),
        "peak_rss_mb": med([r.peak_rss_mb for r in ops]),
    }


def measure_traced(session: Session, seconds: float) -> dict:
    """Pairs of one untraced and one traced operation; per-layer medians."""
    from spans import layer_metrics

    start = time.monotonic()
    plain, traced, layers = [], [], []
    while not plain or (time.monotonic() - start
                        + max(a + b for a, b in zip(plain, traced)) <= seconds):
        result, _ = session.operation()
        plain.append(result.wall_s)
        result, spans = session.operation(traced=True)
        traced.append(result.wall_s)
        if spans is not None:
            metrics = layer_metrics(spans, result.wall_s, result.mark["import_s"],
                                    result.summary.get("steps", 0),
                                    result.summary.get("rejections", 0))
            metrics["trace.spans"] = len(spans)
            layers.append(metrics)
    out = {name: statistics.median(m[name] for m in layers) for name in layers[0]} \
        if layers else {}
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale=None) -> tuple[dict, int, int]:
    import workloads

    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        session = Session(workloads.WORKLOADS[name], seed, scale or workloads.FULL, work)
        # untimed warm-up: byte-compiles the sources and fills the file cache
        launch(session.workload, work / "warmup", ["--help"])
        values = (measure_traced if trace else measure)(session, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return values, session.attempted, session.failed


def _units(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    stat = name.rsplit(".", 1)[-1]
    return {"self_s": "s", "import_s": "s", "overhead_s": "s", "bytes": "B",
            "flops_computed": "flop", "bytes_computed": "B", "share": "1",
            "accept_ratio": "1", "distinct_ratio": "1"}.get(stat, "count")


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "plsf" / "cli.py").is_file():
        print(f"no plsf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    print(json.dumps({"environment": environment()}))
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        values, n_att, n_fail = run_workload(name, args.seed, args.seconds,
                                             bool(args.trace))
        attempted += n_att
        failed += n_fail
        prefix = "" if len(names) == 1 else f"{name}."
        print(f"{name}: {n_att} operations attempted, {n_fail} failed"
              f" ({workloads.WORKLOADS[name].why})")
        for metric, value in values.items():
            print(f"  {metric:<44} {value:>16.6g} {_units(metric)}")
            metrics[prefix + metric] = {"value": value, "unit": _units(metric)}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
