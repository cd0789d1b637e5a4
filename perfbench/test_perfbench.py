"""Self-checks of the benchmark: span arithmetic, smoke runs of every
workload at tiny sizes, and the RHS count identity of the integrator.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(run.SRC))


def span(name, start, end, parent, attr=None):
    return [name, start, end, parent, "r", attr]


# root [0, 100] -> A [10, 40] -> C [20, 30]
#               -> B [50, 90] -> D [55, 60], E [70, 80]
TREE = [
    span("root", 0, 100, -1),
    span("A", 10, 40, 0),
    span("C", 20, 30, 1),
    span("B", 50, 90, 0),
    span("D", 55, 60, 3),
    span("E", 70, 80, 3),
]


def test_self_time_is_duration_minus_children():
    got = [round(x * 1e9) for x in spans.self_times(TREE)]
    assert got == [30, 20, 10, 25, 5, 10]


def test_self_times_sum_to_root_duration():
    assert round(sum(spans.self_times(TREE)) * 1e9) == 100


def test_inclusive_time_counts_nested_same_name_once():
    tree = [span("f", 0, 50, -1), span("g", 5, 45, 0), span("f", 10, 20, 1),
            span("f", 60, 70, -1)]
    incl = spans.inclusive_times(tree)
    assert round(incl["f"] * 1e9) == 60
    assert round(incl["g"] * 1e9) == 40


def test_distinct_ratio_and_share():
    tree = [span("cli.main", 0, 1000, -1)]
    for i, key in enumerate("aabb"):
        tree.append(span("gap.exceedance_partition", 100 * i, 100 * i + 50, 0, key))
    m = spans.layer_metrics(tree, wall_s=1000e-9, import_s=0.0, steps=0, rejections=0)
    assert m["gap.exceedance_partition.calls"] == 4
    assert m["gap.exceedance_partition.distinct_ratio"] == 0.5
    assert m["gap.exceedance_partition.share"] == pytest.approx(0.2)
    assert m["cli.self_s"] == pytest.approx(800e-9)
    assert m["basis.make_basis.distinct_ratio"] == 0.0  # never called


def test_tracer_patches_names_where_they_are_looked_up():
    import plsf
    import plsf.galerkin

    # run in a child so the wrapping does not leak into other tests
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import plsf, plsf.cli, spans\n"
        "t = spans.Tracer('x'); t.install(plsf)\n"
        "import plsf.galerkin as g, plsf.fields as f\n"
        "assert g.lp_norm is f.lp_norm and g.gradient is f.gradient\n"
        "assert hasattr(g.lp_norm, '__wrapped__')\n"
        "assert plsf.run_trajectory is g.run_trajectory\n"
        "assert hasattr(g._rhs_parts, '__wrapped__')\n"
    ) % (str(run.SRC), str(HERE))
    subprocess.run([sys.executable, "-c", code], check=True)
    assert not hasattr(plsf.galerkin.lp_norm, "__wrapped__")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke(name, trace):
    values, attempted, failed = run.run_workload(name, seed=3, seconds=0.1,
                                                 trace=trace, scale=workloads.TINY)
    assert attempted >= 1 and failed == 0
    if not trace:
        assert set(values) == set(run.END_TO_END)
        assert all(v > 0 for v in values.values())
        return
    assert "trace.overhead_s" in values
    if name.startswith("run"):
        steps, rejections = values["galerkin.steps"], values["galerkin.rejections"]
        assert steps > 0
        assert values["galerkin.rhs.calls"] == steps + 6 * (steps + rejections)


def test_rhs_count_identity_on_the_acceptance_config(tmp_path):
    session = run.Session(workloads.WORKLOADS["run2d"], 0, workloads.FULL,
                          tmp_path / "work")
    result, trace = session.operation(traced=True)
    assert session.failed == 0
    m = spans.layer_metrics(trace, result.wall_s, 0.0, result.summary["steps"],
                            result.summary["rejections"])
    steps, rejections = m["galerkin.steps"], m["galerkin.rejections"]
    assert m["galerkin.rhs.calls"] == steps + 6 * (steps + rejections)


def test_gap_check_rejects_a_moved_endpoint(tmp_path):
    session = run.Session(workloads.WORKLOADS["gap"], 1, workloads.TINY,
                          tmp_path / "work")
    op = session.work / "op"  # beside inputs/, as the argv expects
    op.mkdir()
    cmd = [sys.executable, "-m", "plsf.cli", *session.argv]
    env = {**run.child_env(), "PYTHONPATH": str(run.SRC)}
    rc = subprocess.run(cmd, cwd=op, env=env, capture_output=True).returncode
    assert workloads.WORKLOADS["gap"].check(op, session.inputs, rc) == []
    report = json.loads((op / "gap_report.json").read_text())
    iv, k = next((iv, k) for b in report["alphas"] for r in b["per_N"]
                 for iv in r["intervals"] for k in (0, 1) if 0.0 < iv[k] < 1.0)
    iv[k] *= 1 + 1e-8
    (op / "gap_report.json").write_text(json.dumps(report))
    assert workloads.WORKLOADS["gap"].check(op, session.inputs, rc)


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gap", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
