"""Golden artifacts: the bytes of small CLI runs, pinned by sha256.

Each case runs one `plsf` command on a small fixed input and compares the
sha256 of every artifact with `golden_digests.json`.  FFT bits can differ
between numpy builds and CPUs, so the table is keyed on the numpy version
and `platform.machine()`.  In an environment with no entry the cases skip,
naming the key, so a missing table shows as a skip and never as a pass.

The table also keeps each CSV column and each JSON value, only so that a
mismatch reports how far every value moved and not just that the bytes
differ.  After a change that moves artifact bytes on purpose, rewrite the
current environment's entry with

    PYTHONPATH=src python3 tests/test_golden.py --record
"""

import hashlib
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from plsf.cli import SUITES, main
from test_config_cli import CONVERGE_CFG, VERIFY_CFG, make_family

TABLE = Path(__file__).with_name("golden_digests.json")

RUN2D_CFG = """
[grid]
dim = 2
M = 16

[fluid]
p = 1.9
mu = 1.0

[time]
T = 0.1
sample_dt = 0.02

[init]
kind = taylor_green

[output]
formats = csv,json,checkpoint
"""

RUN3D_CFG = """
[grid]
dim = 3
M = 8

[fluid]
p = 1.85
mu = 0.5

[galerkin]
record_d2 = true

[time]
T = 0.05
sample_dt = 0.01

[init]
kind = random_band
band = 2
seed = 3
amplitude = 1.0

[output]
formats = csv,json,checkpoint
"""

RUN_FILES = ("trajectory.csv", "summary.json", "final_state.plsf")
# thresholds straddling the family's range of rho^gamma, as the CLI gap
# test takes them
GAP_ALPHAS = ",".join(repr(float(np.arctan(r))) for r in (1e2, 1e4, 1e6, 1e8))


def _config(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _run(text):
    def produce(workdir):
        assert main(["run", _config(workdir, "run.cfg", text), "--out", str(workdir)]) == 0
        return {name: workdir / name for name in RUN_FILES}
    return produce


def _verify(workdir):
    out = workdir / "verify.json"
    assert main(["verify", _config(workdir, "verify.cfg", VERIFY_CFG),
                 "--suites", ",".join(SUITES), "--out", str(out)]) == 0
    return {"verify.json": out}


def _gap(workdir):
    out = workdir / "gap.json"
    assert main(["gap", str(make_family(workdir)), "--s", "0.0", "--t", "0.3",
                 "--alphas", GAP_ALPHAS, "--out", str(out)]) == 0
    return {"gap.json": out}


def _converge(workdir):
    out = workdir / "convergence_report.json"
    assert main(["converge", _config(workdir, "converge.cfg", CONVERGE_CFG),
                 "--out", str(out)]) == 0
    return {"convergence_report.json": out}


CASES = {"run2d": _run(RUN2D_CFG), "run3d": _run(RUN3D_CFG), "verify": _verify,
         "gap": _gap, "converge": _converge}


def environment_key() -> str:
    return f"numpy-{np.__version__}-{platform.machine()}"


def _numbers(path: Path):
    """The values a mismatch report compares: a CSV's columns by header,
    or a JSON document's leaves by path.  None for a binary artifact."""
    if path.suffix == ".csv":
        header, *rows = path.read_text().splitlines()
        cols = [[float(x) for x in row.split(",")] for row in rows]
        return {name: [row[k] for row in cols] for k, name in enumerate(header.split(","))}
    if path.suffix == ".json":
        leaves = {}

        def walk(node, where):
            if isinstance(node, dict):
                for key, value in node.items():
                    walk(value, f"{where}.{key}" if where else key)
            elif isinstance(node, list):
                for k, value in enumerate(node):
                    walk(value, f"{where}[{k}]")
            else:
                leaves[where] = node
        walk(json.loads(path.read_text(encoding="utf-8")), "")
        return leaves
    return None


def _entry(path: Path) -> dict:
    entry = {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    numbers = _numbers(path)
    if numbers is not None:
        entry["values"] = numbers
    return entry


def _relative(a, b) -> float:
    """|a - b| / max(|a|, |b|), 0 for equal values and inf when only one
    is a number."""
    if a == b or (isinstance(a, float) and isinstance(b, float)
                  and math.isnan(a) and math.isnan(b)):
        return 0.0
    numeric = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b))
    if not numeric:
        return math.inf
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale and math.isfinite(scale) else math.inf


def _differences(name: str, expected: dict, got: dict) -> list[str]:
    """What moved in one artifact: the largest relative difference of
    each CSV column, or that of each JSON value that changed."""
    lines = [f"{name}: sha256 {got['sha256']} != {expected['sha256']}"]
    old, new = expected.get("values"), got.get("values")
    if old is None or new is None:
        return lines
    for key in sorted(old.keys() | new.keys()):
        if key not in old or key not in new:
            lines.append(f"  {key}: only in the {'new' if key in new else 'recorded'} artifact")
        elif isinstance(old[key], list):
            if len(old[key]) != len(new[key]):
                lines.append(f"  {key}: {len(new[key])} rows, recorded {len(old[key])}")
            else:
                worst = max((_relative(a, b) for a, b in zip(old[key], new[key])), default=0.0)
                lines.append(f"  {key}: largest relative difference {worst:.3e}")
        elif (rel := _relative(old[key], new[key])) > 0.0:
            lines.append(f"  {key}: {new[key]!r}, recorded {old[key]!r} "
                         f"(relative difference {rel:.3e})")
    return lines


def _recorded() -> dict:
    return json.loads(TABLE.read_text(encoding="utf-8")) if TABLE.exists() else {}


@pytest.mark.parametrize("case", list(CASES))
def test_artifacts_match_the_golden_digests(case, tmp_path, monkeypatch):
    key = environment_key()
    table = _recorded().get(key)
    if table is None:
        pytest.skip(f"no golden digests recorded for environment {key}")
    monkeypatch.chdir(tmp_path)
    got = {name: _entry(path) for name, path in CASES[case](tmp_path).items()}
    expected = {name[len(case) + 1:]: entry for name, entry in table.items()
                if name.startswith(case + "/")}
    assert got.keys() == expected.keys()
    report = [line for name in got if got[name]["sha256"] != expected[name]["sha256"]
              for line in _differences(f"{case}/{name}", expected[name], got[name])]
    assert not report, "artifact bytes moved:\n" + "\n".join(report)


def record() -> str:
    """Rewrite the current environment's entry of the table from fresh runs."""
    entries = {}
    for case, produce in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            for name, path in produce(Path(tmp)).items():
                entries[f"{case}/{name}"] = _entry(path)
    table = _recorded()
    table[environment_key()] = entries
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return environment_key()


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    print(f"recorded {record()} in {TABLE}")
