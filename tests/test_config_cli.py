import json
import struct
import warnings

import numpy as np
import pytest

from plsf.cli import _study_workers, main
from plsf.config import (
    RunConfig,
    load_config,
    parse_config,
    serialize_config,
    with_overrides,
)
from plsf.errors import ConfigError
from plsf.fields import load_checkpoint
from plsf.galerkin import SolverConfig

MINIMAL = """
[grid]
dim = 2
M = 16

[time]
T = 0.1
"""

FULL = """
[grid]
dim = 2
M = 16
L = 6.283185307179586

[fluid]
p = 1.9
mu = 1.0

[galerkin]
N = 20

[time]
T = 0.1
rtol = 1e-7
sample_dt = 0.02

[init]
kind = taylor_green
amplitude = 1.0

[output]
directory = .
formats = csv,json
"""


# -- parsing ------------------------------------------------------------------


def test_minimal_document_gets_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.solver.dealias == 1.5
    assert cfg.solver.rtol == 1e-8
    assert cfg.solver.p == 1.9
    assert cfg.solver.init_kind == "taylor_green"
    assert cfg.output_formats == ("csv", "json")


def test_range_violation_names_bound():
    with pytest.raises(ConfigError) as exc:
        parse_config("[fluid]\np = 2.5\n")
    assert "p in (1, 2]" in str(exc.value)


def test_unknown_key_and_section_named():
    with pytest.raises(ConfigError) as exc:
        parse_config("[grid]\nwavelength = 3\n\n[turbulence]\nmodel = none\n")
    msg = str(exc.value)
    assert "wavelength" in msg
    assert "turbulence" in msg


def test_all_violations_collected():
    bad = "[grid]\ndim = 5\nM = 7\n\n[fluid]\np = 0.5\nmu = -1\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    assert len(exc.value.violations) >= 4


def test_n_and_lambda_cut_mutually_exclusive():
    with pytest.raises(ConfigError) as exc:
        parse_config("[galerkin]\nN = 4\nlambda_cut = 2.0\n")
    assert "not both" in str(exc.value)


def test_checkpoint_kind_needs_path():
    with pytest.raises(ConfigError) as exc:
        parse_config("[init]\nkind = checkpoint\n")
    assert "path" in str(exc.value)



def test_nan_lambda_cut_rejected():
    # NaN would otherwise reach count_modes_below, where no comparison holds
    with pytest.raises(ConfigError, match="lambda_cut > 0"):
        parse_config("[galerkin]\nlambda_cut = nan\n")

def test_q_list_must_stay_below_p():
    with pytest.raises(ConfigError) as exc:
        parse_config("[fluid]\np = 1.9\n\n[study]\nN_list = 4,8,16\nq_list = 1.9\n")
    assert "q in [1, p)" in str(exc.value)


@pytest.mark.parametrize("text, rule", [
    ("[galerkin]\nN = 0\n", "N >= 1"),
    ("[galerkin]\nN = -2\n", "N >= 1"),
    ("[study]\nN_list = 0,4,8\n", "every N >= 1"),
    ("[study]\nN_list = -4,4,8\n", "every N >= 1"),
], ids=["N-0", "N-negative", "N_list-0", "N_list-negative"])
def test_empty_galerkin_system_rejected(text, rule):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert any(v.endswith(f"violates {rule}") for v in exc.value.violations)


def test_study_n_list_length():
    with pytest.raises(ConfigError) as exc:
        parse_config("[study]\nN_list = 4,8\n")
    assert "length >= 3" in str(exc.value)


def test_roundtrip_identity():
    cfg = parse_config(FULL)
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert parse_config(serialize_config(again)) == again


def test_empty_document_is_the_dataclass_defaults():
    assert parse_config("") == RunConfig()


# every number must be finite: NaN makes every comparison false, so a check
# written as `value < bound` never fires for it, and each of these would reach
# the solver or summary.json if conversion let it through
NON_FINITE = [
    ("time", "T", "nan"),
    ("fluid", "mu", "nan"),
    ("time", "rtol", "nan"),
    ("time", "atol", "nan"),
    ("time", "dt_min", "nan"),
    ("time", "sample_dt", "nan"),
    ("study", "state_dt", "nan"),
    ("init", "amplitude", "nan"),
    ("init", "decay", "nan"),
    ("verify", "amplitude", "nan"),
    ("grid", "L", "inf"),
    ("grid", "dealias", "inf"),
    ("time", "T", "inf"),
    ("galerkin", "lambda_cut", "inf"),
    ("time", "atol", "-inf"),
    ("study", "q_list", "1.0,nan"),
]


@pytest.mark.parametrize("section,key,raw", NON_FINITE)
def test_non_finite_setting_rejected(section, key, raw):
    with pytest.raises(ConfigError) as exc:
        parse_config(f"[{section}]\n{key} = {raw}\n")
    assert any(v.startswith(f"[{section}] {key} = ") for v in exc.value.violations)


def test_q_list_ignored_without_n_list():
    # only the convergence study reads q_list, and it requires N_list
    cfg = parse_config("[fluid]\np = 1.7\n")
    assert cfg.solver.p == 1.7
    assert cfg.study_q_list == (1.0, 1.5, 1.8)
    assert parse_config(serialize_config(cfg)) == cfg


def test_default_q_list_checked_against_p_with_n_list():
    with pytest.raises(ConfigError) as exc:
        parse_config("[fluid]\np = 1.7\n\n[study]\nN_list = 4,8,16\n")
    assert "q in [1, p)" in str(exc.value)


# serialize_config output pinned as text: summary.json embeds it, so any
# change here changes a run artifact
DEFAULT_TEXT = """\
[grid]
dim = 2
M = 64
L = 6.283185307179586
dealias = 1.5

[fluid]
p = 1.9
mu = 1.0

[galerkin]
record_d2 = false

[time]
T = 1.0
rtol = 1e-08
atol = 1e-12
dt_min = 1e-12

[init]
kind = taylor_green
seed = 0
band = 1
amplitude = 1.0
decay = 2.0

[output]
directory = .
formats = csv,json

[study]
q_list = 1.0,1.5,1.8
state_dt = 0.02

[verify]
count = 200
seed = 0
band = 4
decay = 2.0
amplitude = 1.0

"""

EVERY_KEY = RunConfig(
    solver=SolverConfig(
        dim=3, M=12, L=2.5, dealias=1.25, p=1.75, mu=0.5, N=40, lambda_cut=3.5,
        record_d2=True, T=0.3, rtol=1e-6, atol=1e-10, dt_min=1e-9, sample_dt=0.05,
        init_kind="checkpoint", seed=7, band=2, amplitude=0.25, decay=1.5,
        path="init.plsf",
    ),
    output_dir="out", output_formats=("csv", "checkpoint"),
    study_N_list=(8, 16, 32), study_q_list=(1.0, 1.25), study_state_dt=0.1,
    verify_count=50, verify_seed=3, verify_band=2, verify_decay=3.0,
    verify_amplitude=0.5,
)

EVERY_KEY_TEXT = """\
[grid]
dim = 3
M = 12
L = 2.5
dealias = 1.25

[fluid]
p = 1.75
mu = 0.5

[galerkin]
N = 40
lambda_cut = 3.5
record_d2 = true

[time]
T = 0.3
rtol = 1e-06
atol = 1e-10
dt_min = 1e-09
sample_dt = 0.05

[init]
kind = checkpoint
seed = 7
band = 2
amplitude = 0.25
decay = 1.5
path = init.plsf

[output]
directory = out
formats = csv,checkpoint

[study]
N_list = 8,16,32
q_list = 1.0,1.25
state_dt = 0.1

[verify]
count = 50
seed = 3
band = 2
decay = 3.0
amplitude = 0.5

"""


def test_serialized_text_is_pinned():
    assert serialize_config(RunConfig()) == DEFAULT_TEXT
    assert serialize_config(EVERY_KEY) == EVERY_KEY_TEXT


def test_every_serialized_key_is_accepted():
    # all 30 keys parse; the only complaint is the N/lambda_cut exclusion
    with pytest.raises(ConfigError) as exc:
        parse_config(EVERY_KEY_TEXT)
    assert exc.value.violations == ["[galerkin] give N or lambda_cut, not both"]
    cfg = parse_config(EVERY_KEY_TEXT.replace("lambda_cut = 3.5\n", ""))
    assert cfg == with_overrides(EVERY_KEY, lambda_cut=None)


# -- CLI run -------------------------------------------------------------------


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_cli_run_deterministic_artifacts(tmp_path):
    cfg_path = write_config(tmp_path, FULL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["run", str(cfg_path), "--out", str(out2)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["N"] == 20
    assert summary["final_energy"] < summary["initial_energy"]
    steps, rejections = summary["steps"], summary["rejections"]
    assert summary["rhs_evaluations"] == steps + 6 * (steps + rejections)


def test_cli_run_checkpoint_format(tmp_path):
    text = FULL.replace("formats = csv,json", "formats = csv,json,checkpoint")
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    v = load_checkpoint(out / "final_state.plsf")
    assert v.grid.M == 16


def test_cli_run_bad_config_exit_2(tmp_path):
    cfg_path = write_config(tmp_path, "[fluid]\np = 3.0\n")
    assert main(["run", str(cfg_path)]) == 2


def test_cli_run_overlarge_N_exit_2(tmp_path):
    cfg_path = write_config(tmp_path, "[grid]\nM = 16\n\n[galerkin]\nN = 100000\n")
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("galerkin, named", [
    ("N = 0", "[galerkin] N = 0 violates N >= 1"),
    ("lambda_cut = 0.5", "the lowest eigenvalue is (2 pi / L)^2 = 1.0"),
], ids=["N-0", "lambda_cut-below-first-eigenvalue"])
def test_cli_run_empty_galerkin_system_exit_2(tmp_path, capsys, galerkin, named):
    # a usage error, not a stiffness failure (exit 3) in the integrator
    cfg_path = write_config(tmp_path, f"[grid]\nM = 8\n\n[galerkin]\n{galerkin}\n\n"
                                      f"[time]\nT = 0.1\n")
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "too stiff" not in err
    assert not (tmp_path / "o" / "trajectory.csv").exists()


def test_cli_run_stiffness_exit_3(tmp_path):
    text = """
[grid]
dim = 2
M = 16

[galerkin]
N = 20

[time]
T = 0.5
rtol = 1e-13
atol = 1e-16
dt_min = 0.4

[init]
kind = random_band
band = 5
amplitude = 30.0
"""
    cfg_path = write_config(tmp_path, text)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 3



def test_cli_run_infinite_dealias_exit_2(tmp_path, capsys):
    # an infinite padding factor used to overflow in the grid set-up
    cfg_path = write_config(tmp_path, "[grid]\nM = 16\ndealias = inf\n")
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "[grid] dealias" in capsys.readouterr().err


def test_cli_run_p_below_default_q_list_without_study(tmp_path):
    text = "[grid]\nM = 16\n\n[fluid]\np = 1.7\n\n[galerkin]\nN = 20\n\n[time]\nT = 0.05\n"
    cfg_path = write_config(tmp_path, text)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["p"] == 1.7


def test_cli_run_non_finite_checkpoint_exit_3(tmp_path, capsys):
    from plsf.fields import random_solenoidal, save_checkpoint
    from plsf.grid import TorusGrid

    # the NaN sits in the highest mode, outside the N = 20 basis, so the run
    # itself would never see it; the loader refuses the file anyway
    ckpt = tmp_path / "init.plsf"
    save_checkpoint(ckpt, random_solenoidal(TorusGrid(2, 16, 2 * np.pi), band=3, seed=1))
    raw = bytearray(ckpt.read_bytes())
    raw[-8:] = struct.pack("<d", float("nan"))
    ckpt.write_bytes(bytes(raw))
    text = f"[grid]\nM = 16\n\n[galerkin]\nN = 20\n\n[init]\nkind = checkpoint\npath = {ckpt}\n"
    cfg_path = write_config(tmp_path, text)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    assert "init.plsf" in capsys.readouterr().err


def test_cli_run_bad_checkpoint_header_exit_3(tmp_path, capsys):
    # a corrupt header is a runtime data error (exit 3), like a bad magic,
    # not a usage error
    ckpt = tmp_path / "init.plsf"
    count = (7**4 - 1) // 2
    ckpt.write_bytes(
        struct.pack("<4sIIIdQ", b"PLSF", 1, 4, 8, 1.0, count) + bytes(count * 4 * 16)
    )
    text = f"[grid]\nM = 16\n\n[init]\nkind = checkpoint\npath = {ckpt}\n"
    cfg_path = write_config(tmp_path, text)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    assert "init.plsf" in capsys.readouterr().err

# -- CLI verify ------------------------------------------------------------------


VERIFY_CFG = """
[grid]
dim = 2
M = 16

[fluid]
p = 1.9
mu = 1.0

[verify]
count = 24
seed = 5
band = 4
"""


def test_cli_verify_empty_selection_exit_0(tmp_path):
    cfg_path = write_config(tmp_path, VERIFY_CFG)
    assert main(["verify", str(cfg_path), "--suites", ""]) == 0


def test_cli_verify_suites_pass(tmp_path, capsys):
    cfg_path = write_config(tmp_path, VERIFY_CFG)
    out = tmp_path / "verify.json"
    code = main(["verify", str(cfg_path), "--suites",
                 "lemma1,friedrichs,interp,oo,ap3", "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "PASS" in captured
    report = json.loads(out.read_text())
    assert set(report) == {"lemma1", "friedrichs", "interp", "oo", "ap3"}
    assert all(v["pass"] for v in report.values())


def test_cli_verify_channel_budget_per_field(tmp_path, monkeypatch):
    # one pass per field in 2D: v 2, grad v 3, Hessian 6, grad D 4, RHS 4
    from plsf.grid import TorusGrid

    channels = []
    to_physical = TorusGrid.to_physical

    def counted(self, coeffs, **buffers):
        channels.append(int(np.prod(coeffs.shape[: coeffs.ndim - self.dim])))
        return to_physical(self, coeffs, **buffers)

    monkeypatch.setattr(TorusGrid, "to_physical", counted)
    cfg_path = write_config(tmp_path, VERIFY_CFG)
    assert main(["verify", str(cfg_path), "--out", str(tmp_path / "v.json")]) == 0
    assert 0 < sum(channels) <= 19 * 24


def test_cli_verify_unknown_suite_exit_2(tmp_path):
    cfg_path = write_config(tmp_path, VERIFY_CFG)
    assert main(["verify", str(cfg_path), "--suites", "nonsense"]) == 2


def test_cli_verify_checks_suite_names_before_any_work(tmp_path, monkeypatch, capsys):
    from plsf import inequalities

    def generate(*args, **kwargs):
        raise AssertionError("the ensemble was generated")

    monkeypatch.setattr(inequalities.FieldEnsemble, "generate", generate)
    cfg_path = write_config(tmp_path, VERIFY_CFG)
    out = tmp_path / "v.json"
    code = main(["verify", str(cfg_path), "--suites", "lemma1,nonsense", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "nonsense" in captured.err
    assert "verify" not in captured.out
    assert not out.exists()


def test_cli_verify_lemma1_needs_two_fields(tmp_path, monkeypatch, capsys):
    # lemma1 calibrates on the first half of the ensemble and checks the
    # second; one field leaves nothing to calibrate on
    from plsf import inequalities

    def generate(*args, **kwargs):
        raise AssertionError("the ensemble was generated")

    monkeypatch.setattr(inequalities.FieldEnsemble, "generate", generate)
    cfg_path = write_config(tmp_path, VERIFY_CFG.replace("count = 24", "count = 1"))
    out = tmp_path / "v.json"
    code = main(["verify", str(cfg_path), "--suites", "interp,lemma1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "[verify] count" in captured.err
    assert "verify" not in captured.out
    assert not out.exists()


def test_cli_verify_one_field_without_lemma1(tmp_path):
    cfg_path = write_config(tmp_path, VERIFY_CFG.replace("count = 24", "count = 1"))
    assert main(["verify", str(cfg_path), "--suites", "interp,ap3"]) == 0


def test_verify_amplitude_zero_rejected(tmp_path, capsys):
    text = VERIFY_CFG + "amplitude = 0.0\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert any("amplitude" in v for v in exc.value.violations)
    cfg_path = write_config(tmp_path, text)
    assert main(["verify", str(cfg_path), "--suites", "lemma3"]) == 2
    assert "[verify] amplitude" in capsys.readouterr().err


def test_verify_negative_amplitude_runs(tmp_path):
    text = VERIFY_CFG + "amplitude = -0.5\n"
    assert parse_config(text).verify_amplitude == -0.5
    cfg_path = write_config(tmp_path, text)
    assert main(["verify", str(cfg_path), "--suites", "lemma3,interp"]) == 0


@pytest.mark.parametrize("amplitude", ["1e-200", "1e-160"])
def test_verify_lemma3_underflow_fails_without_a_spread(tmp_path, capsys, amplitude):
    # the squares of so small a field underflow and an empirical constant
    # reads 0: the suite fails with a reason instead of dividing by it
    text = VERIFY_CFG.replace("count = 24", "count = 6") + f"amplitude = {amplitude}\n"
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "verify.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", str(cfg_path), "--suites", "lemma3", "--out", str(out)]) == 1
    assert capsys.readouterr().out.split() == ["verify", "lemma3", "FAIL"]
    result = json.loads(out.read_text())["lemma3"]
    assert result["pass"] is False
    broken = [entry for entry in result["detail"].values() if entry["spread"] is None]
    assert broken
    for entry in broken:
        assert entry["mu_stable"] is False
        assert "0 or non-finite" in entry["reason"]


# -- CLI gap ----------------------------------------------------------------------


def make_family(tmp_path):
    from plsf.galerkin import SolverConfig, run_trajectory

    paths = []
    for N in (24, 60):
        cfg = SolverConfig(dim=2, M=16, N=N, T=0.3, rtol=1e-8, sample_dt=2e-3,
                           init_kind="taylor_green", amplitude=1.0)
        rec = run_trajectory(cfg)
        path = tmp_path / f"traj_{N}.csv"
        rec.to_csv(path)
        paths.append((N, path.name))
    manifest = {
        "p": 1.9,
        "mu": 1.0,
        "trajectories": [{"N": N, "path": name} for N, name in paths],
    }
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    return mpath


def test_cli_gap_report(tmp_path):
    mpath = make_family(tmp_path)
    out = tmp_path / "gap.json"
    from plsf.gap import exponents

    gamma = exponents(1.9).gamma
    # thresholds straddling the observed range of rho^gamma
    alphas = [float(np.arctan(r)) for r in (1e2, 1e4, 1e6, 1e8)]
    code = main(["gap", str(mpath), "--s", "0.0", "--t", "0.3",
                 "--alphas", ",".join(repr(a) for a in alphas),
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["beta_variant_used"] == "statement"
    assert report["gamma"] == pytest.approx(gamma)
    assert report["two_form_failures"] == []
    assert len(report["alphas"]) == 4
    assert report["M_estimate"] <= 1e-5


def strict_json(path):
    """Parse an artifact as RFC 8259 JSON, which has no NaN or Infinity."""
    def reject(token):
        raise ValueError(f"{path.name} holds the non-JSON constant {token}")
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def test_cli_artifacts_are_strict_json(tmp_path):
    run_out = tmp_path / "run"
    assert main(["run", str(write_config(tmp_path, FULL)), "--out", str(run_out)]) == 0
    summary = strict_json(run_out / "summary.json")
    assert summary["N"] == 20

    mpath = make_family(tmp_path)
    gap_out = tmp_path / "gap.json"
    alphas = [float(np.arctan(r)) for r in (1e2, 1e12)]
    assert main(["gap", str(mpath), "--s", "0.0", "--t", "0.3",
                 "--alphas", ",".join(repr(a) for a in alphas),
                 "--out", str(gap_out)]) == 0
    assert strict_json(gap_out)["two_form_failures"] == []

    verify_out = tmp_path / "verify.json"
    assert main(["verify", str(write_config(tmp_path, VERIFY_CFG, "v.cfg")),
                 "--out", str(verify_out)]) == 0
    report = strict_json(verify_out)
    # lemma1 and the interpolations have no mu: null, where NaN was written
    assert report["lemma1"]["detail"]["mu"] is None
    assert report["interp"]["detail"]["c1"]["mu"] is None


def test_jsonify_maps_non_finite_floats_to_null():
    from plsf.cli import _jsonify

    data = {"a": float("nan"), "b": [np.float64("inf"), -np.inf, 1.5],
            "c": np.array([np.nan, 2.0]), "d": (np.float32(3.0), 4)}
    assert _jsonify(data) == {"a": None, "b": [None, None, 1.5],
                              "c": [None, 2.0], "d": [3.0, 4]}


def test_cli_gap_bad_window_exit_2(tmp_path):
    mpath = make_family(tmp_path)
    code = main(["gap", str(mpath), "--s", "0.0", "--t", "5.0",
                 "--alphas", "1.0"])
    assert code == 2


def test_cli_gap_missing_file_no_partial_report(tmp_path):
    manifest = {"p": 1.9, "trajectories": [{"N": 4, "path": "missing.csv"},
                                           {"N": 8, "path": "missing_too.csv"}]}
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    out = tmp_path / "gap.json"
    code = main(["gap", str(mpath), "--s", "0", "--t", "1",
                 "--alphas", "1.0", "--out", str(out)])
    assert code == 3
    assert not out.exists()


@pytest.fixture(scope="module")
def family_manifest(tmp_path_factory):
    return make_family(tmp_path_factory.mktemp("family"))


def gap_args(mpath, s="0.0", t="0.3", alphas="1.0"):
    return ["gap", str(mpath), "--s", s, "--t", t, "--alphas", alphas,
            "--out", str(mpath.parent / "gap_out.json")]


@pytest.mark.parametrize("s, t", [("nan", "0.3"), ("0.0", "nan")], ids=["s-nan", "t-nan"])
def test_cli_gap_nan_window_exit_2(family_manifest, capsys, s, t):
    assert main(gap_args(family_manifest, s=s, t=t)) == 2
    assert "need s < t" in capsys.readouterr().err


def test_cli_gap_empty_alpha_grid_exit_2(family_manifest, capsys):
    assert main(gap_args(family_manifest, alphas=",")) == 2
    assert "alpha" in capsys.readouterr().err


def with_field(mpath, text, key="p", entry=None):
    """A copy of the manifest at mpath whose `key` field, at the top level
    or in trajectory `entry`, is the JSON `text`."""
    manifest = json.loads(mpath.read_text())
    (manifest if entry is None else manifest["trajectories"][entry])[key] = "@V@"
    other = mpath.parent / "manifest_edit.json"
    other.write_text(json.dumps(manifest).replace('"@V@"', text))
    return other


@pytest.mark.parametrize("text", ['"1.9"', "NaN", "true", "1.6", "Infinity", "2.5", "null"])
def test_cli_gap_rejects_p_without_gamma(family_manifest, capsys, text):
    # gamma is defined for p in (5/3, 2] only; a string used to raise a
    # TypeError, and the rest ran to a report with gamma null
    out = family_manifest.parent / "gap_out.json"
    out.unlink(missing_ok=True)
    assert main(gap_args(with_field(family_manifest, text))) == 2
    assert "'p' must be a finite number in (5/3, 2]" in capsys.readouterr().err
    assert not out.exists()


def test_cli_gap_report_names_the_violated_exponent_bound(family_manifest):
    assert main(gap_args(with_field(family_manifest, "1.75"))) == 0
    report = strict_json(family_manifest.parent / "gap_out.json")
    assert "p > 9/5" in report["violation"]
    assert main(gap_args(family_manifest)) == 0
    assert strict_json(family_manifest.parent / "gap_out.json")["violation"] is None


@pytest.mark.parametrize("text", ["24.9", "true", "0", "-3", '"24"', "null", "24.0"])
def test_cli_gap_rejects_N_that_is_not_a_positive_integer(family_manifest, capsys, text):
    # int() used to turn 24.9 into 24 and true into 1
    out = family_manifest.parent / "gap_out.json"
    out.unlink(missing_ok=True)
    assert main(gap_args(with_field(family_manifest, text, "N", entry=0))) == 2
    assert "trajectory 0: 'N' must be an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ['"abc"', "NaN", "Infinity", "-1", "true", "null"])
def test_cli_gap_rejects_mu_that_is_not_a_finite_nonnegative_number(family_manifest, capsys,
                                                                   text):
    out = family_manifest.parent / "gap_out.json"
    out.unlink(missing_ok=True)
    assert main(gap_args(with_field(family_manifest, text, "mu"))) == 2
    assert "'mu' must be a finite number >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ["5", "[1.9]", "null"])
def test_cli_gap_rejects_a_manifest_that_is_not_an_object(tmp_path, capsys, text):
    mpath = tmp_path / "manifest.json"
    mpath.write_text(text)
    assert main(gap_args(mpath)) == 2
    assert "must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["4", "1", "3.0", "true", '"3"'])
def test_cli_gap_rejects_dim_other_than_2_or_3(family_manifest, capsys, text):
    assert main(gap_args(with_field(family_manifest, text, "dim"))) == 2
    assert "'dim' must be 2 or 3" in capsys.readouterr().err


def test_cli_gap_report_states_its_dimension(family_manifest):
    # the exponents are derived in 3D: a 2D family's report says so
    assert main(gap_args(family_manifest)) == 0
    report = strict_json(family_manifest.parent / "gap_out.json")
    assert (report["dim"], report["dim_warning"]) == (3, None)
    assert main(gap_args(with_field(family_manifest, "2", "dim"))) == 0
    report = strict_json(family_manifest.parent / "gap_out.json")
    assert report["dim"] == 2
    assert "dim = 3" in report["dim_warning"]


@pytest.mark.parametrize("entries, named", [
    ([{"N": 4, "path": "a.csv"}, {"path": "b.csv"}], "trajectory 1 lacks the 'N' field"),
    ([{"N": 4, "path": "a.csv"}, {"N": 4, "path": "b.csv"}],
     "trajectory 1 repeats N = 4 of trajectory 0"),
    ([{"N": 4, "path": "a.csv"}, 5], "'trajectories' must be a list of objects"),
    ([{"N": 4, "path": 5}], "trajectory 0: 'path' must be a string"),
    ([], "needs at least 2 trajectories, got 0"),
    ([{"N": 4, "path": "a.csv"}], "needs at least 2 trajectories, got 1"),
], ids=["missing-N", "duplicate-N", "not-an-object", "path-not-a-string", "no-trajectory",
        "one-trajectory"])
def test_cli_gap_rejects_bad_manifest_entries(tmp_path, capsys, entries, named):
    # checked before any trajectory is read: the files need not exist
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps({"p": 1.9, "trajectories": entries}))
    out = tmp_path / "gap.json"
    code = main(["gap", str(mpath), "--s", "0", "--t", "1",
                 "--alphas", "1.0", "--out", str(out)])
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


# -- CLI converge ------------------------------------------------------------------


CONVERGE_CFG = """
[grid]
dim = 2
M = 16

[fluid]
p = 1.9
mu = 1.0

[time]
T = 0.2
rtol = 1e-8

[init]
kind = random_band
band = 3
seed = 11
amplitude = 1.5
decay = 1.0

[study]
N_list = 8,24,60,112
q_list = 1.0,1.5
state_dt = 0.04
"""


def test_cli_converge_report(tmp_path):
    cfg_path = write_config(tmp_path, CONVERGE_CFG)
    out = tmp_path / "conv.json"
    code = main(["converge", str(cfg_path), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["N_list"] == [8, 24, 60, 112]
    for q in ("1.0", "1.5"):
        evals = report["errors"][q]
        assert len(evals) == 3
        assert all(b < a for a, b in zip(evals, evals[1:]))
        assert report["monotone"][q]
    assert len(report["pc_integrals"]) == 4
    assert all(v > 0 for v in report["pc_integrals"])
    assert all(f >= 0.9 for f in report["pointwise_fraction_improving"])


def test_cli_converge_state_times_one_ulp_below_T(tmp_path):
    # 11 * 0.03 = 0.32999999999999996, so state_times holds it and T = 0.33
    text = (CONVERGE_CFG.replace("T = 0.2", "T = 0.33")
            .replace("state_dt = 0.04", "state_dt = 0.03")
            .replace("N_list = 8,24,60,112", "N_list = 8,12,24"))
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "conv.json"
    assert main(["converge", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["state_times"]) == 13
    assert sum(report["histograms"][0]) == 13


def test_cli_converge_without_study_exit_2(tmp_path):
    cfg_path = write_config(tmp_path, MINIMAL)
    assert main(["converge", str(cfg_path)]) == 2


def test_cli_converge_N_list_holding_0_exit_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, MINIMAL + "\n[study]\nN_list = 0,4,8\n")
    out = tmp_path / "conv.json"
    assert main(["converge", str(cfg_path), "--out", str(out)]) == 2
    assert "[study] N_list = (0, 4, 8) violates every N >= 1" in capsys.readouterr().err
    assert not out.exists()


RESOLVED_CFG = """
[grid]
dim = 2
M = 16

[fluid]
p = 2.0
mu = 1.0

[time]
T = 0.2
rtol = 1e-08

[init]
kind = taylor_green
amplitude = 1.0

[study]
N_list = 8,12,24
q_list = 1.0,1.5
state_dt = 0.05
"""


def test_cli_converge_resolved_dynamics_error_at_tolerance(tmp_path):
    # Newtonian Taylor-Green stays inside the smallest span (convection is a
    # pure gradient), so e_N sits at integrator level for every N
    cfg_path = write_config(tmp_path, RESOLVED_CFG)
    out = tmp_path / "conv.json"
    assert main(["converge", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    for q in ("1.0", "1.5"):
        assert all(e <= 1e-7 for e in report["errors"][q])


def test_cli_verify_check_failure_exit_1(tmp_path, monkeypatch):
    import plsf.inequalities as ineq_mod

    def failing_ap3(ensemble, params):
        return {"id": "ap3", "p": params.p, "mu": params.mu, "count": 1,
                "violations": 1, "min_margin": -1.0, "rows": []}

    monkeypatch.setattr(ineq_mod, "check_ap3", failing_ap3)
    cfg_path = write_config(tmp_path, VERIFY_CFG)
    assert main(["verify", str(cfg_path), "--suites", "ap3"]) == 1


def test_plsf_threads_worker_fanout_identical(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, RESOLVED_CFG)
    out_seq = tmp_path / "seq.json"
    out_par = tmp_path / "par.json"
    assert main(["converge", str(cfg_path), "--out", str(out_seq)]) == 0
    monkeypatch.setenv("PLSF_THREADS", "2")
    assert main(["converge", str(cfg_path), "--out", str(out_par)]) == 0
    assert out_seq.read_bytes() == out_par.read_bytes()


def test_study_workers_clamped_to_jobs_and_cpus(monkeypatch):
    monkeypatch.setattr("plsf.cli.os.cpu_count", lambda: 4)
    assert _study_workers("1", 3) == 1
    assert _study_workers("2", 3) == 2
    assert _study_workers("64", 3) == 3
    assert _study_workers("64", 8) == 4
    assert _study_workers(" 3 ", 8) == 3
    monkeypatch.setattr("plsf.cli.os.cpu_count", lambda: None)
    assert _study_workers("64", 8) == 1


@pytest.mark.parametrize("raw", ["0", "-2", "1.5", "two", ""])
def test_study_workers_rejects_bad_values(raw):
    with pytest.raises(ConfigError, match="PLSF_THREADS must be a positive integer"):
        _study_workers(raw, 3)


def test_cli_converge_bad_plsf_threads_exit_2(tmp_path, monkeypatch, capsys):
    cfg_path = write_config(tmp_path, RESOLVED_CFG)
    monkeypatch.setenv("PLSF_THREADS", "0")
    assert main(["converge", str(cfg_path), "--out", str(tmp_path / "c.json")]) == 2
    assert "PLSF_THREADS" in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists()
