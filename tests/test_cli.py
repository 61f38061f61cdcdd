from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bpu_lab import bpu, calibration, cli
from bpu_lab.errors import ConfigError
from bpu_lab.experiments import EXPERIMENT_KINDS, ExperimentConfig, emit_report, run_experiment


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "bpu_lab.cli", *args],
                          capture_output=True, text=True)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_config_rejects_bad_fraction():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kind": "norm-sweep", "c": "1/0"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kind": "norm-sweep", "c": "3/2"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kind": "norm-sweep", "c": "1/65"})


def test_config_rejects_bad_grid_and_kind():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kind": "norm-sweep", "n": 100})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kind": "norm-sweep", "n": 32})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kind": "mystery"})
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig.from_dict({"kind": "norm-sweep", "seed": 10 ** 400})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kind": "norm-sweep",
                                    "tolerances": {"leading_rel": -1.0}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kind": "theorem-check", "pairs": [[0, 1]],
                                    "tangents": [{"f": []}]})


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name)
def test_shipped_configs_parse(path):
    config = ExperimentConfig.from_json(path.read_text())
    assert config.raw == json.loads(path.read_text())


def test_tangent_reduced_to_rounding_names_its_index():
    config = ExperimentConfig.from_dict({
        "kind": "theorem-check", "c": "1/2", "n": 64, "pairs": [[0, 1]],
        "tangents": [{"f": [{"mode": 1}]}, {"f": [{"mode": 0, "amplitude": 1.0}]}]})
    with pytest.raises(ConfigError, match="tangent 1 "):
        run_experiment(config)


def test_crosscheck_rejects_off_lattice_level_before_any_work(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("fd_d_bpu ran before the level check")

    monkeypatch.setattr(bpu, "fd_d_bpu", never)
    config = ExperimentConfig.from_dict({"kind": "derivative-crosscheck", "c": "1/2",
                                         "n": 64, "k_values": [8, 9]})
    with pytest.raises(ConfigError, match="divisible"):
        run_experiment(config)


def test_config_hash_is_stable():
    raw = {"kind": "norm-sweep", "c": "1/2", "n": 64, "l_max": 6}
    a = ExperimentConfig.from_dict(raw).config_hash()
    b = ExperimentConfig.from_dict(json.loads(json.dumps(raw))).config_hash()
    assert a == b and len(a) == 64


# ---------------------------------------------------------------------------
# Runner + emission
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_sweep(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("sweep")
    config = ExperimentConfig.from_dict(
        {"kind": "norm-sweep", "c": "1/2", "n": 64, "l_max": 10})
    result = run_experiment(config)
    csv_path, json_path = emit_report(result, outdir)
    return result, csv_path, json_path


def test_csv_format(small_sweep):
    _, csv_path, _ = small_sweep
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "k,l,r,value_re,value_im"
    assert len(lines) == 11
    k, l, r, re, im = lines[1].split(",")
    assert (int(k), int(l), int(r)) == (2, 1, 2)
    assert float(re) > 0 and float(im) == 0.0


def test_manifest_contents(small_sweep):
    result, _, json_path = small_sweep
    manifest = json.loads(json_path.read_text())
    assert manifest["config_sha256"] == result.config.config_hash()
    assert manifest["calibrated_signs"]["sigma_theta"] in (-1, 1)
    assert abs(manifest["c_omega"]) in (0.5, 1.0, 2.0)
    assert set(manifest["verdicts"]) == {"leading_coefficient", "ladder_residual"}


def test_emission_is_deterministic(tmp_path, small_sweep):
    result, csv_path, json_path = small_sweep
    again_csv, again_json = emit_report(result, tmp_path)
    assert again_csv.read_bytes() == csv_path.read_bytes()
    assert again_json.read_bytes() == json_path.read_bytes()


def test_checks_run_once_per_experiment(monkeypatch, tmp_path):
    calls = {"signs": 0, "constants": 0}

    def signs():
        calls["signs"] += 1
        return calibration.Calibration(*bpu.CONVENTION_SIGNS, fd_relative_error=0.0)

    def constants():
        calls["constants"] += 1
        return calibration.MeasuredConstants(c_omega_raw=-0.49, c_g_raw=0.51)

    monkeypatch.setattr(calibration, "calibrated_signs", signs)
    monkeypatch.setattr(calibration, "measured_constants", constants)
    sweep = ExperimentConfig.from_dict({"kind": "norm-sweep", "c": "1/2", "n": 64, "l_max": 6})
    emit_report(run_experiment(sweep), tmp_path / "sweep")
    assert calls == {"signs": 1, "constants": 0}

    check = ExperimentConfig.from_dict({
        "kind": "theorem-check", "c": "1/2", "n": 64, "l_max": 6,
        "tangents": [{"f": [{"mode": 1}], "s_ell": [{"mode": 1}]}], "pairs": [[0, 0]]})
    _, json_path = emit_report(run_experiment(check), tmp_path / "check")
    assert calls == {"signs": 2, "constants": 1}
    manifest = json.loads(json_path.read_text())
    assert (manifest["c_omega"], manifest["c_g"]) == (bpu.C_OMEGA, bpu.C_G)
    assert (manifest["fits"]["c_omega_raw"], manifest["fits"]["c_g_raw"]) == (-0.49, 0.51)


def test_empty_rows_yield_header_only_csv(tmp_path):
    config = ExperimentConfig.from_dict({"kind": "identity-suite", "c": "1/2", "n": 64,
                                         "seed": 5})
    result = run_experiment(config)
    csv_path, _ = emit_report(result, tmp_path)
    assert csv_path.read_text() == "k,l,r,value_re,value_im\n"
    assert result.passed


# ---------------------------------------------------------------------------
# CLI process contract
# ---------------------------------------------------------------------------

def test_cli_list_experiments():
    proc = run_cli("list-experiments")
    assert proc.returncode == 0
    assert set(proc.stdout.split()) == set(EXPERIMENT_KINDS)


def test_cli_run_pass_and_artifacts(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"kind": "norm-sweep", "c": "1/2", "n": 64, "l_max": 10}))
    proc = run_cli("run", "--config", str(cfg), "--output", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert "leading_coefficient: PASS" in proc.stdout
    assert (tmp_path / "out" / "norm-sweep.csv").exists()
    assert (tmp_path / "out" / "norm-sweep.json").exists()


def test_cli_malformed_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"

    def run_bad(text):
        cfg.write_text(text)
        code = cli.main(["run", "--config", str(cfg)])
        return code, capsys.readouterr().err

    # One case through a real process pins the process-level contract: a bad
    # number exits 2 with a one-line error and no traceback.
    cfg.write_text(json.dumps({"kind": "norm-sweep", "n": "abc"}))
    proc = run_cli("run", "--config", str(cfg))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    # The rest run in process; an escaping exception fails the test directly.
    code, err = run_bad(json.dumps({"kind": "norm-sweep", "c": "1/0"}))
    assert code == 2
    code, err = run_bad(json.dumps({"kind": "derivative-crosscheck", "k_values": [0]}))
    assert code == 2
    assert "k_values" in err
    fourier_hw = {"type": "fourier", "terms": [{"mode": "q"}]}
    for bad in ({"kind": "norm-sweep", "l_max": None},
                {"kind": "norm-sweep", "l_max": 5.7},
                {"kind": "derivative-crosscheck", "k_values": ["x"]},
                {"kind": "theorem-check", "tangents": [{"f": []}], "pairs": [[0]]},
                {"kind": "norm-sweep", "tolerances": {"leading_rel": "a"}},
                {"kind": "decay", "points": [{"c": "zz"}]},
                {"kind": "norm-sweep", "n": 64, "halfweight": fourier_hw},
                {"kind": "theorem-check", "tangents": [5], "pairs": [[0, 0]]},
                {"kind": "theorem-check", "tangents": [{"f": [], "s_ell": []}],
                 "pairs": [[0, 0]]},
                {"kind": "derivative-crosscheck", "tangents": [{"f": [], "s_ell": []}]},
                {"kind": "theorem-check", "tangents": [{"f": [{"mode": 0, "amplitude": 1.0}]}],
                 "pairs": [[0, 0]]},
                {"kind": "norm-sweep", "c": "1/2", "n": 64, "lmax": 6},
                {"kind": "norm-sweep", "raw": {}},
                {"kind": "decay", "c": "1/2", "n": 64, "k_values": [3]},
                {"kind": "derivative-crosscheck", "seed": True},
                {"kind": "theorem-check", "tangents": [{}, {}], "pairs": [[True, False]]},
                {"kind": "norm-sweep", "n": "256"},
                {"kind": "norm-sweep", "l_max": "1e1"},
                {"kind": "norm-sweep", "tolerances": {"leading_rel": "0.5"}},
                {"kind": "decay", "points": [{"c": "0.9"}]},
                {"kind": "norm-sweep", "halfweight": {"type": "fourier", "term": [{"mode": 1}]}},
                {"kind": "norm-sweep", "n": 64,
                 "halfweight": {"type": "fourier", "terms": [{"mode": 1, "amp": 0.1}]}},
                {"kind": "theorem-check", "pairs": [[0, 0]],
                 "tangents": [{"f": [{"mode": 1}], "sell": [{"mode": 1}]}]},
                {"kind": "decay", "points": [{"c": 0.5, "psy": 2.0}]},
                {"kind": "profile", "k_values": [80, 160]},
                {"kind": "decay", "k_values": [40, 80]}):
        code, err = run_bad(json.dumps(bad))
        assert code == 2, (bad, err)
        assert err.startswith("error: ") and "Traceback" not in err
    code, _ = run_bad("{not json")
    assert code == 2
    assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) == 2


def test_cli_decay_threshold_is_read(tmp_path):
    # The shipped decay run passes at the default -10; no point reaches a
    # final dyad slope of -1000.
    raw = json.loads((CONFIG_DIR / "decay_far_points.json").read_text())
    raw["tolerances"] = {"decay_slope": -1000}
    cfg = tmp_path / "strict_decay.json"
    cfg.write_text(json.dumps(raw))
    proc = run_cli("run", "--config", str(cfg), "--output", str(tmp_path / "out"))
    assert proc.returncode == 1, proc.stderr
    manifest = json.loads((tmp_path / "out" / "decay.json").read_text())
    assert manifest["tolerances"]["decay_slope"] == -1000
    reports = [p["report"] for p in manifest["fits"]["points"]]
    assert len(reports) == 3
    assert all(rep["threshold"] == -1000 and not rep["passed"] for rep in reports)


def test_cli_tolerance_failure_exits_1(tmp_path):
    cfg = tmp_path / "strict.json"
    cfg.write_text(json.dumps({"kind": "norm-sweep", "c": "1/2", "n": 64, "l_max": 10,
                               "tolerances": {"leading_rel": 1e-9}}))
    proc = run_cli("run", "--config", str(cfg))
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout


def test_cli_rerun_byte_identical(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"kind": "norm-sweep", "c": "1/3", "n": 64, "l_max": 8}))
    run_cli("run", "--config", str(cfg), "--output", str(tmp_path / "a"))
    run_cli("run", "--config", str(cfg), "--output", str(tmp_path / "b"))
    for name in ("norm-sweep.csv", "norm-sweep.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def blas_env(threads):
    """The test process's environment with OPENBLAS_NUM_THREADS set to
    `threads`, or removed for None (importing bpu_lab.cli here set it)."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    return env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads}


@pytest.mark.parametrize("config", ["derivative_crosscheck.json", "norm_sweep_r2.json",
                                    "theorem_check_r2.json"])
def test_artifacts_do_not_depend_on_the_blas_thread_count(config, tmp_path):
    # No result may rest on a multithreaded matrix product: the transport
    # path sums Taylor series, not a dense trig basis, and every product of
    # the projection kernel sums over all nodes of its row-contiguous table.
    # Unset means the CLI's default of one thread.
    outputs = []
    for threads in (None, "1", "2"):
        out = tmp_path / str(threads)
        proc = subprocess.run([sys.executable, "-m", "bpu_lab.cli", "run", "--config",
                               str(CONFIG_DIR / config), "--output", str(out)],
                              capture_output=True, text=True, env=blas_env(threads))
        assert proc.returncode == 0, proc.stderr
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(outputs[0]) == 2 and outputs[0] == outputs[1] == outputs[2]


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/<pid>/task")
def test_cli_import_defaults_to_one_blas_thread_and_respects_the_user():
    # Importing bpu_lab.cli before numpy sets the default; OpenBLAS starts its
    # worker threads when numpy loads, at most one per usable CPU.
    probe = ("import os, bpu_lab.cli, numpy; "
             "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))")
    cpus = len(os.sched_getaffinity(0))
    for threads, expected in ((None, ("1", 1)), ("2", ("2", min(2, cpus)))):
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=blas_env(threads))
        assert proc.returncode == 0, proc.stderr
        variable, count = proc.stdout.split()
        assert (variable, int(count)) == expected


def test_cli_freezes_the_heap_before_teardown(tmp_path):
    # atexit runs handlers last in, first out: a probe registered before the
    # import runs after the CLI's gc.freeze, so the interpreter's final
    # collections skip what the freeze holds.
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"kind": "norm-sweep", "c": "1/2", "n": 64, "l_max": 10}))
    probe = ("import atexit, gc, sys; "
             "atexit.register(lambda: print('frozen:', gc.get_freeze_count() > 0)); "
             "import bpu_lab.cli; sys.exit(bpu_lab.cli.main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", probe, "run", "--config", str(cfg),
                           "--output", str(tmp_path / "out")], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "leading_coefficient: PASS" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "frozen: True"
    assert (tmp_path / "out" / "norm-sweep.csv").exists()
    assert (tmp_path / "out" / "norm-sweep.json").exists()
