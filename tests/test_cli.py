from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bpu_lab import asymptotics, bpu, calibration, cli, experiments
from bpu_lab.errors import ConfigError
from bpu_lab.experiments import (
    EXPERIMENT_KINDS,
    TOLERANCES,
    ExperimentConfig,
    emit_report,
    run_experiment,
)
from bpu_lab.fourier import grid_nodes
from bpu_lab.geometry import graph_loop, holonomy

from conftest import Drawn


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


# Strings for c that are not "p/q" in ASCII digits; Fraction reads all but the last three.
BAD_C_SPELLINGS = ("0.5", " 1/2", "1/2 ", "1e-1", "+1/3", "1_0/30", "\u0661/\u0662",
                   "1 / 2", "0/0", "1/2/3")


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
    # Tolerances are the constant table, not a config key; c has one spelling.
    with pytest.raises(ConfigError, match="tolerances"):
        ExperimentConfig.from_dict({"kind": "norm-sweep",
                                    "tolerances": {"leading_rel": 0.5}})
    with pytest.raises(ConfigError, match="'p/q'"):
        ExperimentConfig.from_dict({"kind": "norm-sweep", "c": [1, 2]})
    with pytest.raises(ConfigError, match="'p/q'"):
        ExperimentConfig.from_dict({"kind": "norm-sweep", "c": 0.5})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kind": "theorem-check", "pairs": [[0, 1]],
                                    "tangents": [{"f": []}]})
    # c is digits, a slash and digits: no decimal, sign, space, exponent or
    # underscore spelling, which a general number reader would take.
    for c in BAD_C_SPELLINGS:
        with pytest.raises(ConfigError, match="'p/q'"):
            ExperimentConfig.from_dict({"kind": "norm-sweep", "c": c})
    # Each of p and q has at most nine digits, so no digit string reaches
    # int()'s 4300-digit limit.
    with pytest.raises(ConfigError, match="'p/q'"):
        ExperimentConfig.from_dict({"kind": "norm-sweep", "c": "1" * 5000 + "/3" + "0" * 4999})
    # n stops at MAX_NODES before anything is allocated.
    for n in (2 * experiments.MAX_NODES, 2 ** 70):
        with pytest.raises(ConfigError, match="power of two"):
            ExperimentConfig.from_dict({"kind": "norm-sweep", "n": n})
    assert ExperimentConfig.from_dict({"kind": "norm-sweep",
                                       "n": experiments.MAX_NODES}).n == 2 ** 16


def test_unreduced_c_runs_in_lowest_terms():
    # "2/4" is the c = 1/2 latitude, whose holonomy order is 2; c is the
    # float of p/q, the correctly rounded quotient.
    assert ExperimentConfig.from_dict({"kind": "norm-sweep", "c": "1/3"}).c == 1 / 3
    half, unreduced = (run_experiment(ExperimentConfig.from_dict(
        {"kind": "norm-sweep", "c": c, "n": 64, "l_max": 6})) for c in ("1/2", "2/4"))
    assert unreduced.config.c == 0.5
    assert {row[2] for row in unreduced.rows} == {2}
    assert unreduced.rows == half.rows


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name)
def test_shipped_configs_parse(path):
    config = ExperimentConfig.from_json(path.read_text())
    assert config.raw == json.loads(path.read_text())


# Ladder reports whose remainder stays under the noise floor, so they pass with
# no slope to judge: on c = 1/2 both targets of pair [0, 1] and the diagonal
# pairs' Omega are 0, and pair [2, 3]'s Omega series is its leading term.
INCONCLUSIVE_LADDERS = {"theorem_check_r2.json": {
    "pairs[0].g_ladder", "pairs[0].omega_ladder", "pairs[1].omega_ladder",
    "pairs[2].omega_ladder", "pairs[3].omega_ladder"}}


def inconclusive_ladders(fits):
    """Paths of the ladder reports marked inconclusive in a run's fits."""
    named = [*fits.items(), *((f"pairs[{i}].{key}", value)
                              for i, pair in enumerate(fits.get("pairs", [])) for key, value in pair.items())]
    return {key for key, value in named if isinstance(value, asymptotics.LadderReport) and value.inconclusive}


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name)
def test_shipped_configs_pin_their_inconclusive_ladders(path, tmp_path):
    # An inconclusive ladder passes its verdict, so a new one must fail here instead.
    # Its slope is null, so the manifest stays strict JSON.
    result = run_experiment(ExperimentConfig.from_json(path.read_bytes()))
    assert result.passed
    assert inconclusive_ladders(result.fits) == INCONCLUSIVE_LADDERS.get(path.name, set())
    _, manifest = emit_report(result, tmp_path)
    json.dumps(json.loads(manifest.read_text()), allow_nan=False)


def test_fourier_modes_at_or_above_half_the_nodes_are_rejected():
    # On 256 nodes cos(200 phi) takes the samples of cos(56 phi).
    phi = grid_nodes(256)
    assert np.allclose(np.cos(200 * phi), np.cos(56 * phi), atol=1e-12)
    for mode in (200, 128, -128):
        with pytest.raises(ConfigError, match="n/2 = 128"):
            experiments._fourier_samples([{"mode": mode}], phi)
    assert np.array_equal(experiments._fourier_samples([{"mode": -127}], phi),
                          np.cos(127 * phi))
    tangent = ExperimentConfig.from_dict({
        "kind": "theorem-check", "c": "1/2", "n": 64, "pairs": [[0, 0]],
        "tangents": [{"f": [{"mode": 1}], "s_ell": [{"mode": 32, "kind": "sin"}]}]})
    with pytest.raises(ConfigError, match="mode 32 .* n/2 = 32"):
        run_experiment(tangent)


def test_identity_suite_keeps_its_graph_loop_clear_of_the_poles():
    # The drawn modes move the area coordinate by up to 0.04 (1 + 1/2 + 1/3).
    for c in ("1/64", "63/64", "1/14"):
        config = ExperimentConfig.from_dict({"kind": "identity-suite", "c": c, "n": 64})
        with pytest.raises(ConfigError, match=f"c = {c}"):
            run_experiment(config)
    config = ExperimentConfig.from_dict({"kind": "identity-suite", "c": "1/10", "n": 64})
    assert run_experiment(config).passed


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


def crosscheck_tangents(monkeypatch, seed):
    def capture(lift, hw, tangents, ks):
        raise Drawn(tangents)

    monkeypatch.setattr(bpu, "d_bpu", capture)
    config = ExperimentConfig.from_dict({"kind": "derivative-crosscheck", "c": "1/2",
                                         "n": 64, "seed": seed})
    with pytest.raises(Drawn) as caught:
        run_experiment(config)
    return caught.value.args[0]


def identity_loop(monkeypatch, c, seed):
    def capture(area):
        raise Drawn(graph_loop(area))

    monkeypatch.setattr(experiments, "graph_loop", capture)
    config = ExperimentConfig.from_dict({"kind": "identity-suite", "c": c, "n": 256,
                                         "seed": seed})
    with pytest.raises(Drawn) as caught:
        run_experiment(config)
    return caught.value.args[0]


def test_shipped_crosscheck_stays_below_the_benchmark_ceiling_across_seeds():
    # perfbench/checker.py holds the crosscheck to 1e-6 and quotes seeds 1-40,
    # whose worst error is 9.875e-8; a drift of the oracle or of d_bpu to twice
    # that shows here before the benchmark's gate sees it.
    raw = json.loads((CONFIG_DIR / "derivative_crosscheck.json").read_text())
    worst = {seed: experiments._run_derivative_crosscheck(
        ExperimentConfig.from_dict({**raw, "seed": seed}))[1]["worst"] for seed in range(1, 41)}
    assert max(worst.values()) < 2e-7, worst


def test_seed_fixes_the_drawn_tangents_and_identity_loop(monkeypatch):
    def samples(tangents):
        return np.concatenate([np.concatenate([w.f, w.s_ell]) for w in tangents])

    first, again, other = (samples(crosscheck_tangents(monkeypatch, s)) for s in (7, 7, 8))
    assert first.size == 5 * 2 * 64
    assert first.tobytes() == again.tobytes() and not np.allclose(first, other)

    first, again, other = (identity_loop(monkeypatch, "1/2", s).points for s in (5, 5, 6))
    assert first.tobytes() == again.tobytes() and not np.allclose(first, other)
    # A graph loop encloses the mean of its area coordinate, which the draws
    # leave at c: the holonomy order stays the latitude's r.
    for c, r in (("1/2", 2), ("1/3", 3)):
        for seed in range(1, 6):
            loop = identity_loop(monkeypatch, c, seed)
            assert np.ptp(np.abs(loop.points[:, 0]) ** 2) > 0.01
            assert holonomy(loop).order == r, (c, seed)


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
    # The manifest identifies its run by the configuration itself; any digest
    # can be recomputed from it.
    assert manifest["config"] == result.config.raw
    assert "config_sha256" not in manifest
    assert manifest["calibrated_signs"]["sigma_theta"] in (-1, 1)
    assert abs(manifest["c_omega"]) in (0.5, 1.0, 2.0)
    assert set(manifest["verdicts"]) == {"leading_coefficient", "ladder_residual"}


def test_emission_is_deterministic(tmp_path, small_sweep):
    result, csv_path, json_path = small_sweep
    again_csv, again_json = emit_report(result, tmp_path)
    assert again_csv.read_bytes() == csv_path.read_bytes()
    assert again_json.read_bytes() == json_path.read_bytes()


def test_checks_run_once_per_experiment(monkeypatch, tmp_path):
    # Every kind runs the sign check once; none re-fits the pullback constants.
    calls = []

    def signs():
        calls.append(1)
        return calibration.Calibration(*bpu.CONVENTION_SIGNS, fd_relative_error=0.0)

    def constants():
        raise AssertionError("a run called measured_constants")

    monkeypatch.setattr(calibration, "calibrated_signs", signs)
    monkeypatch.setattr(calibration, "measured_constants", constants)
    kinds = set()
    for path in sorted(CONFIG_DIR.glob("*.json")):
        config = ExperimentConfig.from_json(path.read_bytes())
        emit_report(run_experiment(config), tmp_path / path.stem)
        kinds.add(config.kind)
        assert len(calls) == 1, path.name
        calls.clear()
    assert kinds == set(EXPERIMENT_KINDS)
    manifest = json.loads((tmp_path / "theorem_check_r2" / "theorem-check.json").read_text())
    assert (manifest["c_omega"], manifest["c_g"]) == (bpu.C_OMEGA, bpu.C_G)
    assert (manifest["fits"]["c_omega"], manifest["fits"]["c_g"]) == (bpu.C_OMEGA, bpu.C_G)
    assert not [key for key in manifest["fits"] if key.endswith("_raw")]


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


def test_cli_help_prints_the_usage_and_exits_0(capsys):
    for argv in (["-h"], ["--help"], ["run", "--config", "x.json", "-h"]):
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr() == (cli.USAGE + "\n", "")


def test_cli_usage_errors_exit_2_with_the_usage(capsys):
    # One case through a real process pins the process-level contract.
    proc = run_cli("run", "--bogus")
    assert proc.returncode == 2
    assert proc.stderr == f"error: option --bogus not recognized\n{cli.USAGE}\n"
    for argv in ([],                                        # no command
                 ["bogus"],                                 # unknown command
                 ["run", "--bogus"],                        # unknown option
                 ["run", "-x"],
                 ["run"],                                   # run without --config
                 ["run", "--config"],                       # --config without a value
                 ["run", "--output", "out"],
                 ["run", "--config", "x.json", "stray"],    # stray argument
                 ["list-experiments", "extra"],
                 ["list-experiments", "--output", "out"],
                 ["--config=x.json", "list-experiments"]):
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: "), argv
        assert err.endswith(f"\n{cli.USAGE}\n") and "Traceback" not in err, argv


def test_cli_options_go_before_or_after_run(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"kind": "norm-sweep", "c": "1/2", "n": 64, "l_max": 10}))
    for argv in (["run", f"--config={cfg}", "--output", str(tmp_path / "a")],
                 [f"--config={cfg}", f"--output={tmp_path / 'b'}", "run"],
                 ["--conf", str(cfg), "run", "--out", str(tmp_path / "c")]):
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
    outputs = [{p.name: p.read_bytes() for p in sorted((tmp_path / d).iterdir())}
               for d in "abc"]
    assert len(outputs[0]) == 2 and outputs[0] == outputs[1] == outputs[2]
    # Without an argument list main reads sys.argv, as the console script needs.
    capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["bpu-lab", "list-experiments"])
    assert cli.main() == 0
    assert capsys.readouterr().out.split() == list(EXPERIMENT_KINDS)


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
                {"kind": "norm-sweep", "tolerances": {"leading_rel": 0.5}},
                {"kind": "norm-sweep", "c": [1, 2]},
                {"kind": "norm-sweep", "n": 256,
                 "halfweight": {"type": "fourier", "terms": [{"mode": 200, "amplitude": 0.1}]}},
                {"kind": "identity-suite", "c": "1/64", "n": 64},
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
                {"kind": "decay", "points": [{"c": "0.9"}]},
                {"kind": "norm-sweep", "halfweight": {"type": "fourier", "term": [{"mode": 1}]}},
                {"kind": "norm-sweep", "n": 64,
                 "halfweight": {"type": "fourier", "terms": [{"mode": 1, "amp": 0.1}]}},
                {"kind": "theorem-check", "pairs": [[0, 0]],
                 "tangents": [{"f": [{"mode": 1}], "sell": [{"mode": 1}]}]},
                {"kind": "decay", "points": [{"c": 0.5, "psy": 2.0}]},
                {"kind": "profile", "k_values": [80, 160]},
                {"kind": "decay", "k_values": [40, 80]},
                {"kind": "norm-sweep", "n": 2 ** 70},
                *({"kind": "norm-sweep", "c": c} for c in BAD_C_SPELLINGS)):
        code, err = run_bad(json.dumps(bad))
        assert code == 2, (bad, err)
        assert err.startswith("error: ") and "Traceback" not in err
    code, _ = run_bad("{not json")
    assert code == 2
    # An integer literal past int()'s 4300-digit limit is a config error too,
    # in process and through a real process.
    huge_seed = '{"kind": "norm-sweep", "seed": ' + "1" * 5000 + "}"
    code, err = run_bad(huge_seed)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    cfg.write_text(huge_seed)
    proc = run_cli("run", "--config", str(cfg))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    # A config that is not UTF-8 (here a UTF-16 byte-order mark) is invalid too.
    cfg.write_bytes(b"\xff\xfe" + json.dumps({"kind": "norm-sweep"}).encode("utf-16-le"))
    code, err = cli.main(["run", "--config", str(cfg)]), capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "UTF-8" in err
    assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) == 2


def decay_reports(json_path):
    manifest = json.loads(json_path.read_text())
    assert manifest["tolerances"] == TOLERANCES
    return [p["report"] for p in manifest["fits"]["points"]]


def test_cli_decay_threshold_is_read(tmp_path, monkeypatch):
    # The shipped decay run passes at the table's -10, and every report
    # records that threshold.
    cfg = CONFIG_DIR / "decay_far_points.json"
    proc = run_cli("run", "--config", str(cfg), "--output", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    reports = decay_reports(tmp_path / "out" / "decay.json")
    assert len(reports) == 3
    assert all(rep["threshold"] == TOLERANCES["decay_slope"] and rep["passed"]
               for rep in reports)
    # The runner reads the table when it runs: no point reaches a final dyad
    # slope of -1000.
    monkeypatch.setitem(TOLERANCES, "decay_slope", -1000.0)
    _, json_path = emit_report(run_experiment(ExperimentConfig.from_json(cfg.read_text())),
                               tmp_path / "strict")
    reports = decay_reports(json_path)
    assert all(rep["threshold"] == -1000 and not rep["passed"] for rep in reports)


def test_cli_tolerance_failure_exits_1(tmp_path):
    # A point 0.05 in area from the c = 1/2 loop does not decay by k = 40:
    # its report is inconclusive and the run fails.
    cfg = tmp_path / "near.json"
    cfg.write_text(json.dumps({"kind": "decay", "c": "1/2", "n": 64, "k_values": [40],
                               "points": [{"c": 0.55}]}))
    proc = run_cli("run", "--config", str(cfg), "--output", str(tmp_path / "out"))
    assert proc.returncode == 1, proc.stderr
    assert "point0_decay: FAIL" in proc.stdout
    [report] = decay_reports(tmp_path / "out" / "decay.json")
    assert report["inconclusive"] and not report["passed"]
    assert report["threshold"] == TOLERANCES["decay_slope"]


def test_decay_run_makes_one_kernel_pass_for_all_points(monkeypatch):
    passes = []
    kernel = bpu._frame_moments

    def counted(lift, hw, tangents, ks):
        passes.append(list(ks))
        return kernel(lift, hw, tangents, ks)

    monkeypatch.setattr(bpu, "_frame_moments", counted)
    config = ExperimentConfig.from_json((CONFIG_DIR / "decay_far_points.json").read_bytes())
    rows, fits, _ = experiments._run_decay(config)
    assert passes == [list(range(2, 81, 2))]
    assert len(fits["points"]) == 3 and len(rows) == 3 * 40


def test_decay_reads_every_point_before_any_kernel_pass(tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("a kernel pass ran before the points were read")

    monkeypatch.setattr(bpu, "_frame_moments", never)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"kind": "decay", "points": [{"c": 0.9}, {"c": 0.88}, {"c": "x"}]}))
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: point c must be a finite number")


def test_decay_point_near_the_loop_gets_no_verdict():
    # c = 0.52 lies 0.011 from the c = 1/2 loop, inside DECAY_MIN_DISTANCE.
    config = ExperimentConfig.from_dict({"kind": "decay", "c": "1/2",
                                         "points": [{"c": 0.9}, {"c": 0.52}]})
    result = run_experiment(config)
    far, near = result.fits["points"]
    assert far["distance"] >= experiments.DECAY_MIN_DISTANCE > near["distance"]
    assert far["report"].passed and not far["report"].inconclusive
    assert near["report"].inconclusive and not near["report"].passed
    assert result.verdicts == {"point0_decay": True, "point1_decay": False}
    assert not result.passed


def test_cli_norm_sweep_names_the_first_non_finite_level(tmp_path):
    # Past k = 1012 the c = 1/2 sweep's norm_sq overflows (see bpu.bpu_map).
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps({"kind": "norm-sweep", "c": "1/2", "l_max": 520}))
    proc = run_cli("run", "--config", str(cfg), "--output", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert ("experiment failed: level 1014: basis norms left the double range (norm_sq inf)"
            in proc.stderr)
    assert not (tmp_path / "out").exists()


def test_cli_derivative_crosscheck_names_the_derivative_row_overflow(tmp_path):
    # At k = 1023 on c = 1/3 the derivative rows overflow while norm_sq stays
    # finite (see bpu.d_bpu): the run names the level and writes nothing,
    # where it once wrote nan errors and failed derivative_agreement.
    cfg = tmp_path / "deep.json"
    cfg.write_text(json.dumps({"kind": "derivative-crosscheck", "c": "1/3", "n": 256, "seed": 7,
                               "k_values": [1023]}))
    proc = run_cli("run", "--config", str(cfg), "--output", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert ("experiment failed: level 1023: basis norms left the double range (derivative rows)"
            in proc.stderr)
    assert not (tmp_path / "out").exists()


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


def test_cli_runs_load_neither_numpy_random_nor_openssl(tmp_path):
    # numpy.random adds 6.6 MB of peak RSS to a CLI process and imports
    # hashlib, whose _hashlib loads libcrypto (3.6 MB); seeded draws use the
    # stdlib generator and the manifest carries no digest.
    probe = ("import sys, bpu_lab.cli; "
             "codes = [bpu_lab.cli.main(['run', '--config', path, '--output', sys.argv[-1]]) "
             "for path in sys.argv[1:-1]]; "
             "print(codes, sorted({'numpy.random', '_hashlib', 'hashlib'} & set(sys.modules)))")
    configs = [str(CONFIG_DIR / name) for name in ("derivative_crosscheck.json",
                                                   "identity_suite.json")]
    proc = subprocess.run([sys.executable, "-c", probe, *configs, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] []"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "derivative-crosscheck.csv", "derivative-crosscheck.json",
        "identity-suite.csv", "identity-suite.json"]


def test_cli_process_loads_neither_argparse_nor_fractions(tmp_path):
    # argparse adds about 0.5 MB of peak RSS to a CLI process and fractions,
    # with decimal and _decimal, about 0.35 MB; the CLI parses its arguments
    # with getopt and reads c with a regular expression. -X importtime
    # reports every module the process loads.
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "bpu_lab.cli", "run",
                           "--config", str(CONFIG_DIR / "theorem_check_r2.json"),
                           "--output", str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert {"getopt", "bpu_lab.experiments", "numpy"} <= loaded
    assert not loaded & {"argparse", "fractions", "decimal"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["theorem-check.csv",
                                                          "theorem-check.json"]
