"""The calibration checks confirm the pinned conventions and reject wrong ones."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from bpu_lab import bpu, calibration, cli
from bpu_lab.errors import IntegrationAccuracyError
from bpu_lab.experiments import ExperimentConfig, run_experiment

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def test_sign_check_confirms_the_pinned_pair():
    cal = calibration.calibrated_signs()
    assert (cal.sigma_theta, cal.sigma_p) == bpu.CONVENTION_SIGNS
    assert cal.fd_relative_error <= calibration.SIGN_REL_TOL


def test_sign_check_evaluates_the_analytic_derivative_once(monkeypatch):
    calls = []
    real_gamma = bpu.gamma_flow
    monkeypatch.setattr(bpu, "gamma_flow", lambda loop, f: calls.append(1) or real_gamma(loop, f))
    calibration.calibrated_signs()
    assert len(calls) == 1


@pytest.mark.parametrize("signs, miss", [((1, 1), "1.000e+00"), ((1, -1), "2.000e+00"),
                                         ((-1, -1), "1.000e+00")],
                         ids=["plus-plus", "plus-minus", "minus-minus"])
def test_sign_check_rejects_a_wrong_pinned_pair(monkeypatch, signs, miss):
    # Each non-pinned pair misses the oracle by O(1), far above SIGN_REL_TOL.
    monkeypatch.setattr(bpu, "CONVENTION_SIGNS", signs)
    message = f"CONVENTION_SIGNS {signs} miss the finite-difference derivative by {miss} "
    with pytest.raises(IntegrationAccuracyError, match=re.escape(message)):
        calibration.calibrated_signs()


def test_constant_check_confirms_the_pinned_constants():
    consts = calibration.measured_constants()
    assert consts.c_omega_raw == pytest.approx(bpu.C_OMEGA, rel=calibration.CONSTANT_REL_TOL)
    assert consts.c_g_raw == pytest.approx(bpu.C_G, rel=calibration.CONSTANT_REL_TOL)


@pytest.mark.parametrize("name", ["C_OMEGA", "C_G"])
def test_constant_check_rejects_a_wrong_pinned_value(monkeypatch, name):
    monkeypatch.setattr(bpu, name, 1.0)
    with pytest.raises(IntegrationAccuracyError, match=name):
        calibration.measured_constants()


@pytest.mark.parametrize("name, failed", [
    ("C_OMEGA", {"pair1_omega"}), ("C_G", {"pair1_g", "pair2_g", "pair3_g"})],
    ids=["C_OMEGA", "C_G"])
def test_theorem_check_fails_on_a_wrong_pinned_constant(monkeypatch, name, failed):
    # No run re-fits the constants on a reference leaf: the shipped run's own
    # verdicts judge its fits against C_OMEGA and C_G, and reject a wrong value.
    monkeypatch.setattr(bpu, name, 1.0)
    config = ExperimentConfig.from_json((CONFIG_DIR / "theorem_check_r2.json").read_bytes())
    result = run_experiment(config)
    assert not result.passed
    assert {verdict for verdict, ok in result.verdicts.items() if not ok} == failed


def test_cli_exits_1_on_a_wrong_pinned_pair(monkeypatch, tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"kind": "norm-sweep", "c": "1/2", "n": 64, "l_max": 6}))
    monkeypatch.setattr(bpu, "CONVENTION_SIGNS", (1, -1))
    assert cli.main(["run", "--config", str(cfg), "--output", str(tmp_path / "out")]) == 1
    assert "CONVENTION_SIGNS" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
