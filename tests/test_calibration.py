"""The calibration checks confirm the pinned conventions and reject wrong ones."""

from __future__ import annotations

import json

import pytest

from bpu_lab import bpu, calibration, cli
from bpu_lab.errors import IntegrationAccuracyError


def test_sign_check_confirms_the_pinned_pair():
    cal = calibration.calibrated_signs()
    assert (cal.sigma_theta, cal.sigma_p) == bpu.CONVENTION_SIGNS
    assert cal.fd_relative_error <= calibration.SIGN_REL_TOL


def test_sign_check_rejects_a_wrong_pinned_pair(monkeypatch):
    monkeypatch.setattr(bpu, "CONVENTION_SIGNS", (1, 1))
    with pytest.raises(IntegrationAccuracyError, match="CONVENTION_SIGNS"):
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


def test_cli_exits_1_on_a_wrong_pinned_pair(monkeypatch, tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"kind": "norm-sweep", "c": "1/2", "n": 64, "l_max": 6}))
    monkeypatch.setattr(bpu, "CONVENTION_SIGNS", (1, -1))
    assert cli.main(["run", "--config", str(cfg), "--output", str(tmp_path / "out")]) == 1
    assert "CONVENTION_SIGNS" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
