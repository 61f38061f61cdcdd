"""Tests of the benchmark's output checker, tracer and entry point.

Each test that runs the program starts `python -m bpu_lab.cli` (or the
tracer) on a cheap config, with the package taken from this checkout.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checker  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _run(argv: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=_env(),
                          capture_output=True, text=True, timeout=170)


def _shipped_config(tmp_path: Path, name: str, **changes) -> tuple[dict, Path]:
    config = json.loads((ROOT / "configs" / name).read_text())
    config.update(changes)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return config, path


def _cli(config_path: Path, outdir: Path) -> subprocess.CompletedProcess:
    return _run(["-m", "bpu_lab.cli", "run", "--config", str(config_path),
                 "--output", str(outdir)])


# ---------------------------------------------------------------------------
# Checker
# ---------------------------------------------------------------------------

def test_checker_fails_the_underflowing_profile(tmp_path):
    # k = 1024 sits above the basis-norm underflow: exit 1 and NaN in the manifest.
    config, path = _shipped_config(tmp_path, "profile_equator.json", k_values=[1024])
    proc = _cli(path, tmp_path / "out")
    check = checker.check_output(proc.returncode, tmp_path / "out", "profile", config, None)
    assert not check.ok
    assert "exit code 1" in check.problems
    assert any(p.startswith("non-finite manifest values") for p in check.problems)


def test_checker_fails_a_value_off_the_reference(tmp_path):
    reference = bench.REFERENCE_DIR / "ladder"
    config = json.loads((reference / "norm-sweep.json").read_text())["config"]
    out = tmp_path / "out"
    shutil.copytree(reference, out)
    check = checker.check_output(0, out, "norm-sweep", config, reference)
    assert check.ok and check.byte_identical

    lines = (out / "norm-sweep.csv").read_text().splitlines()
    k, l, r, re, im = lines[5].split(",")
    for factor, ok in ((1.0 + 1e-9, True), (1.0 + 1e-5, False)):
        changed = lines[:5] + [f"{k},{l},{r},{float(re) * factor!r},{im}"] + lines[6:]
        (out / "norm-sweep.csv").write_text("\n".join(changed) + "\n")
        check = checker.check_output(0, out, "norm-sweep", config, reference)
        assert check.ok is ok, check.problems
        assert not check.byte_identical


def test_nan_is_allowed_only_as_the_inconclusive_slope_marker():
    nan = float("nan")
    assert checker.non_finite_paths({"slope": nan, "inconclusive": True}) == []
    assert checker.non_finite_paths({"slope": nan, "inconclusive": False}) == ["slope"]
    assert checker.non_finite_paths({"fits": {"ratio": [1.0, nan]}}) == ["fits.ratio[1]"]
    assert checker.non_finite_paths({"a": math.inf, "b": 0.0}) == ["a"]


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

def test_self_times_subtract_direct_children():
    spans = [["cli", "main", 0.0, 10.0, None, None],
             ["bpu", "fd_d_bpu", 1.0, 7.0, 0, None],
             ["leaf", "flow_state", 2.0, 5.0, 1, None],
             ["fourier", "TrigInterpolator.__call__", 3.0, 4.0, 2, {"entries": 8}]]
    assert tracer.self_times(spans) == [4.0, 3.0, 2.0, 1.0]
    summary = tracer.summarize(spans)
    assert summary["leaf.flow_total_s"] == 3.0
    assert summary["leaf.flow_self_s"] == 2.0
    assert summary["fourier.interp_entries"] == 8
    assert summary["bpu.fd_total_s"] == 6.0


def test_traced_run_matches_untraced_and_attributes_across_modules(tmp_path):
    config, path = _shipped_config(tmp_path, "norm_sweep_r2.json")
    assert _cli(path, tmp_path / "plain").returncode == 0
    spans_path = tmp_path / "spans.json"
    proc = _run([str(BENCH_DIR / "tracer.py"), "--spans", str(spans_path), "--",
                 "run", "--config", str(path), "--output", str(tmp_path / "traced")])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in ("norm-sweep.csv", "norm-sweep.json"):
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    doc = json.loads(spans_path.read_text())
    spans = doc["spans"]
    # bpu.fd_d_bpu calls flow_state through `from .leaf import flow_state`.
    flows = [s for s in spans if s[:2] == ["leaf", "flow_state"]]
    assert flows and all(spans[s[4]][:2] == ["bpu", "fd_d_bpu"] for s in flows)
    assert spans[0][:2] == ["cli", "main"] and spans[0][4] is None
    assert {s[0] for s in spans} == set(tracer.LAYERS)
    own = tracer.self_times(spans)
    assert min(own) >= 0.0
    assert sum(own) <= doc["wall_s"]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def test_seed_reaches_only_the_crosscheck_config():
    crosscheck = bench.make_config(ROOT, bench.WORKLOADS["crosscheck"], 11)
    assert crosscheck["seed"] == 11 and crosscheck["k_values"] == [8, 16, 32]
    for name in ("ladder", "pullback"):
        workload = bench.WORKLOADS[name]
        assert bench.make_config(ROOT, workload, 1) == bench.make_config(ROOT, workload, 2)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["perfbench/run.py", "--workload", "ladder", "--seed", "1",
                 "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_reference_outputs_pass_their_own_check(name, tmp_path):
    workload = bench.WORKLOADS[name]
    reference = bench.REFERENCE_DIR / name
    config = bench.make_config(ROOT, workload, bench.DEFAULT_SEED)
    shutil.copytree(reference, tmp_path / "out")
    check = checker.check_output(0, tmp_path / "out", workload.kind, config, reference,
                                 compare_values=not workload.seeded)
    assert check.ok, check.problems
