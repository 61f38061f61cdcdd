"""A fixed-seed sweep of the accepted config surface, run in process: every
outcome must be a `RunResult` (with its PASS or FAIL verdicts) or a named
`BpuLabError`, and no run may raise a warning."""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from bpu_lab.errors import BpuLabError
from bpu_lab.experiments import ExperimentConfig, RunResult, run_experiment

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# The numeric kinds, each drawn from the first shipped config of its kind by
# name (the constant half-weight on c = 1/2); levels stay below 1000, under
# the first norm overflow of every drawn latitude.
SHIPPED = {}
for raw in (json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))):
    if raw["kind"] != "identity-suite":
        SHIPPED.setdefault(raw["kind"], raw)
FRACTIONS = ("1/16", "1/8", "1/5", "1/4", "1/3", "2/5", "1/2", "3/5", "2/3", "3/7")
NODES = (64, 128, 256)
TOP_LEVEL = 999
SEED, SIZE = 21, 120


def drawn_configs() -> list[dict]:
    """SIZE configs drawn with numpy's generator at SEED: kind, c and n, then the
    levels, multiples of the winding r (the denominator of c) up to TOP_LEVEL."""
    rng = np.random.default_rng(SEED)
    out = []
    for _ in range(SIZE):
        kind = sorted(SHIPPED)[rng.integers(len(SHIPPED))]
        c, n = FRACTIONS[rng.integers(len(FRACTIONS))], int(NODES[rng.integers(len(NODES))])
        r = int(c.split("/")[1])
        top = TOP_LEVEL // r
        raw = dict(SHIPPED[kind], c=c, n=n)
        if kind in ("norm-sweep", "theorem-check"):
            raw["l_max"] = int(rng.integers(5, top + 1))
        elif kind == "derivative-crosscheck":
            raw["k_values"] = sorted(r * int(l) for l in rng.choice(np.arange(1, top + 1), 3, replace=False))
        else:  # profile, decay: one level, at least 2r for decay's (k, 2k) pair
            raw["k_values"] = [r * int(rng.integers(1 if kind == "profile" else 2, top + 1))]
        out.append(raw)
    return out


def test_accepted_configs_end_in_a_result_or_a_named_error():
    assert len(SHIPPED) == 5
    outcomes = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for raw in drawn_configs():
            config = ExperimentConfig.from_dict(raw)
            try:
                outcomes.append(run_experiment(config))
            except BpuLabError as exc:
                outcomes.append(exc)
    assert len(outcomes) == SIZE
    assert all(isinstance(o, (RunResult, BpuLabError)) for o in outcomes)
