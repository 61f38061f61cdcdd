from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bpu_lab.fourier import grid_nodes
from bpu_lab.geometry import graph_loop, latitude_loop


def wavy_loop(c0: float = 0.5, n: int = 256, seed: int = 0, amplitude: float = 0.05,
              max_mode: int = 3):
    """Graph loop of mean area c0 whose area coordinate adds modes 1..max_mode
    of amplitude `amplitude * U(0.3, 1) / m` and phase U(0, 2*pi), drawn in
    that order from numpy's generator."""
    rng = np.random.default_rng(seed)
    phi = grid_nodes(n)
    area = np.full(n, float(c0))
    for m in range(1, max_mode + 1):
        amp = amplitude * rng.uniform(0.3, 1.0) / m
        area = area + amp * np.cos(m * phi + rng.uniform(0.0, 2.0 * np.pi))
    return graph_loop(area)


class Drawn(Exception):
    """Stops a run once the seeded object under test is built."""


@pytest.fixture(scope="session")
def equator():
    return latitude_loop(0.5, 256)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import ACCEPTANCE_LINES
    except ImportError:
        return
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
