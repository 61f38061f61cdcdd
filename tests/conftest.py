from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bpu_lab.geometry import latitude_loop, perturbed_latitude


def wavy_loop(c0: float = 0.5, n: int = 256, seed: int = 0, amplitude: float = 0.05,
              max_mode: int = 3):
    return perturbed_latitude(c0, n, amplitude=amplitude, seed=seed, max_mode=max_mode)


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
