"""Shared fixtures/helpers and the acceptance summary reporter."""

import numpy as np
import pytest

from onebit_mimo.channel import sample_rayleigh
from onebit_mimo.core import qam_constellation, real_channel_matrix
from onebit_mimo.spatial_code import build_code


def random_code(K, n_r, m=4, snr_db=10.0, seed=0):
    """Spatial code for one random Rayleigh channel draw."""
    rng = np.random.default_rng(seed)
    const = qam_constellation(m, 10.0 ** (snr_db / 10.0))
    h = real_channel_matrix(sample_rayleigh(K, n_r, rng))
    return build_code(h, const)


@pytest.fixture
def small_code():
    return random_code(K=2, n_r=4, seed=3)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    lines = {}
    for outcome in ("passed", "failed", "error", "skipped"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_" not in nodeid:
                continue
            name = nodeid.split("::test_", 1)[1]
            status = "PASS" if outcome == "passed" else outcome.upper().replace("ERROR", "FAIL")
            lines[name] = status
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name in sorted(lines):
            terminalreporter.write_line(f"acceptance {name}: {lines[name]}")
