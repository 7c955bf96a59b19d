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


def write_alist(h: np.ndarray) -> str:
    """A parity-check matrix in the standard alist text format, for tests that load one."""
    h = np.asarray(h, dtype=np.uint8)
    n_checks, n = h.shape
    col_deg, row_deg = h.sum(axis=0), h.sum(axis=1)
    lines = [
        f"{n} {n_checks}",
        f"{col_deg.max()} {row_deg.max()}",
        " ".join(map(str, col_deg)),
        " ".join(map(str, row_deg)),
    ]
    # 1-based indices of each column's, then each row's, ones, zero padded
    for side, width in ((h.T, col_deg.max()), (h, row_deg.max())):
        for ones in side:
            idx = np.flatnonzero(ones) + 1
            lines.append(" ".join(map(str, list(idx) + [0] * (width - idx.size))))
    return "\n".join(lines) + "\n"


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
