"""The experiment scripts under ``scripts/`` run end to end on a tiny budget."""

import importlib.util
import sys
from pathlib import Path

import pytest

from onebit_mimo.config import CSV_HEADER, SWEEP_CSV_HEADER

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

RUNS = {
    "uncoded_ber_sweep": (
        ["--n_users", "2", "--n_rx", "4", "--snr_db", "5", "--detectors", "wmd,zf",
         "--trials", "10", "--seed", "1"],
        CSV_HEADER,
        2,
    ),
    "partition_tradeoff": (
        ["--n_users", "2", "--n_rx", "4", "--sweep", '["full", {"k": [4], "q": [2]}]',
         "--trials", "10", "--seed", "1"],
        SWEEP_CSV_HEADER,
        2,
    ),
    "coded_fer_comparison": (
        ["--n_users", "1", "--n_rx", "4", "--snr_db", "0", "--trials", "1", "--seed", "1"],
        CSV_HEADER,
        2,
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_script_prints_csv(name, monkeypatch, capsys):
    argv, header, n_rows = RUNS[name]
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    assert script.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + n_rows
