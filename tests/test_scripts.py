"""The experiment scripts under ``scripts/``, run as processes on a tiny budget.

They take the CLI's flags over their own presets and exit like the CLI: 0 on
success, 2 with a one-line message on a bad request.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import onebit_mimo
from onebit_mimo.config import CSV_HEADER

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = str(Path(onebit_mimo.__file__).parents[1])

TINY = ["--n_users", "1", "--n_rx", "4", "--snr_db", "0", "--trials", "1"]
RUNS = {
    "uncoded_ber_sweep": [*TINY, "--t_c", "10", "--t_d", "10", "--detectors", "wmd,zf"],
    "coded_fer_comparison": TINY,
}


def run_script(name, *argv):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / f"{name}.py"), *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )


@pytest.mark.parametrize("name", sorted(RUNS))
def test_script_prints_csv(name):
    proc = run_script(name, *RUNS[name], "--seed", "1")
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3  # two arms at one SNR point


BAD_REQUESTS = [
    (["--seed", "1", "--n_users", "0"], "n_users"),
    ([], "seed"),
    (["--seed", "1", "--detector", "wmd"], "--detector"),
    (["--seed", "1", "--output", "/nonexistent-dir/x.csv"], "/nonexistent-dir/x.csv"),
]


@pytest.mark.parametrize(
    "name, argv, message",
    [(name, *bad) for name in sorted(RUNS) for bad in BAD_REQUESTS]
    # only the coded script reads the LDPC code
    + [("coded_fer_comparison", ["--seed", "1", "--ldpc_alist", "/no.alist"], "/no.alist")],
)
def test_script_bad_request_exits_2(name, argv, message):
    proc = run_script(name, *RUNS[name], *argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("configuration error: ")
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_script_layers_presets_file_and_flags(tmp_path):
    # the file overrides the presets, a flag overrides the file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_rx": 4, "t_c": 10, "t_d": 10, "trials": 20, "seed": 1}))
    out = tmp_path / "ber.csv"
    proc = run_script(
        "uncoded_ber_sweep", "--config", str(cfg), "--n_users", "1", "--snr_db", "0",
        "--detectors", "wmd", "--trials", "10", "--output", str(out),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    meta = json.loads((tmp_path / "ber.csv.meta.json").read_text())["config"]
    assert (meta["n_rx"], meta["t_d"], meta["seed"]) == (4, 10, 1)  # from the file
    assert (meta["trials"], meta["n_users"]) == (10, 1)  # from the flags
    assert (meta["wave"], meta["target_errors"]) == (4, 200)  # from the presets
    assert meta["output"] == str(out)
