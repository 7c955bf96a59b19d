"""The experiment scripts under ``scripts/``, run as processes on a tiny budget.

They take the CLI's flags over their own presets and exit like the CLI: 0 on
success, 2 with a one-line message on a bad request.
"""

import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import onebit_mimo
from onebit_mimo.config import CSV_HEADER

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = str(Path(onebit_mimo.__file__).parents[1])

TINY = ["--n_users", "1", "--n_rx", "4", "--snr_db", "0", "--trials", "1"]
# a budget that runs for hours: a bad request must fail before it starts
ENDLESS = ["--trials", "100000000", "--target_errors", "1000000000"]
# each script's argv and its arm count: an arm gives one row at TINY's one SNR point
RUNS = {
    "uncoded_ber_sweep": ([*TINY, "--t_c", "10", "--t_d", "10", "--detectors", "wmd,zf"], 2),
    "coded_fer_comparison": (TINY, 3),  # soft-wmd, wmd and zf
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
    argv, arms = RUNS[name]
    proc = run_script(name, *argv, "--seed", "1")
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + arms


# each script's extra argv and its default arms, on the 16 codewords of two users
PARTITIONED = {
    "uncoded_ber_sweep": (["--t_c", "10", "--t_d", "10"], ["wmd", "md", "ml", "zf"]),
    "coded_fer_comparison": ([], ["soft-wmd", "wmd", "zf"]),
}


@pytest.mark.parametrize("name", sorted(PARTITIONED))
def test_script_partition_prunes_every_arm_but_zf(name):
    argv, detectors = PARTITIONED[name]
    partition = ["--n_users", "2", "--partition", '{"k":[4],"q":[2]}']
    proc = run_script(name, *TINY, *argv, *partition, "--seed", "1")
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = list(csv.DictReader(proc.stdout.splitlines()))
    assert [row["detector"] for row in rows] == detectors
    for row in rows:
        cands = float(row["mean_candidates"])
        assert cands == 0 if row["detector"] == "zf" else 0 < cands < 16


BAD_REQUESTS = [
    (["--seed", "1", "--n_users", "0"], "n_users"),
    ([], "seed"),
    (["--seed", "1", "--detector", "wmd"], "--detector"),
    (["--seed", "1", "--output", "/nonexistent-dir/x.csv", *ENDLESS], "/nonexistent-dir/x.csv"),
]


@pytest.mark.parametrize(
    "name, argv, message",
    [(name, *bad) for name in sorted(RUNS) for bad in BAD_REQUESTS]
    # only the coded script reads the LDPC code
    + [("coded_fer_comparison", ["--seed", "1", "--ldpc_alist", "/no.alist"], "/no.alist")],
)
def test_script_bad_request_exits_2(name, argv, message):
    start = time.monotonic()
    proc = run_script(name, *RUNS[name][0], *argv)
    assert time.monotonic() - start < 20
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


def test_uncoded_script_checks_every_arm_before_the_first_runs(tmp_path):
    out = tmp_path / "ber.csv"
    start = time.monotonic()
    proc = run_script(
        "uncoded_ber_sweep", "--seed", "1", "--detectors", "wmd,md,soft-wmd",
        *ENDLESS, "--output", str(out),
    )
    assert time.monotonic() - start < 20
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "soft-wmd produces LLRs and needs a coded run" in proc.stderr
    assert list(tmp_path.iterdir()) == []
