"""The experiment scripts under ``scripts/``, run as processes on a tiny budget.

They take the CLI's flags over their own presets and exit like the CLI: 0 on
success, 2 with a one-line message on a bad request.
"""

import csv
import importlib.util
import json
import os
import runpy
import subprocess
import sys
import time
from pathlib import Path

import pytest

import onebit_mimo
from onebit_mimo.cli import main
from onebit_mimo.config import CSV_HEADER, SimConfig

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = str(Path(onebit_mimo.__file__).parents[1])

TINY = ["--n_users", "1", "--n_rx", "4", "--snr_db", "0", "--trials", "1"]
# a budget that runs for hours: a bad request must fail before it starts
ENDLESS = ["--trials", "100000000", "--target_errors", "1000000000"]
# each script's argv and its arm count: an arm gives one row at TINY's one SNR point
RUNS = {
    "uncoded_ber_sweep": ([*TINY, "--t_d", "10"], 4),  # wmd, md, ml and zf
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
    "uncoded_ber_sweep": (["--t_d", "10"], ["wmd", "md", "ml", "zf"]),
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
# a tree over 4**2 = 16 codewords has at most 16 leaves
TOO_MANY_LEAVES = (
    ["--seed", "1", "--n_users", "2", "--partition", '{"k":[300],"q":[2]}', *ENDLESS],
    "300 leaves (the product of k), more than the 4**2 = 16 codewords",
)

# each arm sets its detector, so a --config file's is refused like the flag, partition or
# not; ZF_CONFIG stands for such a file, which the test writes
ZF_CONFIG = "<config file with detector zf>"
CONFIG_DETECTOR_REQUESTS = [
    (["--seed", "1", "--config", ZF_CONFIG], "config file's detector"),
    (["--seed", "1", "--config", ZF_CONFIG, "--partition", '{"k":[4],"q":[2]}'], "config file's"),
]


@pytest.mark.parametrize(
    "name, argv, message",
    [(name, *bad) for name in sorted(RUNS) for bad in BAD_REQUESTS]
    # only the coded script reads the LDPC code
    + [("coded_fer_comparison", ["--seed", "1", "--ldpc_alist", "/no.alist"], "/no.alist")]
    + [(name, *bad) for name in sorted(RUNS) for bad in CONFIG_DETECTOR_REQUESTS]
    + [(name, *TOO_MANY_LEAVES) for name in sorted(RUNS)],
)
def test_script_bad_request_exits_2(name, argv, message, tmp_path):
    zf_config = tmp_path / "zf.json"
    zf_config.write_text(json.dumps({"detector": "zf"}))
    argv = [str(zf_config) if arg == ZF_CONFIG else arg for arg in argv]
    start = time.monotonic()
    proc = run_script(name, *RUNS[name][0], *argv)
    assert time.monotonic() - start < 20
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("configuration error: ")
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("name", sorted(RUNS))
def test_script_reads_a_negative_snr_list_after_a_space(name):
    argv, arms = RUNS[name]
    spaced, joined = (
        run_script(name, *argv, "--seed", "1", *snr)
        for snr in (["--snr_db", "-2,0"], ["--snr_db=-2,0"])
    )
    assert (spaced.returncode, spaced.stderr) == (0, "")
    assert spaced.stdout == joined.stdout
    assert len(spaced.stdout.splitlines()) == 1 + 2 * arms


@pytest.mark.parametrize("name", sorted(RUNS))
def test_script_reads_its_config_file_once(name, tmp_path, monkeypatch, capsys):
    # the detector refusal and the config come from one read of the file
    reads = []
    read = SimConfig.from_json
    monkeypatch.setattr(
        SimConfig, "from_json", staticmethod(lambda path: reads.append(path) or read(path))
    )
    seeded, zf = tmp_path / "seed.json", tmp_path / "zf.json"
    seeded.write_text(json.dumps({"seed": 1}))
    zf.write_text(json.dumps({"seed": 1, "detector": "zf"}))
    results = []
    for extra in (["--config", str(seeded)], ["--seed", "1"], ["--config", str(zf)]):
        monkeypatch.setattr(sys, "argv", [f"{name}.py", *RUNS[name][0], *extra])
        with pytest.raises(SystemExit) as exit:
            runpy.run_path(str(SCRIPTS / f"{name}.py"), run_name="__main__")
        results.append((exit.value.code, *capsys.readouterr()))
    assert reads == [str(seeded), str(zf)]
    # the file's seed gives the CSV the flag gives, and the file's detector is refused
    assert results[0] == results[1] and results[0][0] == 0
    assert results[2][:2] == (2, "") and "config file's detector" in results[2][2]


def test_script_layers_presets_file_and_flags(tmp_path):
    # the file overrides the presets, a flag overrides the file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_rx": 4, "t_d": 10, "trials": 20, "seed": 1}))
    out = tmp_path / "ber.csv"
    proc = run_script(
        "uncoded_ber_sweep", "--config", str(cfg), "--n_users", "1", "--snr_db", "0",
        "--trials", "10", "--output", str(out),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    meta = json.loads((tmp_path / "ber.csv.meta.json").read_text())["config"]
    assert (meta["n_rx"], meta["t_d"], meta["seed"]) == (4, 10, 1)  # from the file
    assert (meta["trials"], meta["n_users"]) == (10, 1)  # from the flags
    assert (meta["wave"], meta["target_errors"]) == (4, 200)  # from the presets
    assert meta["output"] == str(out)


def test_coded_script_checks_every_arm_before_the_first_runs(tmp_path):
    # every arm refuses an odd LDPC blocklength, so none of the hours-long runs starts
    out = tmp_path / "fer.csv"
    start = time.monotonic()
    proc = run_script(
        "coded_fer_comparison", "--seed", "1", "--ldpc_n", "127", *ENDLESS, "--output", str(out),
    )
    assert time.monotonic() - start < 20
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "blocklength must be even" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_cli_reproduces_a_script_arm(capsys):
    # one arm alone is the CLI's run at the script's presets, seed and budget
    path = SCRIPTS / "uncoded_ber_sweep.py"
    spec = importlib.util.spec_from_file_location("uncoded_ber_sweep", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    presets = []
    for name, value in script.PRESETS.items():
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        presets += [f"--{name}={text}"]
    budget = ["--t_d", "10", "--trials", "40", "--seed", "1"]
    proc = run_script("uncoded_ber_sweep", *budget)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    md = [line for line, row in zip(lines[1:], csv.DictReader(lines)) if row["detector"] == "md"]
    assert len(md) == len(script.PRESETS["snr_db"])
    assert main(["uncoded", *presets, "--detector", "md", *budget]) == 0
    assert capsys.readouterr().out.splitlines() == [lines[0], *md]
