"""Command-line interface: flags, config files, outputs and exit codes."""

import argparse
import dataclasses
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import onebit_mimo
from onebit_mimo import sim
from onebit_mimo.cli import build_parser, main
from onebit_mimo.config import CSV_HEADER, FIELD_TYPES, MAX_WORKERS, SWEEP_CSV_HEADER, SimConfig
from onebit_mimo.ldpc import save_alist

SMALL = [
    "--n_users", "2", "--n_rx", "8", "--t_c", "100", "--t_d", "100",
    "--trials", "100", "--target_errors", "1000000", "--wave", "1", "--seed", "1",
]
CODED = [
    "--n_users", "2", "--n_rx", "8", "--t_c", "128", "--t_d", "128",
    "--ldpc_n", "128", "--frames_per_block", "1", "--trials", "4",
    "--target_errors", "1000000", "--wave", "1", "--seed", "2",
    "--detector", "soft-wmd", "--snr_db", "30",
]
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# complexity subcommand


def test_complexity_full_search(capsys):
    code, out, _ = run_cli(capsys, ["complexity", "--n_users", "8", "--m", "4"])
    assert code == 0
    assert out.splitlines() == ["partition,n_pre,n_wmd,n_total", "full,0,65536,65536"]


def test_complexity_single_level(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "complexity", "--n_users", "8", "--m", "4",
            "--partition", '{"k": [32], "q": [8]}',
        ],
    )
    assert code == 0
    assert out.splitlines()[1] == "k32-q8,32,16384,16416"


def test_complexity_three_levels(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "complexity", "--n_users", "8", "--m", "4",
            "--partition", '{"k": [32, 4, 4], "q": [8, 8, 8]}',
        ],
    )
    assert code == 0
    assert out.splitlines()[1] == "k32x4x4-q8x8x8,96,1024,1120"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--m", "8"], "m must be an even power of 2"),
        (["--n_users", "0"], "n_users and n_rx must be positive"),
        (["--n_users", "5000", "--partition", '{"k": [4], "q": [2]}'], "codebook"),
        (["--n_users", "10000"], "codebook"),
    ],
)
def test_complexity_rejects_invalid_config(capsys, argv, message):
    code, out, err = run_cli(capsys, ["complexity", *argv])
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["complexity", "--m", "4", "--n_users", "3", "--partition", '{"k": [8], "q": [4]}'],
            "k8-q4,8,32,40\n",
        ),
        (["partition-stats", *SMALL, "--partition", '{"k": [4, 4], "q": [2, 4]}'], "n_total=16"),
    ],
)
def test_analytic_subcommands_accept_soft_wmd(capsys, argv, expected):
    # they take no run kind, so the paper's soft detector is as good as wmd
    code, out, err = run_cli(capsys, [*argv, "--detector", "soft-wmd"])
    assert (code, err) == (0, "")
    assert expected in out
    assert run_cli(capsys, [*argv, "--detector", "wmd"]) == (0, out, "")


# ---------------------------------------------------------------------------
# result-producing subcommands


def test_uncoded_stdout(capsys):
    code, out, _ = run_cli(capsys, ["uncoded", *SMALL])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert lines[1].split(",")[1] == "wmd"


def test_uncoded_snr_list(capsys):
    code, out, _ = run_cli(capsys, ["uncoded", *SMALL, "--snr_db", "0,5,10"])
    assert code == 0
    rows = out.splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["0", "5", "10"]


def test_uncoded_output_file_with_sidecar(capsys, tmp_path):
    out_path = tmp_path / "run.csv"
    code, out, _ = run_cli(capsys, ["uncoded", *SMALL, "--output", str(out_path)])
    assert code == 0
    assert out == ""  # everything went to the file
    assert out_path.read_text().splitlines()[0] == CSV_HEADER
    meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
    assert meta["config"]["seed"] == 1


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "n_users": 2, "n_rx": 8, "t_c": 100, "t_d": 100,
                "trials": 400, "target_errors": 10**6, "wave": 1, "seed": 1,
            }
        )
    )
    code, out, _ = run_cli(
        capsys, ["uncoded", "--config", str(cfg_path), "--trials", "100"]
    )
    assert code == 0
    assert out.splitlines()[1].split(",")[5] == "100"  # flag beat the file value
    code, out, _ = run_cli(capsys, ["uncoded", "--config", str(cfg_path)])
    assert out.splitlines()[1].split(",")[5] == "400"
    # the flag replaces the file's invalid partition before anything is checked
    cfg_path.write_text(json.dumps({"partition": {"k": [4], "q": [8]}}))
    for command in ("uncoded", "complexity"):
        code, out, err = run_cli(
            capsys, [command, "--config", str(cfg_path), *SMALL, "--partition", "full"]
        )
        assert (code, err) == (0, ""), command
        assert out.splitlines()[1].startswith(("10,wmd,ber,", "full,")), command
    code, _, err = run_cli(capsys, ["uncoded", "--config", str(cfg_path), *SMALL])
    assert code == 2
    assert "invalid partition" in err


def test_coded_stdout(capsys):
    code, out, _ = run_cli(capsys, ["coded", *CODED])
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[1] == "soft-wmd" and row[2] == "fer"


def test_partition_sweep_stdout(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "partition-sweep", *SMALL,
            "--sweep", '["full", {"k": [4, 4], "q": [2, 4]}]',
        ],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert lines[1].startswith("full,0,16,16,")
    assert lines[2].startswith("k4x4-q2x4,12,4,16,")


def test_partition_stats_output(capsys):
    code, out, _ = run_cli(
        capsys,
        ["partition-stats", *SMALL, "--partition", '{"k": [4, 4], "q": [2, 4]}'],
    )
    assert code == 0
    assert "level 1" in out and "level 2" in out
    assert "n_total=16" in out


# ---------------------------------------------------------------------------
# exit codes


def test_missing_seed_is_config_error(capsys):
    code, _, err = run_cli(capsys, ["uncoded", "--n_users", "2", "--n_rx", "8"])
    assert code == 2
    assert "seed" in err


def test_bad_detector_is_config_error(capsys):
    code, _, err = run_cli(capsys, ["uncoded", *SMALL, "--detector", "mrc"])
    assert code == 2
    assert "detector" in err


def test_bad_partition_spec_is_config_error(capsys):
    code, _, err = run_cli(capsys, ["uncoded", *SMALL, "--partition", "{oops"])
    assert code == 2


def test_invalid_partition_chain_is_config_error(capsys):
    code, _, err = run_cli(
        capsys, ["uncoded", *SMALL, "--partition", '{"k": [4], "q": [8]}']
    )
    assert code == 2


def test_frames_overrunning_block_is_config_error(capsys):
    code, _, err = run_cli(
        capsys,
        [
            "coded", "--n_users", "2", "--n_rx", "8", "--t_c", "128", "--t_d", "128",
            "--ldpc_n", "128", "--frames_per_block", "10", "--trials", "20",
            "--seed", "2", "--detector", "soft-wmd",
        ],
    )
    assert code == 2
    assert "t_d=128" in err


def test_bad_config_file_is_config_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, ["uncoded", "--config", str(bad)])
    assert code == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"n_user": 2}))
    code, _, err = run_cli(capsys, ["uncoded", "--config", str(unknown)])
    assert code == 2
    assert "n_user" in err
    missing = tmp_path / "missing.json"
    code, _, _ = run_cli(capsys, ["uncoded", "--config", str(missing)])
    assert code == 2


@pytest.mark.parametrize(
    "field, value", [("m", 4.0), ("n_users", "2"), ("trials", True), ("snr_db", "10")]
)
def test_wrongly_typed_config_value_is_config_error(capsys, tmp_path, field, value):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"n_users": 2, "n_rx": 8, "seed": 1, field: value}))
    for command in ("uncoded", "complexity"):
        code, _, err = run_cli(capsys, [command, "--config", str(path)])
        assert code == 2, command
        assert field in err, command


@pytest.mark.parametrize(
    "argv",
    [
        ["uncoded", *SMALL, "--detector", "soft-wmd"],
        ["partition-sweep", *SMALL, "--detector", "soft-wmd", "--sweep", '["full"]'],
        ["coded", *SMALL, "--detector", "zf", "--ldpc_n", "64"],
    ],
)
def test_detector_of_the_wrong_run_kind_is_config_error(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert argv[argv.index("--detector") + 1] in err


def test_uncoded_runs_at_m_1024(capsys):
    # the message digits of m >= 256 used to wrap in a uint8 copy
    argv = ["--m", "1024", "--n_users", "1", "--n_rx", "4", "--t_c", "10", "--t_d", "10"]
    code, out, err = run_cli(capsys, ["uncoded", *argv, "--trials", "10", "--seed", "1"])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2


def test_zf_with_partition_is_config_error(capsys):
    code, _, err = run_cli(
        capsys, ["uncoded", *SMALL, "--detector", "zf", "--partition", '{"k": [4], "q": [2]}']
    )
    assert code == 2
    assert "zf" in err
    code, out, err = run_cli(
        capsys,
        [
            "partition-sweep", *SMALL, "--detector", "zf",
            "--sweep", '["full", {"k": [4], "q": [2]}]',
        ],
    )
    assert code == 2
    assert "zf" in err and out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["uncoded", *SMALL, "--seed", "-1"], "seed"),
        (
            ["partition-stats", *SMALL, "--partition", '{"k": [4], "q": [2]}', "--seed", "-2"],
            "seed",
        ),
        (["coded", *CODED, "--ldpc_seed", "-3"], "ldpc_seed"),
        (["coded", *CODED, "--ldpc_max_iter", "-3"], "ldpc_max_iter"),
        (
            [
                "complexity", "--n_users", "4", "--csir", "estimated",
                "--t_t", "5", "--t_d", "20", "--t_c", "25",
            ],
            "t_t",
        ),
        # a file that cannot be read or written is named in the message
        (["coded", *CODED, "--ldpc_alist", "/nonexistent.alist"], "/nonexistent.alist"),
        (["uncoded", *SMALL, "--output", "/nonexistent-dir/run.csv"], "/nonexistent-dir/run.csv"),
        (["complexity", "--output", "/nonexistent-dir/run.csv"], "/nonexistent-dir/run.csv"),
    ],
)
def test_out_of_range_value_is_config_error(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert message in err


def test_too_many_workers_is_config_error(capsys, monkeypatch):
    def no_pool(cfg):
        raise AssertionError("a worker pool was requested")

    monkeypatch.setattr(sim, "_make_executor", no_pool)
    for workers in (MAX_WORKERS + 1, 100000):
        code, out, err = run_cli(capsys, ["uncoded", *SMALL, "--workers", str(workers)])
        assert (code, out) == (2, "")
        assert "workers" in err


SUBCOMMAND_ARGS = {
    "uncoded": [],
    "coded": ["--detector", "soft-wmd", "--ldpc_n", "64"],
    "partition-sweep": ["--sweep", '["full"]'],
    "partition-stats": ["--partition", '{"k": [4], "q": [2]}'],
    "complexity": [],
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGS))
def test_invalid_config_exits_2_from_every_subcommand(capsys, tmp_path, command):
    # one check, when the config is built, whether the value is a flag or in a file
    extra = SUBCOMMAND_ARGS[command]
    code, out, err = run_cli(capsys, [command, *SMALL, *extra, "--seed", "-1"])
    assert (code, out) == (2, "")
    assert "seed" in err
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"n_users": 2, "n_rx": 8, "t_c": 100, "t_d": 100, "seed": -1}))
    code, out, err = run_cli(capsys, [command, "--config", str(path), *extra])
    assert (code, out) == (2, "")
    assert "seed" in err


def test_readme_shows_the_sweep_example_output(capsys):
    text = README.read_text(encoding="utf-8")
    start = text.index("onebit-mimo partition-sweep")
    command = text[start : text.index("\n```", start)].replace("\\\n", " ")
    argv = shlex.split(command)[1:]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert "\n```\n" + out + "```\n" in text


def test_bad_sweep_is_config_error(capsys):
    code, _, _ = run_cli(capsys, ["partition-sweep", *SMALL, "--sweep", "not json"])
    assert code == 2
    code, _, _ = run_cli(capsys, ["partition-sweep", *SMALL, "--sweep", '"full"'])
    assert code == 2


def test_no_subcommand_prints_help(capsys):
    code, _, err = run_cli(capsys, [])
    assert code == 2
    assert "usage" in err.lower()


def test_argparse_rejects_bad_flag_value():
    with pytest.raises(SystemExit) as excinfo:
        main(["uncoded", "--trials", "many"])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# SimConfig is the one declaration of the flags


def test_every_field_has_one_flag_on_every_subcommand():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    fields = [f"--{f.name}" for f in dataclasses.fields(SimConfig)]
    for command, p in sub.choices.items():
        flags = [flag for action in p._actions for flag in action.option_strings]
        assert all(flags.count(flag) == 1 for flag in fields), command


def test_flags_are_typed_by_the_annotations(capsys):
    assert FIELD_TYPES["m"] == (int, False) and FIELD_TYPES["ldpc_rate"] == (float, False)
    assert FIELD_TYPES["seed"] == (int, True) and FIELD_TYPES["output"] == (str, True)
    assert "snr_db" not in FIELD_TYPES and "partition" not in FIELD_TYPES
    with pytest.raises(SystemExit) as excinfo:
        main(["complexity", "--m", "4.5"])
    assert excinfo.value.code == 2
    assert "invalid int value: '4.5'" in capsys.readouterr().err
    code, _, err = run_cli(capsys, ["complexity", "--ldpc_rate", "0.5"])
    assert (code, err) == (0, "")


def test_readme_field_table_lists_exactly_the_fields():
    text = README.read_text(encoding="utf-8")
    start = text.index("### Configuration fields")
    table = text[start : text.index("\n\n", text.index("|", start))]
    names = [
        name
        for line in table.splitlines()[3:]
        for name in re.findall(r"`(\w+)`", line.split("|")[1])
    ]
    assert sorted(names) == sorted(f.name for f in dataclasses.fields(SimConfig))


def test_rank_deficient_alist_is_numerical_failure(capsys, tmp_path):
    h = np.zeros((4, 8), dtype=np.uint8)
    h[0, :6] = 1
    h[1, :6] = 1  # duplicate row makes the matrix rank deficient
    h[2, 2:8] = 1
    h[3, 1:7] = 1
    path = tmp_path / "bad.alist"
    save_alist(h, path)
    code, _, err = run_cli(
        capsys,
        [
            "coded", "--n_users", "2", "--n_rx", "8", "--t_c", "100", "--t_d", "100",
            "--trials", "4", "--wave", "1", "--seed", "3",
            "--detector", "soft-wmd", "--ldpc_alist", str(path),
        ],
    )
    assert code == 3
    assert "numerical failure" in err


@pytest.mark.parametrize(
    "spec",
    [
        "[16, 8]",
        '{"k": ["a"], "q": [1]}',
        '{"k": [4.7], "q": [1.9]}',
        '{"k": [true], "q": [true]}',
        '{"k": 4, "q": [2]}',
    ],
)
def test_partition_spec_with_non_integer_entries_is_config_error(capsys, spec):
    code, out, err = run_cli(
        capsys, ["complexity", "--n_users", "2", "--m", "4", "--partition", spec]
    )
    assert code == 2
    assert out == ""
    assert "partition" in err


def test_sweep_arm_with_non_integer_entries_is_config_error(capsys):
    code, out, err = run_cli(capsys, ["partition-sweep", *SMALL, "--sweep", "[[16, 8]]"])
    assert code == 2
    assert out == ""
    assert "partition" in err


@pytest.mark.parametrize(
    "run", [["uncoded"], ["coded", "--detector", "soft-wmd", "--ldpc_n", "64"]]
)
@pytest.mark.parametrize("snr", ["nan", "inf", "-inf", "1e400", "0,nan"])
def test_non_finite_snr_is_config_error(capsys, run, snr):
    code, out, err = run_cli(capsys, [*run, *SMALL, f"--snr_db={snr}"])
    assert code == 2
    assert out == ""
    assert "snr_db" in err


@pytest.mark.parametrize(
    "run", [["uncoded"], ["coded", "--detector", "soft-wmd", "--ldpc_n", "64"]]
)
@pytest.mark.parametrize("snr", ["-4000", "4000"])
def test_snr_beyond_float_range_is_config_error(capsys, tmp_path, run, snr):
    # finite in dB, but 10**(snr_db/10) underflows to 0 or overflows
    code, out, err = run_cli(capsys, [*run, *SMALL, f"--snr_db={snr}"])
    assert (code, out) == (2, "")
    assert "snr_db" in err
    path = tmp_path / "c.json"
    path.write_text(f'{{"n_users": 2, "n_rx": 8, "seed": 1, "snr_db": [10, {snr}]}}')
    code, out, err = run_cli(capsys, [*run, "--config", str(path)])
    assert (code, out) == (2, "")
    assert "snr_db" in err


def test_non_finite_snr_in_config_file_is_config_error(capsys, tmp_path):
    # Python's JSON parser reads NaN and Infinity, and 1e400 as inf
    for text in ("NaN", "[0, Infinity]", "1e400"):
        path = tmp_path / "c.json"
        path.write_text(f'{{"n_users": 2, "n_rx": 8, "seed": 1, "snr_db": {text}}}')
        code, out, err = run_cli(capsys, ["uncoded", "--config", str(path)])
        assert code == 2, text
        assert "snr_db" in err, text


# ---------------------------------------------------------------------------
# console script, or the package run as a module


def test_console_script_runs():
    # without an installed script, run this copy of the package as a module
    exe = shutil.which("onebit-mimo")
    cmd = [exe] if exe is not None else [sys.executable, "-m", "onebit_mimo"]
    src = str(Path(onebit_mimo.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [*cmd, "complexity", "--n_users", "8", "--m", "4"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0
    assert "full,0,65536,65536" in proc.stdout


def test_cli_module_runs():
    src = str(Path(onebit_mimo.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "onebit_mimo.cli", "complexity", "--m", "4", "--n_users", "2"],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["partition,n_pre,n_wmd,n_total", "full,0,16,16"]
