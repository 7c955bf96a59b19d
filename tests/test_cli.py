"""Command-line interface: flags, config files, outputs and exit codes."""

import argparse
import dataclasses
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import write_alist

import onebit_mimo
from onebit_mimo import sim
from onebit_mimo.cli import build_parser, compare, main
from onebit_mimo.config import (
    ARM_COLUMNS,
    CSV_HEADER,
    FIELD_RULES,
    FIELD_TYPES,
    MAX_WORKERS,
    SWEEP_CSV_HEADER,
    ResultRow,
    SimConfig,
    SweepRow,
)
from onebit_mimo.errors import ConfigurationError
from onebit_mimo.ldpc import DESIGN_RATE
from onebit_mimo.sim import write_results

SMALL = [
    "--n_users", "2", "--n_rx", "8", "--t_d", "100",
    "--trials", "100", "--target_errors", "1000000", "--wave", "1", "--seed", "1",
]
CODED = [
    "--n_users", "2", "--n_rx", "8", "--t_d", "64",
    "--ldpc_n", "128", "--trials", "4",
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


def test_complexity_counts_are_exact_when_prod_k_passes_int64(capsys):
    # prod(k) = 2**64 used to wrap to 0 in an int64 product (ZeroDivisionError),
    # and 3**50 to a wrong nonzero divisor
    for k, n_wmd in ((4294967296, "3.55271e-15"), (847288609443, "9.12887e-20")):
        spec = json.dumps({"k": [k, k], "q": [1, 1]})
        code, out, err = run_cli(capsys, ["complexity", "--n_users", "8", "--partition", spec])
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == f"k{k}x{k}-q1x1,{2 * k},{n_wmd},{2 * k:.6g}"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--m", "8"], "m must be an even power of 2"),
        (["--n_users", "0"], "n_users must be an integer >= 1, got 0"),
        (["--n_users", "5000", "--partition", '{"k": [4], "q": [2]}'], "codebook"),
        (["--n_users", "10000"], "codebook"),
        # qq was ignored
        (["--partition", '{"k":[4],"q":[2],"qq":[9]}'], "unknown partition keys: ['qq']"),
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


@pytest.mark.parametrize("command, flags", [("uncoded", SMALL), ("coded", CODED)])
def test_negative_snr_list_after_a_space_reads_as_after_an_equals_sign(capsys, command, flags):
    # argparse takes "-2,0" for an unknown option unless told that it is a value
    csvs = []
    for snr in (["--snr_db", "-2,0"], ["--snr_db=-2,0"], ["--snr_db", "-.5e1,0"]):
        code, out, err = run_cli(capsys, [command, *flags, *snr])
        assert (code, err) == (0, "")
        csvs.append(out)
    assert [row.split(",")[0] for row in csvs[0].splitlines()[1:]] == ["-2", "0"]
    assert csvs[0] == csvs[1]
    assert [row.split(",")[0] for row in csvs[2].splitlines()[1:]] == ["-5", "0"]


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
                "n_users": 2, "n_rx": 8, "t_d": 100,
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


def test_complexity_prints_the_cells_of_a_sweep_row(capsys):
    # a fractional count too follows the one cell rule, at six significant digits
    spec = '{"k": [3], "q": [1]}'
    code, out, _ = run_cli(
        capsys, ["complexity", "--n_users", "2", "--m", "4", "--partition", spec]
    )
    assert code == 0
    assert out.splitlines() == ["partition,n_pre,n_wmd,n_total", "k3-q1,3,5.33333,8.33333"]
    code, sweep, _ = run_cli(capsys, ["partition-sweep", *SMALL, "--sweep", f"[{spec}]"])
    assert code == 0
    assert sweep.splitlines()[0].split(",")[:4] == out.splitlines()[0].split(",")
    assert sweep.splitlines()[1].split(",")[:4] == out.splitlines()[1].split(",")


def test_partition_sweep_output_file_with_sidecar(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys,
        [
            "partition-sweep", *SMALL, "--output", str(out_path),
            "--sweep", '["full", {"k": [4, 4], "q": [2, 4]}]',
        ],
    )
    assert code == 0
    assert out == ""
    assert out_path.read_text().splitlines()[0] == SWEEP_CSV_HEADER
    meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
    walls = meta["row_wall_time_s"]
    assert len(walls) == 2 and all(w > 0 for w in walls)  # one per arm
    assert meta["total_wall_time_s"] == sum(walls)
    assert "ldpc" not in meta  # an uncoded run names no code


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


TOO_MANY_LEAVES = '{"k":[300],"q":[2]}'


@pytest.mark.parametrize(
    "argv",
    [
        ["partition-sweep", *SMALL, "--sweep",
         f'["full", {TOO_MANY_LEAVES}, {{"k":[8,8],"q":[2,2]}}]'],
        ["partition-stats", *SMALL, "--partition", TOO_MANY_LEAVES],
        ["uncoded", *SMALL, "--partition", TOO_MANY_LEAVES],
        ["coded", *CODED, "--partition", TOO_MANY_LEAVES],
    ],
    ids=lambda argv: argv[0],
)
def test_more_partition_leaves_than_codewords_is_config_error(capsys, argv):
    # 300 leaves over the 4**2 = 16 codewords: the sweep used to exit 0 with counts
    # for a tree that was never built
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert "k300-q2 has 300 leaves (the product of k), more than the 4**2 = 16 codewords" in err


def test_complexity_counts_take_more_leaves_than_codewords(capsys):
    # closed-form counts build no tree
    argv = ["complexity", "--n_users", "2", "--partition", TOO_MANY_LEAVES]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[1].startswith("k300-q2,300,")


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
            "coded", "--n_users", "2", "--n_rx", "8", "--t_d", "128",
            "--ldpc_n", "128", "--frames_per_block", "10", "--trials", "20",
            "--seed", "2", "--detector", "soft-wmd",
        ],
    )
    assert code == 2
    assert "t_d=128" in err


def test_frames_per_block_is_the_count_that_fits_t_d(capsys):
    # frames of 128 / 2 = 64 slots: t_d=128 holds 2, so a given 2 runs as if left out
    argv = ["coded", *CODED, "--t_d", "128"]
    code, want, _ = run_cli(capsys, argv)
    assert code == 0
    assert run_cli(capsys, [*argv, "--frames_per_block", "2"]) == (0, want, "")
    for frames in (1, 3):
        code, out, err = run_cli(capsys, [*argv, "--frames_per_block", str(frames)])
        assert (code, out) == (2, "")
        assert err == (f"configuration error: frames_per_block={frames} != the 2 whole "
                       "frame(s) of 64 slots that fit t_d=128\n")


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
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'\xff{"n_users": 2}')
    code, _, err = run_cli(capsys, ["uncoded", "--config", str(binary)])
    assert code == 2
    assert err.startswith(f"configuration error: cannot read config {binary}: ")


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
    ],
)
def test_detector_of_the_wrong_run_kind_is_config_error(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert argv[argv.index("--detector") + 1] in err


def test_coded_runs_zf(capsys):
    # ZF decides digits like the hard decoders, which bit flipping decodes
    code, out, err = run_cli(capsys, ["coded", *SMALL, "--detector", "zf", "--ldpc_n", "64"])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) > 1 and all(line.split(",")[1:3] == ["zf", "fer"] for line in lines[1:])


def test_uncoded_runs_at_m_1024(capsys):
    # the message digits of m >= 256 used to wrap in a uint8 copy
    argv = ["--m", "1024", "--n_users", "1", "--n_rx", "4", "--t_d", "10"]
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
        (["coded", *CODED, "--frames_per_block", "0"], "frames_per_block"),
        (
            ["complexity", "--n_users", "4", "--csir", "estimated", "--t_t", "5", "--t_d", "20"],
            "t_t",
        ),
        # a file that cannot be read or written is named in the message
        (["coded", *CODED, "--ldpc_alist", "/nonexistent.alist"], "/nonexistent.alist"),
        (["uncoded", *SMALL, "--output", "/nonexistent-dir/run.csv"], "/nonexistent-dir/run.csv"),
        (["complexity", "--output", "/nonexistent-dir/run.csv"], "/nonexistent-dir/run.csv"),
        # blocks no host can allocate are refused before any block runs; a block is
        # t_t + t_d slots, and the message names it t_c
        (["uncoded", *SMALL, "--t_d", "1000000000000"], "t_c"),
        (
            ["uncoded", *SMALL, "--csir", "estimated", "--t_t", "4000000000000", "--t_d", "10"],
            "t_c",
        ),
        (["coded", *CODED, "--ldpc_n", "8000"], "ldpc_n"),
    ],
)
def test_out_of_range_value_is_config_error(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert message in err


def complexity_with(name, value):
    """``complexity`` argv setting one field; estimated CSIR gets pilots."""
    fields = {"csir": "estimated", "t_t": 4} if value == "estimated" else {}
    fields[name] = value
    return ["complexity"] + [f"--{k}={v}" for k, v in fields.items()]


def rule_words(rule):
    """What the message says a field must be, by the rule's kind."""
    if isinstance(rule[0], str):
        return "one of " + ", ".join(rule)
    lo, hi = rule
    return f"an integer >= {lo}" if hi == math.inf else f"an integer in {lo}..{hi}"


def rule_edges(rule):
    """(values the rule accepts, values it rejects): the bounds and one past each."""
    if isinstance(rule[0], str):
        return list(rule), ["none"]
    lo, hi = rule
    if hi == math.inf:
        return [lo], [lo - 1]
    return [lo, hi], [lo - 1, hi + 1]


@pytest.mark.parametrize("name", sorted(FIELD_RULES))
def test_field_rule_rejects_one_past_each_bound_naming_field_and_value(capsys, name):
    rule = FIELD_RULES[name]
    for value in rule_edges(rule)[1]:
        code, out, err = run_cli(capsys, complexity_with(name, value))
        assert (code, out) == (2, "")
        assert err == f"configuration error: {name} must be {rule_words(rule)}, got {value!r}\n"


@pytest.mark.parametrize("name", sorted(FIELD_RULES))
def test_field_rule_accepts_each_bound(capsys, name):
    for value in rule_edges(FIELD_RULES[name])[0]:
        code, out, err = run_cli(capsys, complexity_with(name, value))
        assert (code, err) == (0, "")
        assert out.startswith("partition,")


def test_odd_ldpc_n_is_config_error_naming_the_field(capsys):
    code, out, err = run_cli(capsys, ["coded", *CODED, "--ldpc_n", "127"])
    assert (code, out) == (2, "")
    assert err == "configuration error: ldpc_n=127: blocklength must be even and >= 12, got 127\n"


def require_no_setting(capsys, tmp_path, name, value):
    """A flag and a config file key that set ``name`` each exit 2 naming it."""
    with pytest.raises(SystemExit) as excinfo:
        main(["coded", *CODED, f"--{name}", str(value)])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: --{name} {value}" in capsys.readouterr().err
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps({name: value}))
    code, out, err = run_cli(capsys, ["coded", *CODED, "--config", str(config)])
    assert (code, out) == (2, "")
    assert err == f"configuration error: unknown config keys: [{name!r}]\n"


def test_ldpc_rate_is_a_constant_not_a_setting(capsys, tmp_path):
    # the (3,6) degrees fix the design rate, so neither a flag nor a file key sets it
    require_no_setting(capsys, tmp_path, "ldpc_rate", 0.5)
    cfg = SimConfig()
    assert cfg.ldpc_rate == DESIGN_RATE == 0.5
    with pytest.raises(AttributeError):
        cfg.ldpc_rate = 0.5


def test_decoder_cap_is_a_constant_not_a_setting(capsys, tmp_path):
    # both LDPC decoders stop at ldpc.DECODE_MAX_ITER iterations, which nothing sets
    require_no_setting(capsys, tmp_path, "ldpc_max_iter", 50)
    assert "ldpc_max_iter" not in FIELD_TYPES


def test_omitted_t_c_is_the_block_of_training_and_data(capsys):
    # the block is t_t + t_d slots: setting t_t alone runs, as if t_c were given
    argv = ["uncoded", *SMALL, "--csir", "estimated", "--t_t", "4", "--t_d", "50"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert run_cli(capsys, [*argv, "--t_c", "54"]) == (0, out, "")
    code, out, err = run_cli(capsys, [*argv, "--t_c", "50"])
    assert (code, out) == (2, "")
    assert err == ("configuration error: coherence block must split exactly: "
                   "t_c=50 != t_t=4 + t_d=50\n")


def test_script_arm_of_an_unknown_detector_is_config_error(capsys):
    # an arm's detector is checked like the field, before any arm runs
    assert compare("A script.", {}, ("wmd", "wdm"), "ber", ["--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: detector must be one of ")


def test_unfit_constructed_code_exits_2_before_it_is_built(capsys, monkeypatch, tmp_path):
    built = []
    monkeypatch.setattr(sim, "construct_code", lambda *args: built.append(args))
    sim._ldpc_code.cache_clear()
    for n, message in (("8000", "ldpc_n must be"), ("4000", "t_d=1000")):
        argv = ["coded", "--seed", "1", "--detector", "soft-wmd", "--ldpc_n", n]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert message in err
    # a block and the sidecar resolve the code by the same rule, fit first
    cfg = SimConfig(n_users=2, n_rx=4, detector="soft-wmd", ldpc_n=4000, seed=1)
    row = ResultRow(10.0, "soft-wmd", "fer", 0.0, 0, 1, 1, 16.0)
    for call in (
        lambda: sim._arms_on_block(sim._coded_block, [cfg], 0, 0),
        lambda: write_results([row], dataclasses.replace(cfg, output=str(tmp_path / "r.csv"))),
    ):
        with pytest.raises(ConfigurationError, match="t_d=1000"):
            call()
    assert built == []


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
def test_unwritable_output_exits_2_before_any_block(capsys, tmp_path, monkeypatch, command):
    # checked when the config is built; the file itself is opened after the run
    def no_block(*args):
        raise AssertionError("a block was simulated")

    monkeypatch.setattr(sim, "_setup_block", no_block)
    extra = SUBCOMMAND_ARGS[command]
    for output, message in (
        (tmp_path / "missing" / "x.csv", "no writable directory"),
        (tmp_path, "is a directory"),
    ):
        code, out, err = run_cli(capsys, [command, *SMALL, *extra, "--output", str(output)])
        assert (code, out) == (2, "")
        assert str(output) in err and message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGS))
def test_output_whose_sidecar_is_a_directory_exits_2_before_any_block(
    capsys, tmp_path, monkeypatch, command
):
    # a run would write the CSV, then fail to open <output>.meta.json
    def no_block(*args):
        raise AssertionError("a block was simulated")

    monkeypatch.setattr(sim, "_setup_block", no_block)
    sidecar = tmp_path / "o.csv.meta.json"
    sidecar.mkdir()
    argv = [command, *SMALL, *SUBCOMMAND_ARGS[command], "--output", str(tmp_path / "o.csv")]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert f"output {sidecar} is a directory" in err
    assert list(tmp_path.iterdir()) == [sidecar]


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGS))
def test_invalid_config_exits_2_from_every_subcommand(capsys, tmp_path, command):
    # one check, when the config is built, whether the value is a flag or in a file
    extra = SUBCOMMAND_ARGS[command]
    code, out, err = run_cli(capsys, [command, *SMALL, *extra, "--seed", "-1"])
    assert (code, out) == (2, "")
    assert "seed" in err
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"n_users": 2, "n_rx": 8, "t_d": 100, "seed": -1}))
    code, out, err = run_cli(capsys, [command, "--config", str(path), *extra])
    assert (code, out) == (2, "")
    assert "seed" in err


def test_readme_shows_the_sweep_example_output(capsys):
    # every command of the Command line block runs and prints its CSV header,
    # and the partition-sweep one prints the output shown under Output format
    text = README.read_text(encoding="utf-8")
    start = text.index("```sh", text.index("## Command line"))
    block = text[start : text.index("\n```", start)].replace("\\\n", " ")
    lines = [line for line in block.splitlines() if line.startswith("onebit-mimo ")]
    commands = [shlex.split(line)[1:] for line in lines]
    headers = {
        "complexity": ",".join(ARM_COLUMNS),
        "uncoded": ResultRow.HEADER,
        "coded": ResultRow.HEADER,
        "partition-sweep": SweepRow.HEADER,
    }
    assert sorted({argv[0] for argv in commands}) == sorted(headers)
    for argv in commands:
        code, out, err = run_cli(capsys, argv)
        assert (code, err, out.split("\n", 1)[0]) == (0, "", headers[argv[0]]), argv
        if argv[0] == "partition-sweep":
            assert "\n```\n" + out + "```\n" in text


@pytest.mark.byte_identity
def test_readme_csir_row_run_counts_the_bit_errors_it_quotes(capsys):
    # the one run of estimated CSIR whose output is pinned: pilots, the channel estimate
    # and the code built from it, for every SNR point
    text = README.read_text(encoding="utf-8")
    (row,) = [line for line in text.splitlines() if line.startswith("| `csir` |")]
    command, *quoted = re.search(
        r"`(uncoded [^`]+)` counts (\d+), (\d+) and (\d+) bit errors of (\d+) ", row
    ).groups()
    code, out, err = run_cli(capsys, shlex.split(command))
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [r[ResultRow.COLUMNS.index("errors")] for r in rows] == quoted[:3]
    assert {r[ResultRow.COLUMNS.index("denominator")] for r in rows} == {quoted[3]}


def test_readme_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["w_hat"].shape == (4,)
    assert scope["llrs"].shape == (4, 2)


@pytest.mark.parametrize("source", ["flag", "config file"])
def test_partition_sweep_refuses_a_partition_its_arms_would_drop(capsys, tmp_path, source):
    # each arm sets the partition; the given one used to be dropped but still recorded
    config = tmp_path / "part.json"
    config.write_text(json.dumps({"partition": {"k": [4], "q": [1]}}))
    given = (["--partition", '{"k":[4],"q":[1]}'] if source == "flag"
             else ["--config", str(config)])
    output = tmp_path / "ps.csv"
    code, out, err = run_cli(capsys, ["partition-sweep", *SMALL, *given, "--sweep", '["full"]',
                                      "--output", str(output)])
    assert (code, out) == (2, "")
    assert err == ("configuration error: the arms are the --sweep specs: --partition and a "
                   "config file's partition are not taken\n")
    assert list(tmp_path.iterdir()) == [config]


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


def test_subcommands_keep_their_names_help_and_sweep_flag():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert [(a.dest, a.help) for a in sub._choices_actions] == [
        ("uncoded", "uncoded BER versus SNR"),
        ("coded", "LDPC frame error rate versus SNR"),
        ("partition-sweep", "paired BER and complexity over partition specs"),
        ("partition-stats", "tree shape for one sampled block"),
        ("complexity", "closed-form comparison counts"),
    ]
    assert list(sub.choices) == [a.dest for a in sub._choices_actions]
    for command, p in sub.choices.items():
        sweep = [a for a in p._actions if "--sweep" in a.option_strings]
        if command == "partition-sweep":
            assert [a.required for a in sweep] == [True]
        else:
            assert sweep == []


def test_flags_are_typed_by_the_annotations(capsys):
    assert FIELD_TYPES["m"] == (int, False) and {k for k, _ in FIELD_TYPES.values()} == {int, str}
    assert FIELD_TYPES["seed"] == (int, True) and FIELD_TYPES["output"] == (str, True)
    assert "snr_db" not in FIELD_TYPES and "partition" not in FIELD_TYPES
    with pytest.raises(SystemExit) as excinfo:
        main(["complexity", "--m", "4.5"])
    assert excinfo.value.code == 2
    assert "invalid int value: '4.5'" in capsys.readouterr().err


def readme_bounds(rule) -> str:
    """A FIELD_RULES entry as README's field table writes it."""
    if rule is None:
        return "—"
    if isinstance(rule[0], str):
        return ", ".join(f"`{value}`" for value in rule)
    lo, hi = rule
    return f"≥ {lo}" if hi == math.inf else f"{lo} to {hi}"


def test_readme_field_table_lists_exactly_the_fields():
    text = README.read_text(encoding="utf-8")
    start = text.index("### Configuration fields")
    table = text[start : text.index("\n\n", text.index("|", start))]
    lines = table.splitlines()
    assert lines[2] == "| field | default | bounds | meaning |"
    names = []
    for line in lines[4:]:
        cells = [cell.strip() for cell in line.split("|")]
        row = re.findall(r"`(\w+)`", cells[1])
        # the bounds column is the field-rule table, row by row
        assert [cells[3]] * len(row) == [readme_bounds(FIELD_RULES.get(n)) for n in row], line
        names += row
    assert sorted(names) == sorted(f.name for f in dataclasses.fields(SimConfig))


def test_rank_deficient_alist_is_config_error_naming_the_file(capsys, tmp_path):
    h = np.zeros((4, 8), dtype=np.uint8)
    h[0, :6] = 1
    h[1, :6] = 1  # duplicate row makes the matrix rank deficient
    h[2, 2:8] = 1
    h[3, 1:7] = 1
    path = tmp_path / "bad.alist"
    path.write_text(write_alist(h), encoding="ascii")
    code, _, err = run_cli(
        capsys,
        [
            "coded", "--n_users", "2", "--n_rx", "8", "--t_d", "100",
            "--trials", "4", "--wave", "1", "--seed", "3",
            "--detector", "soft-wmd", "--ldpc_alist", str(path),
        ],
    )
    assert code == 2
    assert err == f"configuration error: ldpc_alist {path}: parity-check matrix is rank deficient\n"


@pytest.mark.parametrize(
    "data, message",
    [
        (b"garbage\n", "malformed alist data: invalid literal"),
        (b"\xff\xfe 4 2\n", "'ascii' codec can't decode byte 0xff"),
        (b"64800 32400\n", "n=64800 and n_checks=32400 must be in 1..4096"),
        pytest.param(
            write_alist(np.eye(4, dtype=np.uint8)).replace("\n1 1\n", "\n2 1\n", 1).encode(),
            "malformed alist data: largest degrees '2 1' disagree", id="largest-degrees",
        ),
        pytest.param(
            write_alist(np.eye(4, dtype=np.uint8)).replace("\n1\n2\n", "\n1 1\n2\n", 1).encode(),
            "malformed alist data: column 0 list", id="repeated-check-index",
        ),
    ],
)
def test_unusable_alist_is_config_error_naming_the_file(capsys, tmp_path, data, message):
    path = tmp_path / "bad.alist"
    path.write_bytes(data)
    code, out, err = run_cli(
        capsys,
        [
            "coded", "--seed", "1", "--detector", "soft-wmd", "--n_users", "2", "--n_rx", "4",
            "--ldpc_alist", str(path),
        ],
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"configuration error: ldpc_alist {path}: ")
    assert message in err


def test_cancelled_pilots_give_a_run_not_an_error(capsys, monkeypatch):
    # at -20 dB one user's one-bit pilots on one antenna often cancel; the
    # zero channel estimate is a draw, and the run goes on with it, under
    # ZF's pseudo-inverse of it too
    estimate, estimates = sim.estimate_channel_zf, []

    def spy(observations, pilots):
        estimates.append(estimate(observations, pilots))
        return estimates[-1]

    monkeypatch.setattr(sim, "estimate_channel_zf", spy)
    for detector in ("wmd", "zf"):
        estimates.clear()
        code, out, err = run_cli(
            capsys,
            [
                "uncoded", "--csir", "estimated", "--n_users", "1", "--n_rx", "1", "--t_t", "2",
                "--t_d", "10", "--trials", "200", "--snr_db=-20", "--seed", "1",
                "--detector", detector,
            ],
        )
        assert (code, err) == (0, ""), detector
        assert out.splitlines()[0] == CSV_HEADER
        assert any(not h.any() for h in estimates), detector


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
