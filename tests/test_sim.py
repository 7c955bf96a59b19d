"""Configuration handling and the Monte Carlo BER/FER harness."""

import dataclasses
import hashlib
import json
import multiprocessing
import re
import time
import tracemalloc
import warnings
import weakref
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from conftest import write_alist

import onebit_mimo
from onebit_mimo import cli, ldpc, sim, spatial_code
from onebit_mimo.config import (
    CSV_HEADER,
    DETECTORS,
    MAX_BLOCK_ENTRIES,
    MAX_CODEBOOK_ENTRIES,
    MAX_LDPC_N,
    MAX_WAVE,
    MAX_WORKERS,
    SWEEP_CSV_HEADER,
    SimConfig,
    parse_partition,
    require_ldpc_fit,
)
from onebit_mimo.core import bits_per_symbol
from onebit_mimo.errors import ConfigurationError
from onebit_mimo.ldpc import construct_code
from onebit_mimo.partition import PartitionParams, estimate_complexity
from onebit_mimo.sim import (
    partition_report,
    render_csv,
    run_coded,
    run_partition_sweep,
    run_uncoded,
    write_results,
)


def small_uncoded(**kw):
    base = dict(
        n_users=2,
        n_rx=8,
        snr_db=(10.0,),
        t_d=100,
        trials=400,
        target_errors=10**9,
        wave=2,
        seed=1,
    )
    base.update(kw)
    return SimConfig(**base)


def small_coded(**kw):
    base = dict(
        n_users=2,
        n_rx=8,
        detector="soft-wmd",
        snr_db=(30.0,),
        t_d=128,
        ldpc_n=128,
        trials=8,
        target_errors=10**9,
        wave=1,
        seed=2,
    )
    base.update(kw)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# configuration


def test_config_snr_scalar_coerces_to_tuple():
    assert SimConfig(snr_db=5).snr_db == (5.0,)
    assert SimConfig(snr_db=[0, 10]).snr_db == (0.0, 10.0)


def test_parse_partition_forms_agree():
    want = PartitionParams((8, 8), (4, 16))
    assert parse_partition(None) is None
    assert parse_partition("full") is None
    assert parse_partition(want) is want
    assert parse_partition({"k": [8, 8], "q": [4, 16]}) == want
    assert parse_partition('{"k": [8, 8], "q": [4, 16]}') == want
    # asdict's form, tuples in the mapping, round-trips
    assert parse_partition(dataclasses.asdict(want)) == want


def test_parse_partition_rejects_garbage():
    with pytest.raises(ConfigurationError):
        parse_partition("{broken json")
    with pytest.raises(ConfigurationError):
        parse_partition({"k": [4, 4]})  # q missing
    with pytest.raises(ConfigurationError):
        parse_partition(3.14)
    with pytest.raises(ConfigurationError):
        parse_partition({"k": [4], "q": [8]})  # violates the q-chain
    with pytest.raises(ConfigurationError, match="as lists"):
        parse_partition(np.array([[4], [2]]))  # was compared with "full" elementwise
    # a spec is a mapping: every other shape, a [k, q] pair too, gets the one message
    for spec in ([[8, 8], [4, 16]], ([4], [2]), "[[4], [2]]", {"k": 4, "q": 2}, {"k": [4]}):
        with pytest.raises(ConfigurationError, match="must give k and q as lists"):
            parse_partition(spec)
    with pytest.raises(ConfigurationError, match="unknown partition keys: \\['qq'\\]"):
        parse_partition('{"k": [4], "q": [2], "qq": [9]}')  # qq was ignored


def test_config_dict_round_trip():
    cfg = small_uncoded(partition={"k": [4, 4], "q": [2, 4]}, output="x.csv")
    clone = SimConfig.from_dict(dataclasses.asdict(cfg))
    assert clone == cfg
    json.dumps(dataclasses.asdict(cfg))  # must stay JSON-serializable


def test_config_unknown_keys_rejected():
    with pytest.raises(ConfigurationError):
        SimConfig.from_dict({"n_user": 2})


def test_config_validation_errors():
    with pytest.raises(ConfigurationError):
        small_uncoded(m=8)  # odd power of two
    with pytest.raises(ConfigurationError):
        small_uncoded(t_c=99)  # block does not split
    with pytest.raises(ConfigurationError):
        small_uncoded(detector="mrc")
    with pytest.raises(ConfigurationError):
        small_uncoded(csir="estimated", t_t=1, t_c=101)  # t_t < n_users
    with pytest.raises(ConfigurationError, match="frames_per_block"):
        small_uncoded(frames_per_block=0)
    small_uncoded()  # baseline passes


def test_config_is_checked_when_built_and_replaced():
    cfg = small_uncoded()
    assert not hasattr(cfg, "validate")
    with pytest.raises(ConfigurationError, match="snr_db"):
        small_uncoded(snr_db=[])
    with pytest.raises(ConfigurationError, match="invalid partition"):
        small_uncoded(partition=PartitionParams((4,), (8,)))  # passed in directly
    with pytest.raises(ConfigurationError, match="m must be"):
        dataclasses.replace(cfg, m=8)
    with pytest.raises(ConfigurationError, match="zf"):
        dataclasses.replace(cfg, detector="zf", partition={"k": [4], "q": [2]})


@pytest.mark.parametrize("field, value", [("seed", -1), ("m", 8)])
@pytest.mark.parametrize(
    "entry, make",
    [
        (run_uncoded, small_uncoded),
        (run_coded, small_coded),
        (partition_report, lambda: small_uncoded(partition={"k": [4], "q": [2]})),
    ],
)
def test_entry_points_check_a_config_changed_after_it_was_built(entry, make, field, value):
    cfg = make()
    setattr(cfg, field, value)  # SimConfig stays mutable; nothing checks the assignment
    with pytest.raises(ConfigurationError):
        entry(cfg)


def test_runners_check_their_own_run_kind():
    # the config alone takes every detector; each runner checks its own kind
    small_uncoded(detector="soft-wmd")
    small_coded(ldpc_n=130, t_d=64)
    with pytest.raises(ConfigurationError, match="soft-wmd"):
        run_uncoded(small_uncoded(detector="soft-wmd"))
    # zf decides digits like the hard decoders, so a coded run takes it
    rows = run_coded(small_coded(detector="zf"))
    assert [(r.detector, r.metric) for r in rows] == [("zf", "fer")]
    with pytest.raises(ConfigurationError, match="t_d=64"):
        run_coded(small_coded(ldpc_n=130, t_d=64))  # 65 slots > t_d


def test_config_rejects_unsplit_frame():
    with pytest.raises(ConfigurationError):
        small_uncoded(t_c=1000, t_t=30, t_d=975)  # 30 + 975 != 1000
    small_uncoded(t_c=1000, t_t=25, t_d=975)


def test_block_length_is_worked_out_from_training_and_data():
    # the block is t_t + t_d slots, so estimated CSIR sets t_t alone and a replaced t_d
    # still splits it; a t_c that is given must equal the sum, under the same message
    cfg = small_uncoded(csir="estimated", t_t=32)
    assert cfg.t_c is None
    assert run_uncoded(cfg)[0].trials == 400
    assert dataclasses.replace(cfg, t_d=50).t_d == 50
    assert small_uncoded(csir="estimated", t_t=32, t_c=132).t_c == 132
    with pytest.raises(ConfigurationError, match=re.escape("t_c=100 != t_t=32 + t_d=100")):
        dataclasses.replace(cfg, t_c=100)


def test_config_rejects_negative_frame_lengths():
    with pytest.raises(ConfigurationError):
        small_uncoded(t_c=0, t_t=-5, t_d=5)
    with pytest.raises(ConfigurationError):
        small_uncoded(t_c=0, t_d=0)  # an empty block never fills the budget


def test_config_bounds_codebook_size():
    # checked by arithmetic only: running a config above the bound would
    # allocate gigabytes
    with pytest.raises(ConfigurationError, match="codebook"):
        small_uncoded(n_users=11, m=4, n_rx=32)
    with pytest.raises(ConfigurationError, match="codebook"):
        small_uncoded(n_users=10**9)
    assert 4**9 * 2 * 32 == MAX_CODEBOOK_ENTRIES
    small_uncoded(n_users=9, m=4, n_rx=32)  # exactly at the bound


def test_config_bounds_workers():
    # checked on construction only: a run would start every worker process
    with pytest.raises(ConfigurationError, match="workers"):
        small_uncoded(workers=MAX_WORKERS + 1)
    with pytest.raises(ConfigurationError, match="workers"):
        small_uncoded(workers=0)
    assert small_uncoded(workers=MAX_WORKERS).workers == MAX_WORKERS


def test_config_bounds_block_wave_and_ldpc_sizes():
    # checked on construction only: a run would allocate the block's tables,
    # submit the wave's futures or build the dense parity-check matrix
    at_bound = MAX_BLOCK_ENTRIES // 16  # n_rx=8 gives 16 entries per slot
    assert small_uncoded(t_c=at_bound, t_d=at_bound).t_c == at_bound
    with pytest.raises(ConfigurationError, match="t_c"):
        small_uncoded(t_c=at_bound + 1, t_d=at_bound + 1)
    with pytest.raises(ConfigurationError, match="t_c"):
        small_uncoded(csir="estimated", t_t=4 * 10**12, t_d=10, t_c=4 * 10**12 + 10)
    # with one antenna, n_users * log2(m) = 4 entries per slot outweigh 2 * n_rx = 2
    with pytest.raises(ConfigurationError, match="x 4 entries"):
        small_uncoded(n_rx=1, t_c=at_bound * 4 + 1, t_d=at_bound * 4 + 1)
    assert small_uncoded(wave=MAX_WAVE).wave == MAX_WAVE
    with pytest.raises(ConfigurationError, match="wave"):
        small_uncoded(wave=MAX_WAVE + 1)
    assert small_coded(ldpc_n=MAX_LDPC_N).ldpc_n == MAX_LDPC_N
    with pytest.raises(ConfigurationError, match="ldpc_n"):
        small_coded(ldpc_n=MAX_LDPC_N + 2)


BLOCK_MEMORY_ARMS = {
    "wmd": {},
    "zf": {"detector": "zf"},
    "wmd-k2-q1": {"partition": {"k": [2], "q": [1]}},
}


@pytest.mark.parametrize("arm", BLOCK_MEMORY_ARMS.values(), ids=BLOCK_MEMORY_ARMS.keys())
def test_block_memory_is_bounded_by_its_arrays(arm):
    # a block's data lives in arrays of its entries, so MAX_BLOCK_ENTRIES bounds it: a slot
    # loop that kept Python objects per slot (its digits, ZF's decisions) peaked at 64-121 B
    # per entry here, which at the bound is gigabytes
    cfg = small_uncoded(n_users=1, n_rx=1, m=4, t_d=16384, **arm)
    entries = cfg.t_d * max(cfg.n_users * bits_per_symbol(cfg.m), 2 * cfg.n_rx)
    sim._arms_on_block(sim._uncoded_block, [cfg], 0, 0)  # first, so the caches are filled
    tracemalloc.start()
    try:
        sim._arms_on_block(sim._uncoded_block, [cfg], 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * entries, f"{peak / entries:.1f} bytes per block entry"


@pytest.mark.parametrize(
    "field, value",
    [("m", 4.0), ("n_users", "2"), ("trials", True), ("detector", None)],
)
def test_config_rejects_wrongly_typed_fields(field, value):
    with pytest.raises(ConfigurationError, match=field):
        SimConfig.from_dict({**dataclasses.asdict(small_uncoded()), field: value})


@pytest.mark.parametrize(
    "value", ["10", None, [True], ["5"], [[1.0]], np.array(True), np.array("10")]
)
def test_config_rejects_wrongly_typed_snr(value):
    # a string used to be split into characters: "10" ran at 1 and 0 dB
    with pytest.raises(ConfigurationError, match="snr_db"):
        SimConfig.from_dict({"snr_db": value})


def test_config_accepts_snr_sequences():
    assert SimConfig(snr_db=[0, 2.5]).snr_db == (0.0, 2.5)
    assert SimConfig(snr_db=np.array([1.0, 3.0])).snr_db == (1.0, 3.0)
    # a 0-d array is one operating point; iterating it used to raise a bare TypeError
    assert SimConfig(snr_db=np.array(5.0)).snr_db == (5.0,)
    assert SimConfig(snr_db=np.array(2)).snr_db == (2.0,)


def test_config_accepts_optional_fields_unset():
    small_uncoded(frames_per_block=None, ldpc_alist=None, output=None)


def test_config_rejects_zf_with_partition():
    with pytest.raises(ConfigurationError, match="zf"):
        small_uncoded(detector="zf", partition={"k": [4], "q": [2]})
    small_uncoded(detector="zf")


def _no_run(monkeypatch):
    """The arms ``sim._run_lockstep`` was called with, which the patch stops from running."""
    calls = []

    def no_run(configs, worker, metric):
        calls.extend(configs)
        return [[] for _ in configs]

    monkeypatch.setattr(sim, "_run_lockstep", no_run)
    return calls


def test_partition_sweep_rejects_zf_before_running_any_arm(monkeypatch):
    calls = _no_run(monkeypatch)
    with pytest.raises(ConfigurationError, match="zf"):
        run_partition_sweep(small_uncoded(detector="zf"), ["full", {"k": [4], "q": [2]}])
    assert calls == []


def test_partition_sweep_rejects_soft_wmd_before_running_any_arm(monkeypatch):
    calls = _no_run(monkeypatch)
    with pytest.raises(ConfigurationError, match="soft-wmd"):
        run_partition_sweep(small_uncoded(detector="soft-wmd"), ["full", {"k": [4], "q": [2]}])
    assert calls == []


@pytest.mark.parametrize(
    "arm, match",
    [
        ({"partition": {"k": [32], "q": [1]}}, "32 leaves"),
        ({"detector": "zf", "partition": {"k": [4], "q": [2]}}, "zf detection searches no"),
    ],
    ids=["too-many-leaves", "zf-partition"],
)
def test_coded_arms_are_all_checked_before_any_runs(monkeypatch, arm, match):
    calls = _no_run(monkeypatch)
    with pytest.raises(ConfigurationError, match=match):
        sim.run_arms(small_coded(), [{"detector": "soft-wmd"}, {"detector": "wmd"}, arm], "fer")
    assert calls == []


def test_paired_arms_keep_the_seed_and_lay_their_fields_over_the_config(monkeypatch):
    calls = _no_run(monkeypatch)
    given = [{"detector": "md"}, {"partition": {"k": [4], "q": [2]}}]
    arms = sim.run_arms(small_uncoded(), given, "ber")
    assert [cfg for cfg, _ in arms] == calls
    assert [(c.detector, c.partition, c.seed) for c in calls] == [
        ("md", None, 1),
        ("wmd", PartitionParams((4,), (2,)), 1),
    ]
    with pytest.raises(ConfigurationError, match="at least one arm"):
        sim.run_arms(small_uncoded(), [], "ber")


# A value of each field an arm may not set: the arms of a block share its channel, code
# and tree stream, and run the same SNR points in the same waves on one executor.
COMMON_FIELDS = {
    "snr_db": (0.0,), "wave": 1, "workers": 1, "n_users": 3, "n_rx": 4, "m": 16, "t_c": 100,
    "t_t": 2, "t_d": 50, "csir": "estimated", "ldpc_n": 4000, "ldpc_seed": 3,
    "ldpc_alist": "h.alist", "frames_per_block": 1, "trials": 10, "target_errors": 5,
    "seed": 2, "output": "x.csv",
}


def test_an_arm_sets_only_its_detector_and_partition():
    assert sim._ARM_FIELDS == ("detector", "partition")
    assert set(COMMON_FIELDS) == {f.name for f in dataclasses.fields(SimConfig)} - {
        "detector", "partition"}


@pytest.mark.parametrize("field, value", COMMON_FIELDS.items())
def test_paired_arms_may_not_set_a_common_field(monkeypatch, field, value):
    calls = _no_run(monkeypatch)
    with pytest.raises(ConfigurationError, match=f"may not set {field}"):
        sim.run_arms(small_uncoded(), [{"detector": "md"}, {field: value}], "ber")
    assert calls == []


def test_an_arm_setting_a_common_field_exits_2(monkeypatch, capsys):
    calls = _no_run(monkeypatch)
    args = cli.build_parser().parse_args(["uncoded", "--seed", "1"])
    code = cli.guarded(lambda a: sim.run_arms(cli.build_config(a), [{"wave": 2}], "ber"), args)
    assert code == 2 and calls == []
    assert "an arm may not set wave" in capsys.readouterr().err


# (base config, arms, metric, whether the arms stop after different waves)
PAIRED_RUNS = {
    "sweep-equal-k": (
        lambda **kw: small_uncoded(
            n_rx=4, snr_db=(0.0, 8.0), t_d=20, trials=300, target_errors=25, wave=1, **kw
        ),
        [
            {"partition": spec}
            for spec in ("full", {"k": [4], "q": [2]}, {"k": [4], "q": [1]},
                         {"k": [2, 2], "q": [1, 2]})
        ],
        "ber",
        True,
    ),
    "detectors": (
        lambda **kw: small_uncoded(n_rx=4, snr_db=(0.0, 6.0), t_d=20, trials=80, **kw),
        [{"detector": d} for d in ("wmd", "md", "ml", "zf")],
        "ber",
        False,
    ),
    # every arm decides on the block's one channel estimate, ZF through its pseudo-inverse
    "estimated-csir": (
        lambda **kw: small_uncoded(
            csir="estimated", t_t=4, snr_db=(0.0, 6.0), t_d=20, trials=60, **kw
        ),
        [{}, {"detector": "md", "partition": {"k": [4], "q": [2]}}, {"detector": "zf"},
         {"partition": {"k": [2, 2], "q": [1, 2]}}],
        "ber",
        False,
    ),
    "coded": (
        lambda **kw: small_coded(snr_db=(-4.0, 4.0), n_rx=4, trials=12, wave=2, **kw),
        [{"detector": d} for d in ("soft-wmd", "wmd", "zf")],
        "fer",
        False,
    ),
}


@pytest.mark.byte_identity
@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("case", PAIRED_RUNS)
def test_each_paired_arm_runs_as_it_runs_alone(case, workers):
    # arms share a block's code and trees, never its draws, stopping rule or rows
    make, arms, metric, stops_differ = PAIRED_RUNS[case]
    cfg = make(workers=workers)
    paired = sim.run_arms(cfg, arms, metric)
    for arm, (_, rows) in zip(arms, paired):
        alone = sim.run_arms(cfg, [arm], metric)[0][1]
        assert [r.to_csv() for r in rows] == [r.to_csv() for r in alone]
    trials = {tuple(r.trials for r in rows) for _, rows in paired}
    assert (len(trials) > 1) == stops_differ


# a SpatialCode's cached scores, each an (M, N) gain and an (M,) base
SCORES = {"wh", "hamming", "nll"}


def test_paired_arms_share_each_blocks_code_and_trees(monkeypatch):
    calls, built, pruned = Counter(), [], []
    for name in ("build_code", "sample_rayleigh"):
        fn = getattr(sim, name)
        monkeypatch.setattr(sim, name, lambda *a, n=name, f=fn: calls.update([n]) or f(*a))
    build_tree, prune = sim.build_partition_tree, sim.preprocess
    monkeypatch.setattr(
        sim, "build_partition_tree", lambda *a: built.append(build_tree(*a)) or built[-1]
    )
    monkeypatch.setattr(sim, "preprocess", lambda r, tree: pruned.append(tree) or prune(r, tree))
    views, decide = [], sim._decide
    monkeypatch.setattr(
        sim, "_decide", lambda cfg, blk, *a: views.append(blk.code) or decide(cfg, blk, *a)
    )
    specs = ["full", {"k": [4], "q": [2]}, {"k": [4], "q": [1]}, {"k": [2, 2], "q": [1, 2]}]
    rows = run_partition_sweep(small_uncoded(t_d=10, trials=30, wave=1), specs)
    assert [r.trials for r in rows] == [30] * 4  # three blocks per arm
    # every arm is wmd, so the four arms of a block decide on one view, which builds one score
    assert len(views) == 12 and len({id(view) for view in views}) == 3
    assert all(view is views[i - i % 4] for i, view in enumerate(views))
    assert all(SCORES & set(vars(view)) == {"wh"} for view in views)
    # one code per block; one tree per distinct k per block; a channel per arm and block
    assert calls == {"build_code": 3, "sample_rayleigh": 4 * 3}
    assert [tree.params.k for tree in built] == [(4,), (2, 2)] * 3
    # each arm prunes with its own params on the arrays of the tree built for its k
    params = [parse_partition(spec) for spec in specs[1:]]
    assert Counter(tree.params for tree in pruned) == {p: 30 for p in params}
    for tree in pruned:
        assert sum(tree.arrays is b.arrays and tree.params.k == b.params.k for b in built) == 1
    q2, q1 = (
        {id(tree.arrays) for tree in pruned if tree.params == p} for p in params[:2]
    )
    assert q2 == q1 and len(q2) == 3


def test_each_detector_caches_its_score_on_a_view_of_its_own(monkeypatch):
    # paired detectors share a block's code arrays but not its scores: each arm's view holds the
    # one config.DETECTORS declares for its detector, and the next score's arm drops it, so one
    # view is alive at a time
    seen, decide = [], sim._decide

    def spy(cfg, blk, obs, stats):
        assert all(view() is None for _, view, _, _ in seen)
        out = decide(cfg, blk, obs, stats)
        scores = SCORES & set(vars(blk.code))
        seen.append((cfg.detector, weakref.ref(blk.code), blk.code.codewords, scores))
        return out

    monkeypatch.setattr(sim, "_decide", spy)
    detectors = ("wmd", "md", "ml", "wmd")
    cfg = small_uncoded(n_rx=4, t_d=10, trials=20, wave=1)
    sim.run_arms(cfg, [{"detector": d} for d in detectors], "ber")
    declared = [(d, {DETECTORS[d].score}) for d in detectors]
    assert [(d, scores) for d, _, _, scores in seen] == declared * 2
    for block in (seen[:4], seen[4:]):  # one code per block, its arrays shared by every view
        assert all(codewords is block[0][2] for _, _, codewords, _ in block)
    assert seen[0][2] is not seen[4][2]


def test_arms_that_read_one_score_share_it_on_each_block(monkeypatch):
    # soft-wmd and wmd both read wh, so their arms decide on one view of a block, which builds
    # wh once; zf between them reads no score and leaves the view in place
    views, decide, grids, on_grid = [], sim._decide, [], spatial_code._on_grid

    def spy(cfg, blk, *a):
        views.append((cfg.detector, blk.code))
        return decide(cfg, blk, *a)

    monkeypatch.setattr(sim, "_decide", spy)
    monkeypatch.setattr(spatial_code, "_on_grid", lambda *a: grids.append(a) or on_grid(*a))
    cfg = small_coded(snr_db=(-4.0,), n_rx=4, trials=6, t_d=64)
    arms = [{"detector": d} for d in ("soft-wmd", "zf", "wmd")]
    paired = sim.run_arms(cfg, arms, "fer")
    assert [r.trials for _, rows in paired for r in rows] == [6] * 3  # three blocks per arm
    codes = [(d, code) for d, code in views if code is not None]
    assert [d for d, _ in codes] == ["soft-wmd", "wmd"] * 3
    assert all(codes[i][1] is codes[i + 1][1] for i in range(0, 6, 2))
    assert len({id(code) for _, code in codes}) == 3
    assert all(SCORES & set(vars(code)) == {"wh"} for _, code in codes)
    assert len(grids) == 3  # one wh per block
    monkeypatch.undo()
    for arm, (_, rows) in zip(arms, paired):
        alone = sim.run_arms(cfg, [arm], "fer")[0][1]
        assert [r.to_csv() for r in rows] == [r.to_csv() for r in alone]


@pytest.mark.parametrize("workers", (1, 2))
def test_paired_row_walls_are_each_arms_share_of_the_run(tmp_path, workers):
    # a row's wall is the time its own arm's blocks took, so the rows never sum past the run
    cfg = small_uncoded(trials=400, workers=workers, output=str(tmp_path / "s.csv"))
    start = time.perf_counter()
    rows = run_partition_sweep(cfg, ["full", {"k": [4], "q": [2]}, {"k": [4], "q": [1]}])
    wall = time.perf_counter() - start
    write_results(rows, cfg)
    meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
    walls = meta["row_wall_time_s"]
    assert len(walls) == 3 and all(w > 0 for w in walls)
    assert sum(walls) <= wall
    assert meta["total_wall_time_s"] == sum(walls)


# Each detector's kind as every site it feeds reads it: a hard or soft detector
# searches the code, so it takes a partition; a soft one's LLRs need a coded run
# and BP; a linear one (ZF) searches no codebook.
KINDS = {"wmd": "hard", "soft-wmd": "soft", "md": "hard", "ml": "hard", "zf": "linear"}


@pytest.mark.parametrize("name", DETECTORS)
def test_each_site_reads_the_detectors_kind(name, monkeypatch):
    kind = KINDS[name]
    spec = {"k": [4], "q": [2]}
    # a partition is refused exactly when the detector searches no code
    if kind == "linear":
        with pytest.raises(ConfigurationError, match=f"^{name} detection searches no codebook"):
            small_uncoded(detector=name, partition=spec)
    else:
        assert small_uncoded(detector=name, partition=spec).partition == parse_partition(spec)
    # an uncoded run refuses exactly the soft detectors
    uncoded = small_uncoded(detector=name, t_d=10, trials=10)
    if kind == "soft":
        with pytest.raises(ConfigurationError, match=f"^{name} produces LLRs and needs a coded"):
            sim.run_arms(uncoded, [{}], "ber")
    else:
        assert sim.run_arms(uncoded, [{}], "ber")[0][1][0].trials == 20
    # a coded run decodes a soft detector's LLRs by BP, any other's decisions by bit flipping
    calls = Counter()
    for decoder in ("decode_bp", "decode_bit_flipping"):
        spied = getattr(sim, decoder)
        monkeypatch.setattr(
            sim, decoder, lambda *a, d=decoder, f=spied: calls.update([d]) or f(*a)
        )
    run_coded(small_coded(detector=name, t_d=64, trials=2))
    assert calls == {"decode_bp" if kind == "soft" else "decode_bit_flipping": 2}
    # a script's arm keeps --partition exactly when its detector searches the code
    arms = []
    monkeypatch.setattr(cli, "run_arms", lambda cfg, given, metric: arms.extend(given) or [])
    monkeypatch.setattr(cli, "write_results", lambda rows, cfg: None)
    argv = ["--seed", "1", "--partition", json.dumps(spec)]
    assert cli.compare("A script.", {}, (name,), "fer", argv) == 0
    pruned = None if kind == "linear" else parse_partition(spec)
    assert arms == [{"detector": name, "partition": pruned}]


def test_hard_decoders_are_the_hard_detectors():
    # bench/tracer.py hooks the "wmd" entry, so the table stays keyed by name
    assert set(sim._HARD_DECODERS) == {name for name in DETECTORS if KINDS[name] == "hard"}


def test_config_requires_seed():
    with pytest.raises(ConfigurationError):
        small_uncoded(seed=None).require_runnable()
    with pytest.raises(ConfigurationError):
        run_uncoded(small_uncoded(seed=None))
    # every arm's seed is checked before its run kind's own check
    with pytest.raises(ConfigurationError, match="explicit seed"):
        run_uncoded(small_uncoded(detector="soft-wmd", seed=None))


# ---------------------------------------------------------------------------
# uncoded runs


def test_uncoded_error_accounting():
    rows = run_uncoded(small_uncoded())
    assert len(rows) == 1
    row = rows[0]
    assert row.metric == "ber"
    # two waves of 2 blocks, 100 slots each, to cross the 400-trial budget
    assert row.trials == 400
    assert row.denominator == 400 * 2 * 2  # slots * users * bits/symbol
    assert 0 <= row.errors <= row.denominator
    assert row.rate == pytest.approx(row.errors / row.denominator)
    assert row.mean_candidates == 16.0  # full search over m**K codewords


def test_uncoded_ber_decreases_with_snr():
    rows = run_uncoded(small_uncoded(snr_db=(-5.0, 5.0, 15.0), trials=600))
    bers = [r.rate for r in rows]
    assert bers[0] > bers[1] > bers[2]


def test_uncoded_runs_reproduce():
    a = render_csv(run_uncoded(small_uncoded()), CSV_HEADER)
    b = render_csv(run_uncoded(small_uncoded()), CSV_HEADER)
    assert a == b


def test_uncoded_high_snr_nearly_error_free():
    # the likelihood-aware detectors are clean at 35 dB on this seed; plain
    # minimum distance can still trip over rare low-reliability bit flips
    for det in ("wmd", "ml"):
        rows = run_uncoded(small_uncoded(detector=det, snr_db=(35.0,), trials=100))
        assert rows[0].errors == 0
    rows = run_uncoded(small_uncoded(detector="md", snr_db=(35.0,), trials=100))
    assert rows[0].rate < 1e-2


def test_uncoded_zf_reports_no_candidates():
    rows = run_uncoded(small_uncoded(detector="zf", trials=100))
    assert rows[0].mean_candidates == 0.0


@pytest.mark.parametrize("run, make", [(run_uncoded, small_uncoded), (run_coded, small_coded)])
@pytest.mark.parametrize("detector, codes, pinvs", [("zf", 0, 1), ("wmd", 1, 0)])
def test_each_block_sets_up_its_detector_once(monkeypatch, run, make, detector, codes, pinvs):
    # per block, zf takes one pseudo-inverse and builds no code; wmd builds its code
    calls = Counter()

    def counted(name, fn):
        return lambda *args: calls.update([name]) or fn(*args)

    monkeypatch.setattr(sim, "sample_rayleigh", counted("block", sim.sample_rayleigh))
    monkeypatch.setattr(sim, "build_code", counted("code", sim.build_code))
    monkeypatch.setattr(np.linalg, "pinv", counted("pinv", np.linalg.pinv))
    run(make(detector=detector))
    assert calls["block"] > 1
    assert (calls["code"], calls["pinv"]) == (codes * calls["block"], pinvs * calls["block"])


def test_uncoded_partitioned_run_reports_reduced_candidates():
    cfg = small_uncoded(partition={"k": [4, 4], "q": [2, 4]}, trials=100)
    rows = run_uncoded(cfg)
    assert 0 < rows[0].mean_candidates < 16.0


def test_uncoded_estimated_csir_runs():
    cfg = small_uncoded(csir="estimated", t_t=8, snr_db=(15.0,), trials=100)
    rows = run_uncoded(cfg)
    assert rows[0].denominator > 0


# CSVs of tiny runs rendered before the per-block error count: twin
# codewords at n_rx=3 make exact ties, and the k4-q2 arms prune.
PINNED_UNCODED = {
    ("wmd", None): "0,wmd,ber,0.240625,77,80,320,16\n6,wmd,ber,0.065625,21,80,320,16\n",
    ("wmd", "k4-q2"): "0,wmd,ber,0.246875,79,80,320,7.0375\n6,wmd,ber,0.1,32,80,320,6.7375\n",
    ("md", None): "0,md,ber,0.2875,92,80,320,16\n6,md,ber,0.134375,43,80,320,16\n",
    ("md", "k4-q2"): "0,md,ber,0.2875,92,80,320,7.0375\n6,md,ber,0.14375,46,80,320,6.7375\n",
    ("ml", None): "0,ml,ber,0.18125,58,80,320,16\n6,ml,ber,0.059375,19,80,320,16\n",
    ("ml", "k4-q2"): "0,ml,ber,0.1625,52,80,320,7.0375\n6,ml,ber,0.090625,29,80,320,6.7375\n",
    ("zf", None): "0,zf,ber,0.2,64,80,320,0\n6,zf,ber,0.10625,34,80,320,0\n",
}


@pytest.mark.byte_identity
@pytest.mark.parametrize("detector, partition", sorted(PINNED_UNCODED, key=str))
def test_uncoded_csv_pinned(detector, partition):
    cfg = SimConfig(
        n_users=2,
        n_rx=3,
        m=4,
        snr_db=(0.0, 6.0),
        t_c=40,
        t_d=40,
        detector=detector,
        partition={"k": [4], "q": [2]} if partition else None,
        trials=80,
        wave=2,
        seed=5,
    )
    want = CSV_HEADER + "\n" + PINNED_UNCODED[detector, partition]
    assert render_csv(run_uncoded(cfg), CSV_HEADER) == want


PINNED_CODED = {
    ("soft-wmd", None): "-4,soft-wmd,fer,0.5,8,16,16,16\n0,soft-wmd,fer,0.125,2,16,16,16\n",
    ("soft-wmd", "k4-q2"): (
        "-4,soft-wmd,fer,0.5,8,16,16,7.47852\n0,soft-wmd,fer,0.3125,5,16,16,7.70703\n"
    ),
    ("wmd", "k4-q2"): "-4,wmd,fer,1,16,16,16,7.47852\n0,wmd,fer,0.6875,11,16,16,7.70703\n",
    ("md", None): "-4,md,fer,1,16,16,16,16\n0,md,fer,1,16,16,16,16\n",
    ("ml", None): "-4,ml,fer,1,16,16,16,16\n0,ml,fer,0.5,8,16,16,16\n",
    ("zf", None): "-4,zf,fer,0.9375,15,16,16,0\n0,zf,fer,0.625,10,16,16,0\n",
}


@pytest.mark.byte_identity
@pytest.mark.parametrize("detector, partition", sorted(PINNED_CODED, key=str))
def test_coded_csv_pinned(detector, partition):
    cfg = small_coded(
        detector=detector,
        partition={"k": [4], "q": [2]} if partition else None,
        snr_db=(-4.0, 0.0),
        trials=16,
        wave=2,
    )
    want = CSV_HEADER + "\n" + PINNED_CODED[detector, partition]
    assert render_csv(run_coded(cfg), CSV_HEADER) == want


def test_error_target_stops_early():
    cfg = small_uncoded(snr_db=(-10.0,), trials=10**9, target_errors=50)
    row = run_uncoded(cfg)[0]
    assert row.errors >= 50
    assert row.trials == 200  # exactly one wave at this noise level


# ---------------------------------------------------------------------------
# coded runs


def test_coded_soft_path_error_free_at_high_snr():
    row = run_coded(small_coded())[0]
    assert row.metric == "fer"
    assert row.errors == 0
    # trials and denominator both count user-frames
    assert row.trials == row.denominator == 8
    assert row.rate == 0.0


def test_coded_hard_path_error_free_at_high_snr():
    row = run_coded(small_coded(detector="wmd"))[0]
    assert row.errors == 0


def test_coded_frames_per_block_honored():
    # 3 frames of 64 slots fill t_d = 192, whether or not frames_per_block gives the count
    row = run_coded(small_coded(trials=6, t_d=192))[0]
    # one block of 3 frames x 2 users crosses the 6-trial budget exactly
    assert row.trials == 6
    given = run_coded(small_coded(frames_per_block=3, trials=6, t_d=192))
    assert [r.to_csv() for r in given] == [row.to_csv()]


def test_coded_default_fills_coherence_block():
    # 128 coded bits / 2 bits per symbol = 64 slots; t_d=128 fits 2 frames
    row = run_coded(small_coded(trials=4, wave=1))[0]
    assert row.trials == 4  # 2 frames x 2 users from a single block


def test_ldpc_fit_gives_the_frame_count():
    # 128 coded bits in 64 two-bit slots
    assert require_ldpc_fit(128, 4, 128, None) == 2
    assert require_ldpc_fit(128, 4, 191, None) == 2
    assert require_ldpc_fit(128, 4, 192, 3) == 3
    # a given frame count is the one t_d holds, not a setting of its own
    for frames in (1, 2, 4):
        with pytest.raises(ConfigurationError, match=f"frames_per_block={frames} != the 3 "):
            require_ldpc_fit(128, 4, 192, frames)
    with pytest.raises(ConfigurationError, match="t_d=63"):
        require_ldpc_fit(128, 4, 63, None)


def test_ldpc_code_built_once_per_parameter_set(monkeypatch):
    built = []
    construct = sim.construct_code
    monkeypatch.setattr(
        sim, "construct_code", lambda n, seed: built.append((n, seed)) or construct(n, seed=seed)
    )
    sim._ldpc_code.cache_clear()
    first = render_csv(run_coded(small_coded(trials=4)), CSV_HEADER)
    assert render_csv(run_coded(small_coded(trials=4)), CSV_HEADER) == first
    assert built == [(128, 7)]
    run_coded(small_coded(trials=4, ldpc_seed=3))
    assert built == [(128, 7), (128, 3)]


def test_coded_block_decodes_at_the_decoder_cap(monkeypatch):
    # BP checks the channel's hard decisions, then each iteration's, so a frame it cannot
    # decode takes ldpc.DECODE_MAX_ITER + 1 syndromes
    checks, runs = [], []
    syndrome, decode = ldpc.syndrome, sim.decode_bp
    monkeypatch.setattr(ldpc, "syndrome", lambda *args: checks.append(1) or syndrome(*args))

    def spy(*args):
        checks.clear()
        bits, converged = decode(*args)
        runs.append((len(checks), converged))
        return bits, converged

    monkeypatch.setattr(sim, "decode_bp", spy)
    sim._arms_on_block(sim._coded_block, [small_coded(snr_db=(-20.0,))], 0, 0)
    assert (ldpc.DECODE_MAX_ITER + 1, False) in runs
    assert max(runs)[0] == ldpc.DECODE_MAX_ITER + 1


def test_tree_stream_is_built_only_for_a_partitioned_block(monkeypatch):
    # purpose 1 seeds the clustering: no other block kind constructs it
    purposes = []
    default_rng = np.random.default_rng

    def spy(seed=None):
        if isinstance(seed, list) and len(seed) == 4:
            purposes.append(seed[3])
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", spy)
    for block, cfg, expected in (
        (sim._uncoded_block, small_uncoded(), [0, 2]),
        (sim._coded_block, small_coded(), [0, 2]),
        (sim._uncoded_block, small_uncoded(partition={"k": [4], "q": [2]}), [0, 1, 2]),
    ):
        purposes.clear()
        sim._arms_on_block(block, [cfg], 0, 0)
        assert sorted(purposes) == expected


def test_coded_rejects_misaligned_blocklength():
    cfg = small_coded(m=16, n_rx=4, ldpc_n=126, t_d=256)
    with pytest.raises(ConfigurationError):
        run_coded(cfg)


def test_coded_rejects_misaligned_alist_blocklength(tmp_path):
    # the blocklength of a loaded matrix is checked once it is known
    path = tmp_path / "n126.alist"
    path.write_text(write_alist(construct_code(126, 0.5, 3).h), encoding="ascii")
    cfg = small_coded(m=16, n_rx=4, ldpc_alist=str(path), t_d=256)
    with pytest.raises(ConfigurationError, match="multiple of the 4 bits"):
        run_coded(cfg)


def test_coded_rejects_frames_overrunning_block():
    # 10 frames of 64 slots cannot share one 128-slot coherence block
    with pytest.raises(ConfigurationError, match="t_d=128"):
        run_coded(small_coded(frames_per_block=10, trials=20))


def test_coded_checks_a_constructed_code_fit_before_building_it(monkeypatch):
    def no_build(*args):
        raise AssertionError("the LDPC code was built")

    monkeypatch.setattr(sim, "construct_code", no_build)
    sim._ldpc_code.cache_clear()
    # one 2048-slot frame cannot fit a 128-slot coherence block
    with pytest.raises(ConfigurationError, match="frame of 2048 slots does not fit t_d=128"):
        run_coded(small_coded(ldpc_n=4096))


def test_coded_rejects_frames_overrunning_block_with_alist(tmp_path):
    path = tmp_path / "n128.alist"
    path.write_text(write_alist(construct_code(128, 0.5, 3).h), encoding="ascii")
    cfg = small_coded(ldpc_alist=str(path), frames_per_block=3)  # only run_coded reads it
    with pytest.raises(ConfigurationError, match="frames_per_block=3 != the 2 "):
        run_coded(cfg)


def test_coded_soft_beats_hard_at_matched_noise():
    # same channels and payloads; BP on LLRs should not lose to bit flipping
    soft = run_coded(small_coded(snr_db=(4.0,), trials=40, wave=2))[0]
    hard = run_coded(
        small_coded(snr_db=(4.0,), trials=40, wave=2, detector="wmd")
    )[0]
    assert soft.errors <= hard.errors


def test_coded_reproduces_across_workers(tmp_path):
    kw = dict(snr_db=(6.0,), trials=16, wave=2)
    seq = render_csv(run_coded(small_coded(**kw)), CSV_HEADER)
    par = render_csv(run_coded(small_coded(workers=2, **kw)), CSV_HEADER)
    assert seq == par


def test_coded_workers_match_under_spawn(monkeypatch):
    # spawned workers start without the parent's LDPC cache and build their own
    kw = dict(snr_db=(6.0,), trials=16, wave=2)
    seq = render_csv(run_coded(small_coded(**kw)), CSV_HEADER)
    ctx = multiprocessing.get_context("spawn")
    monkeypatch.setattr(
        sim,
        "_make_executor",
        lambda cfg: ProcessPoolExecutor(max_workers=cfg.workers, mp_context=ctx),
    )
    par = render_csv(run_coded(small_coded(workers=2, **kw)), CSV_HEADER)
    assert seq == par


# ---------------------------------------------------------------------------
# sweeps, reports, output files


def test_partition_sweep_pairs_and_predicts():
    cfg = small_uncoded(trials=200)
    rows = run_partition_sweep(cfg, ["full", {"k": [4, 4], "q": [2, 4]}])
    assert len(rows) == 2
    full, pruned = rows
    assert full.partition == "full"
    assert (full.n_pre, full.n_wmd, full.n_total) == (0, 16, 16)
    assert pruned.partition == "k4x4-q2x4"
    assert (pruned.n_pre, pruned.n_wmd, pruned.n_total) == (4 + 8, 4, 16)
    # measured candidate count near the analytic prediction
    assert pruned.mean_candidates <= 2 * pruned.n_wmd
    # paired arms never see more errors after widening to the full search
    assert full.denominator == pruned.denominator


def test_partition_sweep_needs_specs():
    with pytest.raises(ConfigurationError):
        run_partition_sweep(small_uncoded(), [])


def test_partition_report_mentions_complexity():
    cfg = small_uncoded(partition={"k": [4, 4], "q": [2, 4]})
    text = partition_report(cfg)
    assert "k4x4-q2x4" in text
    assert "n_total=16" in text
    with pytest.raises(ConfigurationError):
        partition_report(small_uncoded())  # no partition spec


@pytest.mark.parametrize(
    "spec, leaves",
    [({"k": [17], "q": [2]}, 17), ({"k": [8, 8], "q": [2, 2]}, 64), ({"k": [300], "q": [2]}, 300)],
)
def test_runs_refuse_more_partition_leaves_than_codewords(monkeypatch, spec, leaves):
    # a tree over 4**2 = 16 codewords has at most 16 leaves; such an arm used to run
    # and report comparison counts for a tree that was never built
    def no_block(*args):
        raise AssertionError("a block ran")

    monkeypatch.setattr(sim, "_setup_block", no_block)
    message = f"has {leaves} leaves (the product of k), more than the 4**2 = 16 codewords"
    calls = [
        lambda: run_partition_sweep(small_uncoded(), ["full", spec]),
        lambda: run_uncoded(small_uncoded(partition=spec)),
        lambda: run_coded(small_coded(partition=spec)),
        lambda: partition_report(small_uncoded(partition=spec)),
    ]
    for call in calls:
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            call()
    # the analytic counts draw no block: they take the partition
    assert estimate_complexity(parse_partition(spec), 4, 2)[0] > 0


def test_runs_take_as_many_partition_leaves_as_codewords():
    rows = run_partition_sweep(small_uncoded(trials=100), [{"k": [16], "q": [16]}])
    assert rows[0].mean_candidates == 16


def test_write_results_csv_and_sidecar(tmp_path):
    out = tmp_path / "res.csv"
    cfg = small_uncoded(trials=100, output=str(out))
    rows = run_uncoded(cfg)
    write_results(rows, cfg)
    text = out.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert len(text.splitlines()) == 2
    meta = json.loads((tmp_path / "res.csv.meta.json").read_text())
    assert meta["config"]["n_users"] == 2
    # the config as given: an omitted t_c stays null, and the decoder cap is no field
    assert meta["config"]["t_c"] is None
    assert "ldpc_max_iter" not in meta["config"]
    # the config's output is the one destination, so the sidecar names its CSV
    assert meta["config"]["output"] == str(out)
    assert len(meta["row_wall_time_s"]) == 1
    assert meta["total_wall_time_s"] >= 0
    # from the package itself, which a source checkout without metadata also has
    assert meta["package_version"] == onebit_mimo.__version__
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert onebit_mimo.__version__ == tomllib.loads(pyproject.read_text())["project"]["version"]


def test_coded_sidecar_names_the_ldpc_code_used(tmp_path, monkeypatch):
    h = construct_code(128, 0.5, 3).h
    path = tmp_path / "n128.alist"
    path.write_text(write_alist(h), encoding="ascii")
    loads = []
    load = sim.load_alist
    monkeypatch.setattr(sim, "load_alist", lambda p: loads.append(p) or load(p))
    sim._ldpc_code.cache_clear()
    out = tmp_path / "res.csv"
    # the alist overrides ldpc_n
    cfg = small_coded(ldpc_alist=str(path), ldpc_n=672, trials=4, output=str(out))
    write_results(run_coded(cfg), cfg)
    meta = json.loads((tmp_path / "res.csv.meta.json").read_text())
    digest = hashlib.sha256(h.tobytes()).hexdigest()
    assert meta["ldpc"] == {"n": 128, "k": 64, "h_sha256": digest}
    assert meta["config"]["ldpc_n"] == 672  # the config is recorded as given
    # the alist path alone keys the code, so other ldpc_* values reuse it
    run_coded(dataclasses.replace(cfg, ldpc_seed=3, ldpc_n=128))
    assert loads == [str(path)]
    # a constructed code is named too; an uncoded run names none
    cfg = small_coded(trials=4, output=str(out))
    write_results(run_coded(cfg), cfg)
    meta = json.loads((tmp_path / "res.csv.meta.json").read_text())
    assert meta["ldpc"]["n"] == 128
    assert meta["ldpc"]["h_sha256"] == hashlib.sha256(construct_code(128, 0.5, 7).h.tobytes()).hexdigest()
    cfg = small_uncoded(trials=100, output=str(out))
    write_results(run_uncoded(cfg), cfg)
    assert "ldpc" not in json.loads((tmp_path / "res.csv.meta.json").read_text())


def test_numpy_partition_entries_are_stored_as_python_ints():
    # an int64 product of 3**25 * 3**25 used to wrap, with an overflow warning
    big = np.int64(3**25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = PartitionParams((big, big), (np.int64(1), np.int64(1)))
        assert estimate_complexity(params, 4, 8) == (2 * 3**25, 4**8 / 3**50, 2 * 3**25)
    assert all(type(v) is int for v in params.k + params.q)
    # bools and non-integers are kept, so they are still rejected
    for bad in ((True,), (4.0,), (np.float64(4),)):
        with pytest.raises(ConfigurationError, match="must be integers"):
            small_uncoded(partition=PartitionParams(bad, (2,)))


@pytest.mark.parametrize(
    "make, run, field, value, expected",
    [
        (
            small_uncoded,
            run_uncoded,
            "partition",
            PartitionParams((np.int64(4),), (np.int64(2),)),
            {"k": [4], "q": [2]},
        ),
        # one integer rule for fields and partition entries: a numpy int field was refused
        (small_uncoded, run_uncoded, "n_users", np.int64(2), 2),
    ],
    ids=["partition", "n_users"],
)
def test_numpy_scalars_give_a_readable_sidecar(tmp_path, make, run, field, value, expected):
    # a numpy scalar the config took used to stop json.dump half way through the sidecar
    cfg = make(trials=4, output=str(tmp_path / "res.csv"), **{field: value})
    assert not isinstance(getattr(cfg, field), np.generic)  # stored as a plain Python value
    write_results(run(cfg), cfg)
    with open(tmp_path / "res.csv.meta.json", encoding="ascii") as fh:
        assert json.load(fh)["config"][field] == expected


def test_a_rejected_sidecar_leaves_no_csv(tmp_path):
    cfg = small_coded(trials=4, output=str(tmp_path / "r.csv"))
    rows = run_coded(cfg)
    cfg.ldpc_n = 4000  # one frame of 2000 slots overruns the 128-slot block
    with pytest.raises(ConfigurationError, match="of 2000 slots"):
        write_results(rows, cfg)
    assert list(tmp_path.iterdir()) == []


def test_write_results_without_path_prints_the_csv(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = small_uncoded(trials=100)
    rows = run_uncoded(cfg)
    write_results(rows, cfg)
    assert capsys.readouterr().out == render_csv(rows, CSV_HEADER)
    assert list(tmp_path.iterdir()) == []  # no sidecar
    # the header comes from the rows' class
    rows = run_partition_sweep(cfg, ["full"])
    write_results(rows, cfg)
    assert capsys.readouterr().out == render_csv(rows, SWEEP_CSV_HEADER)


def test_coded_checks_its_ldpc_code_before_any_block(monkeypatch):
    blocks = []
    monkeypatch.setattr(sim, "_coded_block", lambda *args: blocks.append(args))
    with pytest.raises(ConfigurationError, match="ldpc_n=127: blocklength must be even"):
        run_coded(small_coded(ldpc_n=127))
    with pytest.raises(ConfigurationError, match="ldpc_n=10: blocklength must be even and >= 12"):
        run_coded(small_coded(ldpc_n=10))
    assert blocks == []


def test_sweep_csv_render(tmp_path):
    cfg = small_uncoded(trials=100)
    rows = run_partition_sweep(cfg, ["full"])
    text = render_csv(rows, SWEEP_CSV_HEADER)
    lines = text.splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert lines[1].startswith("full,0,16,16,")
    assert all(len(line.split(",")) == len(SWEEP_CSV_HEADER.split(",")) for line in lines)


def test_symbol_bit_grouping_round_trip():
    # the coded path packs q coded bits per symbol with the last bit as the
    # label MSB; packing then unpacking must be the identity
    rng = np.random.default_rng(0)
    for q in (2, 4):
        pos = 2 ** np.arange(q)
        g = rng.integers(0, 2, size=(50, q))
        w = g @ pos
        unpacked = (w[:, None] >> np.arange(q)) & 1
        np.testing.assert_array_equal(unpacked, g)
        assert w.min() >= 0 and w.max() < 2**q
