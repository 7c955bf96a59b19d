"""Monte Carlo BER/FER harness.

Every coherence block owns three RNG streams derived from
``(seed, snr_index, block_index, purpose)`` — purpose 0 draws the channel
(and pilot noise), 1 seeds the partition clustering (built only when a
partition is set), 2 draws payload data and data noise.  Detector or
partition choices therefore never shift the channel or data realizations,
which keeps A/B comparisons paired and makes results independent of how
blocks are distributed over worker processes.  Purpose 2 is drawn in slot
order: an uncoded slot draws its K digits and then its N noise samples
(``normal``); a coded frame draws its K message rows once, then N noise
samples per slot.  A slot's digits are the values
``integers(0, m, size=K)`` gives, read as the 32-bit halves of the
stream's raw words (``_slot_digits``).  Every run kind sends its data slots
into arrays (``_send``: digits (slots, K), uint8 observations (slots, N)),
then ``_decide`` detects them with the detector it chooses once per block:
ZF, or pruning (when a tree exists) and a hard decoder or the soft LLRs.
Every run goes through one runner, ``run_arms``, of arms, each a detector
and a partition laid over one config (``_ARM_FIELDS``).  Each run kind of
``_RUN_KINDS`` pairs its block simulator with one arm check, and the runner
checks each arm's seed and partition size (``SimConfig.require_runnable``)
and then that check, all before the first runs: "ber" refuses a soft
detector, "fer" needs an LDPC code that fits.  The arms run block by block:
one task takes one block and runs every arm still going on it, in arm
order, setting up each arm's block itself (``_setup_block``), so a block
simulator sees no stream or sharing.  Each arm draws its own channel and
data, the same for every arm, and keeps its own stopping rule.  So a
``_SharedSetup``, alive for one task, builds the block's code once, read
through one view per score that ``config.DETECTORS`` declares (soft-wmd and
wmd arms share one ``wh``), and one tree per ``partition.k``, which each
arm gets with its own ``q``.  A task holds one code, its trees and one
view, so one cached score, at a time.  One resolver, ``_ldpc_layout``,
gives a coded run its LDPC code and the frames that fit t_d: an alist
overrides ldpc_n and ldpc_seed, and a constructed code is checked, against
t_d too, before it is built; the runner, each coded block and the sidecar
call it, and the code is built once per process.

Blocks are scheduled in fixed-size waves: a whole wave is simulated and
merged before each arm's stopping rule (trial budget or error target) is
evaluated, so the set of blocks an arm simulates is a pure function of its
config and seed.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import __version__
from .channel import (
    estimate_channel_zf,
    generate_pilots,
    sample_rayleigh,
    transmit,
    transmit_pilots,
)
from .config import (DETECTORS, ResultRow, SimConfig, SweepRow, arm_cells, require_ldpc_fit,
                     snr_linear)
from .core import Constellation, bit_table, bits_per_symbol, qam_constellation, real_channel_matrix
from .detector import compute_llrs, md_decode, ml_decode, wmd_decode, zf_detect
from .errors import CodeConstructionError, ConfigurationError
from .ldpc import (
    LdpcCode,
    code_from_parity_check,
    construct_code,
    decode_bit_flipping,
    decode_bp,
    encode,
    load_alist,
    require_constructible,
)
from .partition import (
    PartitionTree,
    build_partition_tree,
    estimate_complexity,
    preprocess,
    tree_stats,
)
from .spatial_code import SpatialCode, build_code

_HARD_DECODERS = {"wmd": wmd_decode, "md": md_decode, "ml": ml_decode}


@functools.cache
def _ldpc_code(source) -> LdpcCode:
    """The code of an alist path or of an (ldpc_n, ldpc_seed) pair, built once per process.

    An alist that is not ASCII, is malformed or oversize, or whose matrix has
    no full-rank systematic form is a bad input file, so it is a
    configuration error naming the file.
    """
    if isinstance(source, tuple):
        n, seed = source
        return construct_code(n, seed=seed)
    try:
        return code_from_parity_check(load_alist(source))
    except (CodeConstructionError, ConfigurationError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"ldpc_alist {source}: {exc}") from exc


def _ldpc_layout(cfg: SimConfig):
    """(code, frames per block): an alist overrides ldpc_n/seed, and a
    constructed code's blocklength and fit are checked before it is built."""
    if cfg.ldpc_alist:
        code = _ldpc_code(cfg.ldpc_alist)
        return code, require_ldpc_fit(code.n, cfg.m, cfg.t_d, cfg.frames_per_block)
    try:
        require_constructible(cfg.ldpc_n)
    except ConfigurationError as exc:
        raise ConfigurationError(f"ldpc_n={cfg.ldpc_n}: {exc}") from exc
    frames = require_ldpc_fit(cfg.ldpc_n, cfg.m, cfg.t_d, cfg.frames_per_block)
    return _ldpc_code((cfg.ldpc_n, cfg.ldpc_seed)), frames


@dataclass(frozen=True)
class Block:
    """One coherence block: its channel, ZF's pseudo-inverse or code and tree, data stream."""

    const: Constellation
    h_true: np.ndarray
    h_pinv: np.ndarray | None  # of the channel estimate, for zf only
    code: SpatialCode | None  # for every detector but zf
    tree: PartitionTree | None
    rng_data: np.random.Generator


def _block_rng(cfg: SimConfig, snr_idx: int, block: int, purpose: int) -> np.random.Generator:
    """The stream of one purpose in one coherence block (see the module docstring)."""
    return np.random.default_rng([cfg.seed, snr_idx, block, purpose])


class _SharedSetup:
    """The code and trees one task's arms share on its block (see the module docstring).

    The arms of a task draw one channel estimate and tree stream, so the code is
    built on the first call and a tree once per ``partition.k``.
    """

    def __init__(self):
        self._code = self._view = None
        self._trees = {}

    def code(self, h_est: np.ndarray, const: Constellation, score: str) -> SpatialCode:
        """The block's code for the arms that read score: a ``dataclasses.replace`` view of it.

        A view caches only that score, which every arm reading it shares, and
        the next score's view replaces it, so no score outlives its arms.
        """
        if self._code is None:
            self._code = build_code(h_est, const)
        if self._view is None or self._view[0] != score:
            self._view = score, dataclasses.replace(self._code)
        return self._view[1]

    def tree(self, cfg: SimConfig, snr_idx: int, block: int) -> PartitionTree:
        """The code's tree for the arm cfg, built once per ``partition.k``."""
        k = cfg.partition.k
        if k not in self._trees:
            rng = _block_rng(cfg, snr_idx, block, 1)
            self._trees[k] = build_partition_tree(self._code, cfg.partition, rng)
        return dataclasses.replace(self._trees[k], params=cfg.partition)


def _setup_block(cfg: SimConfig, snr_idx: int, block: int, shared: _SharedSetup) -> Block:
    """Channel draw, optional pilot estimate, then ZF's pseudo-inverse or shared's code and tree."""
    rng_channel = _block_rng(cfg, snr_idx, block, 0)
    snr = snr_linear(cfg.snr_db[snr_idx])
    const = qam_constellation(cfg.m, snr)
    h_true = real_channel_matrix(sample_rayleigh(cfg.n_users, cfg.n_rx, rng_channel))
    if cfg.csir == "estimated":
        pilots = generate_pilots(cfg.n_users, cfg.t_t, snr)
        h_est_c = estimate_channel_zf(transmit_pilots(h_true, pilots, rng_channel), pilots)
        h_est = real_channel_matrix(h_est_c)
    else:
        h_est = h_true
    rng_data = _block_rng(cfg, snr_idx, block, 2)
    if DETECTORS[cfg.detector].kind == "linear":  # searches no codebook, so takes no partition
        return Block(const, h_true, np.linalg.pinv(h_est), None, None, rng_data)
    code = shared.code(h_est, const, DETECTORS[cfg.detector].score)
    tree = None if cfg.partition is None else shared.tree(cfg, snr_idx, block)
    return Block(const, h_true, None, code, tree, rng_data)


@dataclass
class BlockStats:
    trials: int = 0  # data slots (uncoded) or user-frames (coded)
    errors: int = 0
    denominator: int = 0  # transmitted bits (uncoded) or user-frames (coded)
    cand_sum: int = 0
    cand_slots: int = 0
    seconds: float = 0.0  # the arm's time on its blocks, set-up it built included

    def merge(self, other: "BlockStats") -> None:
        self.trials += other.trials
        self.errors += other.errors
        self.denominator += other.denominator
        self.cand_sum += other.cand_sum
        self.cand_slots += other.cand_slots
        self.seconds += other.seconds

    @property
    def mean_candidates(self) -> float:
        return self.cand_sum / self.cand_slots if self.cand_slots else 0.0


def _decide(cfg: SimConfig, blk: Block, obs: np.ndarray, stats: BlockStats) -> np.ndarray:
    """A soft detector's LLRs, or any other detector's decided bits, of each row of the
    (n, N) observations obs: (n, K, q), MSB first, one array filled row by row.

    The detector is chosen once per block: ZF, or a hard decoder or the soft
    LLRs, each after pruning when a tree exists.  Layer functions are looked up
    in this module while the block runs, since a traced run rebinds them, and
    each takes ``(r, code, candidates)`` positionally.  The n slots and their
    candidate counts reach the stats here; ZF's block holds no code, so it counts none.
    """
    code, tree = blk.code, blk.tree
    stats.cand_slots += len(obs)
    if code is None:
        digits = np.empty((len(obs), cfg.n_users), dtype=np.int64)
        for t, r in enumerate(obs):
            digits[t] = zf_detect(r, blk.h_pinv, blk.const)
        return bit_table(cfg.m)[digits]
    if DETECTORS[cfg.detector].kind == "soft":
        decide, out = compute_llrs, np.empty((len(obs), cfg.n_users, bits_per_symbol(cfg.m)))
    else:
        decide, out = _HARD_DECODERS[cfg.detector], np.empty(len(obs), dtype=np.intp)
    size, n_cand = code.size, 0
    for t, r in enumerate(obs):
        cand = None if tree is None else preprocess(r, tree)
        n_cand += size if cand is None else cand.size
        out[t] = decide(r, code, cand)
    stats.cand_sum += n_cand
    return out if out.ndim == 3 else bit_table(cfg.m)[code.digits[out]]


def _slot_digits(rng: np.random.Generator, m: int, K: int):
    """An iterator over slots' K digits: the values ``rng.integers(0, m, size=K)`` gives.

    m is a power of two (SimConfig requires a power of 4), and for such an m
    ``integers`` maps each 32-bit draw u to ``(u * m) >> 32`` and never
    rejects one (Lemire's method).  PCG64 hands out a fresh 64-bit word's low
    half as a 32-bit draw and buffers its high half for the next one, which
    ``normal`` never reads.  So a slot's digits are the top log2(m) bits of
    the raw words' halves, low half first, and an odd K's spare half goes to
    the next slot; the generator's own buffer is never filled.  Other bit
    generators split their words differently and are rejected.
    """
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.PCG64):
        raise TypeError(f"slot digits need a PCG64 bit generator, got {type(bitgen).__name__}")
    return _raw_digits(bitgen.random_raw, 33 - m.bit_length(), K)


def _raw_digits(raw, shift: int, K: int):
    """Yield K digits per slot, ``half >> shift`` over raw words' halves, low half first."""
    spare = []
    while True:
        digits = spare
        while len(digits) < K:
            u = raw()
            digits += ((u & 0xFFFFFFFF) >> shift, u >> (32 + shift))
        spare = digits[K:]
        yield digits[:K]


def _send(blk: Block, digits, slots: int):
    """The sent digits (slots, K) and observations (slots, N) uint8 of slots data slots, sent
    in stream order, each the next K digits of the iterable digits; raises if it runs out."""
    sent = np.empty((slots, blk.h_true.shape[1] // 2), dtype=np.int64)
    obs = np.empty((slots, len(blk.h_true)), dtype=np.uint8)
    t = -1
    for t, w in enumerate(itertools.islice(digits, slots)):
        sent[t] = w
        obs[t] = transmit(blk.h_true, sent[t], blk.const, blk.rng_data)
    if t + 1 < slots:
        raise ValueError(f"digits ran out after {t + 1} of {slots} slots")
    return sent, obs


def _uncoded_block(cfg: SimConfig, blk: Block) -> BlockStats:
    """Simulate the t_d uncoded slots of one coherence block; count bit errors."""
    digits = _slot_digits(blk.rng_data, cfg.m, cfg.n_users)
    stats = BlockStats(trials=cfg.t_d)
    sent, obs = _send(blk, digits, cfg.t_d)
    bits = _decide(cfg, blk, obs, stats)
    stats.errors = int(np.bitwise_xor(bits, bit_table(cfg.m)[sent], out=bits).sum())
    stats.denominator = bits.size
    return stats


def _coded_block(cfg: SimConfig, blk: Block) -> BlockStats:
    """Simulate LDPC frames within one coherence block; count frame errors.

    Within each symbol's group of coded bits the last bit is the label MSB,
    so the symbol value is the group dotted with ascending powers of two, and
    the slots' MSB-first LLRs or decided bits are reversed into frame order.
    """
    ldpc, frames = _ldpc_layout(cfg)
    q = bits_per_symbol(cfg.m)
    slots_per_frame = ldpc.n // q
    decoder = decode_bp if DETECTORS[cfg.detector].kind == "soft" else decode_bit_flipping
    stats = BlockStats(trials=frames * cfg.n_users, denominator=frames * cfg.n_users)
    for _ in range(frames):
        msgs = blk.rng_data.integers(0, 2, size=(cfg.n_users, ldpc.k))
        cws = encode(ldpc, msgs)
        symbols = (cws.reshape(cfg.n_users, slots_per_frame, q) @ 2 ** np.arange(q)).T
        rows = _decide(cfg, blk, _send(blk, symbols, slots_per_frame)[1], stats)
        frame = rows[:, :, ::-1].transpose(1, 0, 2).reshape(cfg.n_users, ldpc.n)
        for u in range(cfg.n_users):
            decoded, _ = decoder(frame[u], ldpc)
            stats.errors += int(np.any(decoded != cws[u]))
    return stats


def _make_executor(cfg: SimConfig):
    if cfg.workers > 1:
        # imported here, so a one-worker run loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=cfg.workers)
    return nullcontext(None)


def _arms_on_block(worker, configs, snr_idx: int, block: int) -> list:
    """Each arm's stats on one block, in arm order, each set up from one ``_SharedSetup``."""
    shared = _SharedSetup()
    out = []
    for cfg in configs:
        start = time.perf_counter()
        stats = worker(cfg, _setup_block(cfg, snr_idx, block, shared))
        stats.seconds = time.perf_counter() - start
        out.append(stats)
    return out


def _run_lockstep(configs, worker, metric: str) -> list:
    """Each arm's rows, one ResultRow per SNR point, for the arm configs run block by block.

    At each SNR point every arm still going runs on each block of a wave;
    after the wave each arm checks its own counts against the budget and target.
    A row's wall time is its arm's share of its waves' wall, split by the
    seconds its blocks took, so the rows' walls sum to the waves' wall at
    any ``workers``.
    """
    base = configs[0]
    rows = [[] for _ in configs]
    with _make_executor(base) as executor:
        run_blocks = map if executor is None else executor.map
        for snr_idx, snr_db in enumerate(base.snr_db):
            totals = [BlockStats() for _ in configs]
            going = list(range(len(configs)))
            block = 0
            while going:
                task = partial(_arms_on_block, worker, [configs[a] for a in going], snr_idx)
                wave = [BlockStats() for _ in going]
                start = time.perf_counter()
                for stats in run_blocks(task, range(block, block + base.wave)):
                    for acc, got in zip(wave, stats):
                        acc.merge(got)
                wall = time.perf_counter() - start
                busy = sum(acc.seconds for acc in wave)
                for a, acc in zip(going, wave):
                    acc.seconds = wall * acc.seconds / busy if busy else 0.0
                    totals[a].merge(acc)
                block += base.wave
                going = [a for a in going if totals[a].trials < base.trials
                         and totals[a].errors < base.target_errors]
            for cfg, stats, arm_rows in zip(configs, totals, rows):
                arm_rows.append(
                    ResultRow(
                        snr_db=snr_db,
                        detector=cfg.detector,
                        metric=metric,
                        rate=stats.errors / stats.denominator,
                        errors=stats.errors,
                        trials=stats.trials,
                        denominator=stats.denominator,
                        mean_candidates=stats.mean_candidates,
                        wall_time_s=stats.seconds,
                    )
                )
    return rows


def _hard_output(cfg: SimConfig) -> None:
    if DETECTORS[cfg.detector].kind == "soft":
        raise ConfigurationError(f"{cfg.detector} produces LLRs and needs a coded run")


# Each run kind by its metric: block simulator and the check each arm needs
# beyond its config's own (for "fer" the LDPC fit, checked in this process; a
# spawned worker starts without its cache and builds its own).
_RUN_KINDS = {"ber": (_uncoded_block, _hard_output), "fer": (_coded_block, _ldpc_layout)}


# The fields an arm may set: it takes every other from the config, so the arms of a
# block share its channel, code and tree stream, SNR points, waves and executor.
_ARM_FIELDS = ("detector", "partition")


def run_arms(cfg: SimConfig, arms, metric: str) -> list:
    """[(arm config, rows)] per arm, a dict of ``_ARM_FIELDS`` laid over cfg, so paired.

    Every arm is built (so checked) and checked against the run kind before the
    first runs; an arm may set no other field.
    """
    if not arms:
        raise ConfigurationError("a paired run needs at least one arm")
    for arm in arms:
        for field in arm:
            if field not in _ARM_FIELDS:
                raise ConfigurationError(f"an arm may not set {field}, which all arms share")
    worker, check = _RUN_KINDS[metric]
    configs = [dataclasses.replace(cfg, **arm) for arm in arms]
    for arm in configs:
        arm.require_runnable()
        check(arm)
    return list(zip(configs, _run_lockstep(configs, worker, metric)))


def run_uncoded(cfg: SimConfig) -> list:
    """BER of the configured detector, one ResultRow per SNR point."""
    return run_arms(cfg, [{}], "ber")[0][1]


def run_coded(cfg: SimConfig) -> list:
    """FER with the LDPC outer code, one ResultRow per SNR point."""
    return run_arms(cfg, [{}], "fer")[0][1]


def run_partition_sweep(cfg: SimConfig, sweep) -> list:
    """Uncoded BER for each partition spec in sweep, one arm per spec.

    Specs use the config syntax, None/'full' or a {"k": ..., "q": ...}
    mapping; the arms are paired by cfg's seed, so differences isolate the
    partition choice.  Each row is led by its arm's ``arm_cells``.
    """
    rows = []
    for arm, arm_rows in run_arms(cfg, [{"partition": spec} for spec in sweep], "ber"):
        cells = arm_cells(arm)
        rows += [SweepRow(**dataclasses.asdict(row), **cells) for row in arm_rows]
    return rows


def partition_report(cfg: SimConfig) -> str:
    """Tree shape and complexity summary for one sampled coherence block."""
    cfg = dataclasses.replace(cfg)
    cfg.require_runnable()
    if cfg.partition is None:
        raise ConfigurationError("partition-stats needs a partition spec")
    blk = _setup_block(cfg, 0, 0, _SharedSetup())
    n_pre, n_wmd, n_total = estimate_complexity(cfg.partition, cfg.m, cfg.n_users)
    lines = [
        f"partition {cfg.partition.label()} over {blk.code.size} codewords",
        tree_stats(blk.tree).rstrip("\n"),
        f"predicted comparisons: n_pre={n_pre} n_wmd={n_wmd} n_total={n_total} "
        f"(full search {blk.code.size})",
    ]
    return "\n".join(lines) + "\n"


def render_csv(rows, header: str) -> str:
    return "\n".join([header] + [r.to_csv() for r in rows]) + "\n"


def write_text(text: str, cfg: SimConfig) -> None:
    """The text to ``cfg.output``, or to stdout when no output is set."""
    if cfg.output:
        with open(cfg.output, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def write_results(rows, cfg: SimConfig) -> None:
    """CSV of the rows to ``cfg.output`` plus a .meta.json sidecar holding config and wall times.

    The header is the rows' own (``ResultRow.HEADER`` or ``SweepRow.HEADER``).
    A coded run's sidecar also names the LDPC code it used: n, k and the
    SHA-256 of its parity-check matrix's bytes.

    Timings stay out of the CSV so identical configurations reproduce it
    byte for byte.  Without an output the CSV goes to stdout, with no sidecar.
    The sidecar is built first, so a config it rejects leaves neither file.
    """
    if not cfg.output:
        write_text(render_csv(rows, rows[0].HEADER), cfg)
        return
    walls = [r.wall_time_s for r in rows]
    meta = {
        "config": dataclasses.asdict(cfg),
        "package_version": __version__,
        "row_wall_time_s": walls,
        "total_wall_time_s": sum(walls),
    }
    if any(r.metric == "fer" for r in rows):
        ldpc, _ = _ldpc_layout(cfg)
        digest = hashlib.sha256(np.ascontiguousarray(ldpc.h)).hexdigest()
        meta["ldpc"] = {"n": ldpc.n, "k": ldpc.k, "h_sha256": digest}
    write_text(render_csv(rows, rows[0].HEADER), cfg)
    with open(cfg.output + ".meta.json", "w", encoding="ascii") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
