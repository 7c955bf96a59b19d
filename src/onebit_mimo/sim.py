"""Monte Carlo BER/FER harness.

Every coherence block owns three RNG streams derived from
``(seed, snr_index, block_index, purpose)`` — purpose 0 draws the channel
(and pilot noise), 1 seeds the partition clustering, 2 draws payload data and
data noise.  Detector or partition choices therefore never shift the channel
or data realizations, which keeps A/B comparisons paired and makes results
independent of how blocks are distributed over worker processes.

Blocks are scheduled in fixed-size waves: a whole wave is simulated and
merged before the stopping rule (trial budget or error target) is evaluated,
so the set of simulated blocks is a pure function of the config and seed.
"""

from __future__ import annotations

import dataclasses
import json
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .channel import (
    estimate_channel_zf,
    generate_pilots,
    sample_rayleigh,
    transmit,
    transmit_pilots,
)
from .config import ResultRow, SimConfig, SweepRow, parse_partition, require_ldpc_fit
from .core import bit_table, qam_constellation, real_channel_matrix
from .detector import compute_llrs, md_decode, ml_decode, wmd_decode, zf_detect
from .errors import ConfigurationError
from .ldpc import (
    code_from_parity_check,
    construct_code,
    decode_bit_flipping,
    decode_bp,
    encode,
    load_alist,
)
from .partition import build_partition_tree, estimate_complexity, preprocess, tree_stats
from .spatial_code import build_code

try:
    from importlib.metadata import version as _pkg_version

    PACKAGE_VERSION = _pkg_version("onebit-mimo")
except Exception:  # pragma: no cover - metadata missing in odd installs
    PACKAGE_VERSION = "unknown"

_HARD_DECODERS = {"wmd": wmd_decode, "md": md_decode, "ml": ml_decode}

_LDPC_CACHE: dict = {}


def _get_ldpc(cfg: SimConfig):
    key = (cfg.ldpc_n, cfg.ldpc_rate, cfg.ldpc_seed, cfg.ldpc_alist)
    code = _LDPC_CACHE.get(key)
    if code is None:
        if cfg.ldpc_alist:
            code = code_from_parity_check(load_alist(cfg.ldpc_alist))
        else:
            code = construct_code(cfg.ldpc_n, cfg.ldpc_rate, cfg.ldpc_seed)
        _LDPC_CACHE[key] = code
    return code


def _block_rngs(seed: int, snr_idx: int, block: int):
    return tuple(
        np.random.default_rng([seed, snr_idx, block, purpose]) for purpose in range(3)
    )


def _block_setup(cfg: SimConfig, snr_db: float, rng_channel, rng_tree):
    """Channel draw, optional pilot-based estimation, code and tree build."""
    snr = 10.0 ** (snr_db / 10.0)
    const = qam_constellation(cfg.m, snr)
    h_c = sample_rayleigh(cfg.n_users, cfg.n_rx, rng_channel)
    h_true = real_channel_matrix(h_c)
    if cfg.csir == "estimated":
        pilots = generate_pilots(cfg.n_users, cfg.t_t, snr)
        obs = transmit_pilots(h_true, pilots, rng_channel)
        h_est_c = estimate_channel_zf(obs, pilots)
    else:
        h_est_c = h_c
    h_est = real_channel_matrix(h_est_c)
    code = build_code(h_est, const)
    tree = (
        build_partition_tree(code, cfg.partition, rng_tree)
        if cfg.partition is not None
        else None
    )
    return const, h_true, h_est, code, tree


@dataclass
class BlockStats:
    trials: int = 0  # data slots (uncoded) or user-frames (coded)
    errors: int = 0
    denominator: int = 0  # transmitted bits (uncoded) or user-frames (coded)
    cand_sum: int = 0
    cand_slots: int = 0

    def merge(self, other: "BlockStats") -> None:
        self.trials += other.trials
        self.errors += other.errors
        self.denominator += other.denominator
        self.cand_sum += other.cand_sum
        self.cand_slots += other.cand_slots

    @property
    def mean_candidates(self) -> float:
        return self.cand_sum / self.cand_slots if self.cand_slots else 0.0


def _uncoded_block(cfg: SimConfig, snr_idx: int, block: int) -> BlockStats:
    """Simulate one coherence block of t_d uncoded slots; count bit errors.

    The sent and decided symbols are collected per slot and the bit errors
    counted once for the whole block.
    """
    rng_channel, rng_tree, rng_data = _block_rngs(cfg.seed, snr_idx, block)
    const, h_true, h_est, code, tree = _block_setup(
        cfg, cfg.snr_db[snr_idx], rng_channel, rng_tree
    )
    decoder = _HARD_DECODERS.get(cfg.detector)
    sent = np.empty((cfg.t_d, cfg.n_users), dtype=np.int64)
    stats = BlockStats(trials=cfg.t_d, cand_slots=cfg.t_d)
    if cfg.detector == "zf":
        w_hat = np.empty_like(sent)
        for t in range(cfg.t_d):
            sent[t] = w = rng_data.integers(0, cfg.m, size=cfg.n_users)
            w_hat[t] = zf_detect(transmit(h_true, w, const, rng_data), h_est, const)
    else:
        picked = np.empty(cfg.t_d, dtype=np.int64)
        if tree is None:
            stats.cand_sum = cfg.t_d * code.size
        for t in range(cfg.t_d):
            sent[t] = w = rng_data.integers(0, cfg.m, size=cfg.n_users)
            r = transmit(h_true, w, const, rng_data)
            cand = None
            if tree is not None:
                cand = preprocess(r, tree)
                stats.cand_sum += cand.size
            picked[t] = decoder(r, code, cand)
        w_hat = code.digits[picked]
    lut = bit_table(cfg.m)
    stats.errors = int((lut[sent] ^ lut[w_hat]).sum())
    stats.denominator = cfg.t_d * cfg.n_users * const.bits_per_symbol
    return stats


def _coded_block(cfg: SimConfig, snr_idx: int, block: int) -> BlockStats:
    """Simulate LDPC frames within one coherence block; count frame errors.

    Within each symbol's group of coded bits the last bit is the label MSB,
    so the symbol value is the group dotted with ascending powers of two and
    per-slot LLR rows (MSB first) are reversed back into frame order.
    """
    rng_channel, rng_tree, rng_data = _block_rngs(cfg.seed, snr_idx, block)
    const, h_true, h_est, code, tree = _block_setup(
        cfg, cfg.snr_db[snr_idx], rng_channel, rng_tree
    )
    ldpc = _get_ldpc(cfg)
    q = const.bits_per_symbol
    slots_per_frame = ldpc.n // q
    frames = cfg.frames_per_block or max(1, cfg.t_d // slots_per_frame)
    soft = cfg.detector == "soft-wmd"
    decoder = _HARD_DECODERS.get(cfg.detector)
    pos = 2 ** np.arange(q)
    stats = BlockStats()
    for _ in range(frames):
        msgs = rng_data.integers(0, 2, size=(cfg.n_users, ldpc.k))
        cws = np.array([encode(ldpc, msgs[u]) for u in range(cfg.n_users)])
        symbols = (cws.reshape(cfg.n_users, slots_per_frame, q) @ pos).T  # (slots, K)
        frame_llrs = np.empty((cfg.n_users, ldpc.n))
        frame_bits = np.empty((cfg.n_users, ldpc.n), dtype=np.uint8)
        for t in range(slots_per_frame):
            r = transmit(h_true, symbols[t], const, rng_data)
            cand = preprocess(r, tree) if tree is not None else None
            stats.cand_sum += cand.size if cand is not None else code.size
            stats.cand_slots += 1
            if soft:
                llr = compute_llrs(r, code, cand)
                frame_llrs[:, t * q : (t + 1) * q] = llr[:, ::-1]
            else:
                w_hat = code.digits[decoder(r, code, cand)].astype(np.int64)
                frame_bits[:, t * q : (t + 1) * q] = (w_hat[:, None] >> np.arange(q)) & 1
        for u in range(cfg.n_users):
            if soft:
                decoded, _ = decode_bp(frame_llrs[u], ldpc, cfg.ldpc_max_iter)
            else:
                decoded, _ = decode_bit_flipping(frame_bits[u], ldpc, cfg.ldpc_max_iter)
            stats.errors += int(np.any(decoded != cws[u]))
        stats.trials += cfg.n_users
        stats.denominator += cfg.n_users
    return stats


def _make_executor(cfg: SimConfig):
    if cfg.workers > 1:
        return ProcessPoolExecutor(max_workers=cfg.workers)
    return nullcontext(None)


def _accumulate(cfg: SimConfig, snr_idx: int, worker, executor) -> BlockStats:
    """Run whole waves of blocks until the trial budget or error target hits."""
    stats = BlockStats()
    block = 0
    while True:
        blocks = range(block, block + cfg.wave)
        if executor is None:
            results = [worker(cfg, snr_idx, b) for b in blocks]
        else:
            results = list(executor.map(partial(worker, cfg, snr_idx), blocks))
        for res in results:
            stats.merge(res)
        block += cfg.wave
        if stats.trials >= cfg.trials or stats.errors >= cfg.target_errors:
            return stats


def _run(cfg: SimConfig, worker, metric: str) -> list:
    rows = []
    with _make_executor(cfg) as executor:
        for snr_idx, snr_db in enumerate(cfg.snr_db):
            start = time.perf_counter()
            stats = _accumulate(cfg, snr_idx, worker, executor)
            rows.append(
                ResultRow(
                    snr_db=snr_db,
                    detector=cfg.detector,
                    metric=metric,
                    rate=stats.errors / stats.denominator,
                    errors=stats.errors,
                    trials=stats.trials,
                    denominator=stats.denominator,
                    mean_candidates=stats.mean_candidates,
                    wall_time_s=time.perf_counter() - start,
                )
            )
    return rows


def run_uncoded(cfg: SimConfig) -> list:
    """BER of the configured detector, one ResultRow per SNR point."""
    cfg.validate(coded=False)
    cfg.require_seed()
    return _run(cfg, _uncoded_block, "ber")


def run_coded(cfg: SimConfig) -> list:
    """FER with the LDPC outer code, one ResultRow per SNR point."""
    cfg.validate(coded=True)
    cfg.require_seed()
    # an alist's blocklength is known only once it is loaded; every process,
    # this one and each worker, builds its own code lazily in _get_ldpc
    if cfg.ldpc_alist is not None:
        require_ldpc_fit(_get_ldpc(cfg).n, cfg.m, cfg.t_d, cfg.frames_per_block)
    return _run(cfg, _coded_block, "fer")


def run_partition_sweep(cfg: SimConfig, sweep) -> list:
    """Uncoded BER for each partition spec in sweep, paired via shared seed.

    Specs use the config syntax (None/'full', mapping, or [k, q] pair); each
    arm reuses the caller's seed so channel and data draws are identical and
    differences isolate the partition choice.
    """
    if not sweep:
        raise ConfigurationError("partition sweep needs at least one spec")
    arms = [dataclasses.replace(cfg, partition=parse_partition(spec)) for spec in sweep]
    for arm in arms:  # reject a bad arm before any arm runs
        arm.validate(coded=False)
    rows = []
    for arm in arms:
        params = arm.partition
        n_pre, n_wmd, n_total = estimate_complexity(params, cfg.m, cfg.n_users)
        for row in run_uncoded(arm):
            rows.append(
                SweepRow(
                    partition=params.label() if params is not None else "full",
                    n_pre=n_pre,
                    n_wmd=n_wmd,
                    n_total=n_total,
                    row=row,
                )
            )
    return rows


def partition_report(cfg: SimConfig) -> str:
    """Tree shape and complexity summary for one sampled coherence block."""
    cfg.validate(coded=False)
    cfg.require_seed()
    if cfg.partition is None:
        raise ConfigurationError("partition-stats needs a partition spec")
    rng_channel, rng_tree, _ = _block_rngs(cfg.seed, 0, 0)
    _, _, _, code, tree = _block_setup(cfg, cfg.snr_db[0], rng_channel, rng_tree)
    n_pre, n_wmd, n_total = estimate_complexity(cfg.partition, cfg.m, cfg.n_users)
    lines = [
        f"partition {cfg.partition.label()} over {code.size} codewords",
        tree_stats(tree).rstrip("\n"),
        f"predicted comparisons: n_pre={n_pre} n_wmd={n_wmd} n_total={n_total} "
        f"(full search {code.size})",
    ]
    return "\n".join(lines) + "\n"


def render_csv(rows, header: str) -> str:
    return "\n".join([header] + [r.to_csv() for r in rows]) + "\n"


def write_results(path: str, rows, header: str, cfg: SimConfig) -> None:
    """CSV body plus a .meta.json sidecar holding config and wall times.

    Timings stay out of the CSV so identical configurations reproduce it
    byte for byte.
    """
    with open(path, "w", encoding="ascii") as fh:
        fh.write(render_csv(rows, header))
    walls = [
        (r.row.wall_time_s if isinstance(r, SweepRow) else r.wall_time_s) for r in rows
    ]
    meta = {
        "config": cfg.to_dict(),
        "package_version": PACKAGE_VERSION,
        "row_wall_time_s": walls,
        "total_wall_time_s": sum(walls),
    }
    with open(path + ".meta.json", "w", encoding="ascii") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
