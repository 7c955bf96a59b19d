"""The benchmark's workloads: fixed-work simulator runs, the counts they
imply, and a fixed reference workload that measures the machine's speed.

Every workload runs in one process with ``workers=1``, one SNR point and
perfect CSIR, and sets ``target_errors`` out of reach, so it always stops on
its trial budget and the config alone fixes the work done.  Importing this
module pins BLAS and OpenMP to one thread, puts the checkout's ``src/``
first on ``sys.path`` and refuses any other copy of ``onebit_mimo``.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
# The default seed, and a held-out seed on which later claims are re-checked.
GOLDEN_SEEDS = (1, 9001)
# A golden run has this many times a timed run's trial budget, enough that
# its error counts and candidate means pin the detector and partition output.
GOLDEN_SCALE = 8
# Above any reachable error count, so no run stops on its error target.
UNREACHABLE_ERRORS = 10**12

THREAD_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# One BLAS/OpenMP thread, set before numpy loads: on a small shared machine
# extra threads add more jitter than speed.
for _var in THREAD_PIN:
    os.environ[_var] = "1"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import onebit_mimo  # noqa: E402
from onebit_mimo import (  # noqa: E402
    CSV_HEADER,
    SWEEP_CSV_HEADER,
    SimConfig,
    construct_code,
    estimate_complexity,
    parse_partition,
    render_csv,
    run_coded,
    run_partition_sweep,
)

if not Path(onebit_mimo.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"onebit_mimo was imported from {onebit_mimo.__file__}, not from {SRC}")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep" or "coded"
    config: dict
    arms: tuple = ()  # partition specs of a sweep, in the config syntax

    def sim_config(self, seed: int, scale: int = 1) -> SimConfig:
        cfg = SimConfig(**self.config, workers=1, target_errors=UNREACHABLE_ERRORS, seed=seed)
        cfg.trials *= scale
        return cfg

    def setup(self) -> None:
        """One-off, per-process work beyond the package import."""
        if self.kind == "coded":
            cfg = self.sim_config(0)
            construct_code(cfg.ldpc_n, cfg.ldpc_rate, cfg.ldpc_seed)

    def run(self, seed: int, scale: int = 1) -> str:
        """Run the workload through the public entry point; return its CSV."""
        cfg = self.sim_config(seed, scale)
        if self.kind == "coded":
            return render_csv(run_coded(cfg), CSV_HEADER)
        return render_csv(run_partition_sweep(cfg, list(self.arms)), SWEEP_CSV_HEADER)

    @property
    def codebook_size(self) -> int:
        return self.config["m"] ** self.config["n_users"]

    def _slots_per_frame(self) -> int:
        return self.config["ldpc_n"] // int(math.log2(self.config["m"]))

    def _trials_per_block(self) -> int:
        """Data slots (sweep) or user-frames (coded) of one block."""
        if self.kind != "coded":
            return self.config["t_d"]
        frames = max(1, self.config["t_d"] // self._slots_per_frame())
        return self.config["n_users"] * frames

    def trials_per_row(self) -> int:
        """The trial budget rounded up to whole waves of blocks."""
        cfg = self.sim_config(0)
        per_wave = self._trials_per_block() * cfg.wave
        return math.ceil(cfg.trials / per_wave) * per_wave

    def expected_calls(self) -> dict:
        """Calls per run into each layer this workload exercises.

        An int is an exact function of the config; None means the count
        depends on the draws but must be nonzero and repeat across runs.
        """
        trials = self.trials_per_row()
        blocks = trials // self._trials_per_block()
        if self.kind == "coded":
            slots = trials // self.config["n_users"] * self._slots_per_frame()
            return {
                "channel.sample_rayleigh": blocks,
                "channel.transmit": slots,
                "spatial_code.build_code": None,
                "detector.compute_llrs": slots,
                "ldpc.encode": None,
                "ldpc.decode_bp": None,
            }
        arms = len(self.arms)
        pruned = sum(spec != "full" for spec in self.arms)
        return {
            "channel.sample_rayleigh": arms * blocks,
            "channel.transmit": arms * trials,
            "spatial_code.build_code": None,
            "partition.build_partition_tree": None,
            "partition.kmeans_hamming": None,
            "partition.preprocess": pruned * trials,
            "detector.wmd_decode": arms * trials,
        }


# Why each workload is here, and what it should and should not react to, is
# recorded beside its name in BENCHMARK.json.  One run of a workload is kept
# short (0.1-0.3 s on a 2.1 GHz Xeon) so that a timed call holds many of
# them, each followed by the reference below (see end_to_end in bench/run.py).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-pruned-k4",
            kind="sweep",
            config=dict(
                n_users=4, n_rx=32, m=4, snr_db=5.0, t_c=500, t_d=500, trials=500, wave=1
            ),
            arms=(
                "full",
                {"k": [16], "q": [8]},
                {"k": [16], "q": [4]},
                {"k": [8, 8], "q": [4, 8]},
            ),
        ),
        Workload(
            name="coded-soft-k3",
            kind="coded",
            config=dict(
                n_users=3,
                n_rx=16,
                m=4,
                snr_db=-2.0,
                t_c=128,
                t_d=128,
                detector="soft-wmd",
                ldpc_n=128,
                trials=120,
                wave=1,
            ),
        ),
    )
}


# Median time of one Reference.time() on the 2-vCPU 2.1 GHz Xeon VM the
# benchmark was defined on.  It anchors every trials_per_s ever reported, so
# neither it nor the reference below may change.
REFERENCE_NOMINAL_S = 0.032


class Reference:
    """A fixed workload that measures how fast the machine runs right now.

    Other tenants of a shared host slow every program on it, for seconds or
    minutes at a time.  Timed between the simulator's runs, this reference
    slows with them, so throughput can be scaled back to nominal speed.  It
    mixes the simulator's kinds of work: an interpreter loop, a sort with a
    Python key over small arrays, masked reductions over small arrays, and
    a BLAS matrix-vector product.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.gain = rng.standard_normal((4096, 64))
        self.r = (rng.random(64) < 0.5).astype(np.float64)
        self.nodes = [
            (tuple(rng.integers(0, 9, 3)), rng.random(64) < 0.5, rng.random(64))
            for _ in range(16)
        ]
        self.masks = rng.random((64, 6, 2)) < 0.5
        self.dist = rng.random(64)[:, None, None]

    def time(self) -> float:
        """Seconds taken by one pass over the reference work."""
        start = time.perf_counter()
        acc = 0
        for i in range(150000):
            acc += i * i
        bits = self.r > 0.5
        for _ in range(150):
            sorted(self.nodes, key=lambda nd: (float(nd[2][nd[1] != bits].sum()), nd[0]))
            min1 = np.min(np.where(self.masks, self.dist, np.inf), axis=0)
            min0 = np.min(np.where(~self.masks, self.dist, np.inf), axis=0)
            np.clip(min1 - min0, -60.0, 60.0)
        for _ in range(40):
            int((self.gain @ self.r).argmin())
        return time.perf_counter() - start


def golden_path(name: str, seed: int) -> Path:
    return GOLDEN_DIR / f"{name}.seed{seed}.csv"


def arm_label(spec) -> str:
    """The sweep's CSV label of a partition spec, as the tracer sees it."""
    params = parse_partition(spec)
    return "full" if params is None else params.label()


def arm_complexity(workload: Workload, spec):
    """estimate_complexity's (n_pre, n_wmd, n_total) for one arm."""
    return estimate_complexity(
        parse_partition(spec), workload.config["m"], workload.config["n_users"]
    )


# Per-arm layer metrics are named after the pruned arms of the sweep.
PRUNED_ARMS = tuple(
    arm_label(spec) for spec in WORKLOADS["sweep-pruned-k4"].arms if spec != "full"
)
