"""Soft-output weighted-minimum-distance detection for one-bit massive MIMO.

The uplink with one-bit ADCs turns each multiuser message into a binary
spatial-domain codeword observed through per-position binary channels; this
package builds that code, decodes it exactly or through a pruned hierarchical
partition, produces soft output for an outer LDPC code, and measures BER/FER
in a reproducible Monte Carlo harness.

The root exports the names that the scripts, the benchmark, the README
example and the acceptance tests import, and nothing more; every other name
is imported from the module that defines it.
"""

__version__ = "0.1.0"  # before the submodule imports: sim records it in each sidecar

from .channel import NOISE_STD, quantize, sample_rayleigh, transmit
from .config import CSV_HEADER, SWEEP_CSV_HEADER, SimConfig, parse_partition
from .core import (
    bit_table,
    modulate,
    q_function,
    qam_constellation,
    real_channel_matrix,
    real_stack,
)
from .detector import compute_app, compute_llrs, ml_decode, wmd_decode
from .ldpc import construct_code
from .partition import (
    PartitionParams,
    build_partition_tree,
    estimate_complexity,
    kmeans_hamming,
    preprocess,
    validate_params,
)
from .sim import render_csv, run_coded, run_partition_sweep, run_uncoded
from .spatial_code import build_code, exact_likelihood, subcode

__all__ = [
    "NOISE_STD",
    "CSV_HEADER",
    "SWEEP_CSV_HEADER",
    "PartitionParams",
    "SimConfig",
    "bit_table",
    "qam_constellation",
    "modulate",
    "real_stack",
    "real_channel_matrix",
    "q_function",
    "sample_rayleigh",
    "quantize",
    "transmit",
    "build_code",
    "exact_likelihood",
    "subcode",
    "wmd_decode",
    "ml_decode",
    "compute_app",
    "compute_llrs",
    "validate_params",
    "kmeans_hamming",
    "build_partition_tree",
    "preprocess",
    "estimate_complexity",
    "construct_code",
    "parse_partition",
    "run_uncoded",
    "run_coded",
    "run_partition_sweep",
    "render_csv",
]
