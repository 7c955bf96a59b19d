"""Soft-output weighted-minimum-distance detection for one-bit massive MIMO.

The uplink with one-bit ADCs turns each multiuser message into a binary
spatial-domain codeword observed through per-position binary channels; this
package builds that code, decodes it exactly or through a pruned hierarchical
partition, produces soft output for an outer LDPC code, and measures BER/FER
in a reproducible Monte Carlo harness.
"""

__version__ = "0.1.0"  # before the submodule imports: sim records it in each sidecar

from .channel import (
    NOISE_STD,
    estimate_channel_zf,
    generate_pilots,
    quantize,
    sample_rayleigh,
    transmit,
    transmit_pilots,
)
from .config import (
    CSV_HEADER,
    SWEEP_CSV_HEADER,
    ResultRow,
    SimConfig,
    SweepRow,
    parse_partition,
)
from .core import (
    Constellation,
    all_message_digits,
    bit_table,
    modulate,
    q_function,
    qam_constellation,
    real_channel_matrix,
    real_stack,
)
from .detector import (
    LLR_CLAMP,
    compute_app,
    compute_llrs,
    md_decode,
    ml_decode,
    wmd_decode,
    zf_detect,
)
from .errors import CodeConstructionError, ConfigurationError
from .ldpc import (
    LdpcCode,
    code_from_parity_check,
    construct_code,
    decode_bit_flipping,
    decode_bp,
    encode,
    load_alist,
    parse_alist,
    save_alist,
    syndrome,
    write_alist,
)
from .partition import (
    PartitionParams,
    PartitionTree,
    build_partition_tree,
    estimate_complexity,
    kmeans_hamming,
    preprocess,
    tree_stats,
    validate_params,
)
from .sim import (
    partition_report,
    render_csv,
    run_coded,
    run_partition_sweep,
    run_uncoded,
    write_results,
)
from .spatial_code import (
    MismatchScore,
    SpatialCode,
    build_code,
    exact_likelihood,
    subcode,
    weighted_hamming,
)

__all__ = [
    "NOISE_STD",
    "LLR_CLAMP",
    "CSV_HEADER",
    "SWEEP_CSV_HEADER",
    "Constellation",
    "SpatialCode",
    "MismatchScore",
    "PartitionParams",
    "PartitionTree",
    "LdpcCode",
    "SimConfig",
    "ResultRow",
    "SweepRow",
    "ConfigurationError",
    "CodeConstructionError",
    "all_message_digits",
    "bit_table",
    "qam_constellation",
    "modulate",
    "real_stack",
    "real_channel_matrix",
    "q_function",
    "sample_rayleigh",
    "quantize",
    "transmit",
    "generate_pilots",
    "transmit_pilots",
    "estimate_channel_zf",
    "build_code",
    "exact_likelihood",
    "subcode",
    "weighted_hamming",
    "wmd_decode",
    "md_decode",
    "ml_decode",
    "zf_detect",
    "compute_app",
    "compute_llrs",
    "validate_params",
    "kmeans_hamming",
    "build_partition_tree",
    "preprocess",
    "estimate_complexity",
    "tree_stats",
    "construct_code",
    "code_from_parity_check",
    "encode",
    "syndrome",
    "decode_bp",
    "decode_bit_flipping",
    "write_alist",
    "parse_alist",
    "save_alist",
    "load_alist",
    "parse_partition",
    "run_uncoded",
    "run_coded",
    "run_partition_sweep",
    "partition_report",
    "render_csv",
    "write_results",
]
