"""Simulation configuration and result records.

A run is described by a SimConfig; configs load from JSON files whose keys
mirror the dataclass fields one-for-one, and every field can be overridden
from the command line.  A SimConfig is checked as it is built (by
``__post_init__``, so ``dataclasses.replace`` re-checks too) and holds only
values that some run kind accepts; the analytic subcommands therefore take
every detector, and the runners in ``sim`` add what their run kind needs (a
detector of that kind, an LDPC code that fits the block).  Result rows
serialize to CSV with rates printed at six significant digits alongside the
raw integer counts; wall-clock timings live in the sidecar metadata so
repeated runs produce identical CSV bytes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import ConfigurationError
from .partition import PartitionParams, require_valid_params

DETECTORS = ("wmd", "soft-wmd", "md", "ml", "zf")
CSIR_MODES = ("perfect", "estimated")

# Largest codebook, in codewords times bits (m**n_users * 2*n_rx): the code
# build holds several float64 arrays of this many entries, 128 MiB each at
# the bound.
MAX_CODEBOOK_ENTRIES = 2**24

# Most worker processes: under the fork start method a ProcessPoolExecutor
# starts all of them at its first submit.
MAX_WORKERS = 256

CSV_HEADER = "snr_db,detector,metric,rate,errors,trials,denominator,mean_candidates"
SWEEP_CSV_HEADER = (
    "partition,n_pre,n_wmd,n_total,snr_db,metric,rate,errors,trials,denominator,mean_candidates"
)


def parse_partition(value) -> PartitionParams | None:
    """Accept and check None/"full", PartitionParams, {"k":…,"q":…} or [k_list, q_list]."""
    if value is None or value == "full":
        return None
    if isinstance(value, str):
        try:
            value = json.loads(value)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"cannot parse partition spec {value!r}: {exc}") from exc
        return parse_partition(value)
    if isinstance(value, PartitionParams):
        k, q = value.k, value.q
    elif isinstance(value, dict):
        k, q = value.get("k"), value.get("q")
    elif isinstance(value, (list, tuple)) and len(value) == 2:
        k, q = value
    else:
        raise ConfigurationError(f"unrecognized partition spec: {value!r}")
    if not all(isinstance(v, (list, tuple)) for v in (k, q)):
        raise ConfigurationError(f"partition k and q must be lists of integers: {value!r}")
    params = value if isinstance(value, PartitionParams) else PartitionParams(tuple(k), tuple(q))
    require_valid_params(params)
    return params


def require_ldpc_fit(n: int, m: int, t_d: int, frames_per_block: int | None) -> int:
    """Frames per block; reject a blocklength that is not whole symbols, or frames that overrun t_d.

    ``frames_per_block`` None means the default, as many whole frames as fit
    in t_d and at least one.
    """
    q = m.bit_length() - 1
    if n % q:
        raise ConfigurationError(
            f"LDPC blocklength {n} is not a multiple of the {q} bits per symbol"
        )
    frames = frames_per_block or max(1, t_d // (n // q))
    if frames * (n // q) > t_d:
        raise ConfigurationError(
            f"{frames} frame(s) of {n // q} slots span {frames * (n // q)} slots but t_d={t_d}"
        )
    return frames


def snr_linear(snr_db) -> float:
    """The linear SNR ``10 ** (snr_db / 10)``, rejected unless a positive finite float."""
    try:
        snr = 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:  # a dB value or a linear SNR beyond float range
        snr = math.inf
    if not 0.0 < snr < math.inf:  # false for nan too
        raise ConfigurationError(
            f"snr_db must give a positive finite linear SNR 10**(snr_db/10), got {snr_db!r}"
        )
    return snr


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


_KINDS = {
    int: ("an integer", _is_int),
    float: ("a number", _is_real),
    str: ("a string", lambda v: isinstance(v, str)),
}


def require_field_types(cfg) -> None:
    """Reject a scalar field whose value has the wrong type, e.g. a float m."""
    for name, (kind, optional) in FIELD_TYPES.items():
        value = getattr(cfg, name)
        noun, accepts = _KINDS[kind]
        if not (accepts(value) or (value is None and optional)):
            raise ConfigurationError(f"{name} must be {noun}, got {value!r}")


def partition_to_json(params: PartitionParams | None):
    if params is None:
        return None
    return {"k": list(params.k), "q": list(params.q)}


@dataclass
class SimConfig:
    """Everything a Monte Carlo run needs, minus the subcommand choice."""

    n_users: int = 4
    n_rx: int = 32
    m: int = 4
    snr_db: tuple = (10.0,)
    t_c: int = 1000
    t_t: int = 0
    t_d: int = 1000
    csir: str = "perfect"
    detector: str = "wmd"
    partition: PartitionParams | None = None
    ldpc_n: int = 672
    ldpc_rate: float = 0.5
    ldpc_seed: int = 7
    ldpc_max_iter: int = 50
    ldpc_alist: str | None = None
    frames_per_block: int | None = None  # default: fill t_d with whole frames
    trials: int = 10000
    target_errors: int = 100
    seed: int | None = None
    workers: int = 1
    wave: int = 8
    output: str | None = None

    def __post_init__(self):
        """Normalise snr_db and the partition, then reject a config no run kind accepts."""
        values = (self.snr_db,) if _is_real(self.snr_db) else self.snr_db
        if not isinstance(values, (list, tuple, np.ndarray)) or not all(map(_is_real, values)):
            raise ConfigurationError(
                f"snr_db must be a number or a list of them, got {self.snr_db!r}"
            )
        for value in values:
            snr_linear(value)
        self.snr_db = tuple(float(v) for v in values)
        if not self.snr_db:
            raise ConfigurationError("snr_db must list at least one operating point")
        self.partition = parse_partition(self.partition)
        require_field_types(self)
        if self.n_users < 1 or self.n_rx < 1:
            raise ConfigurationError("n_users and n_rx must be positive")
        if self.m < 4 or (self.m & (self.m - 1)) or (self.m.bit_length() - 1) % 2:
            raise ConfigurationError(f"m must be an even power of 2 and >= 4, got {self.m}")
        # log2 of the codeword count; testing it first keeps a huge n_users
        # from building a huge integer
        codeword_bits = self.n_users * (self.m.bit_length() - 1)
        if (
            codeword_bits >= MAX_CODEBOOK_ENTRIES.bit_length()
            or (1 << codeword_bits) * 2 * self.n_rx > MAX_CODEBOOK_ENTRIES
        ):
            raise ConfigurationError(
                f"codebook of {self.m}**{self.n_users} codewords x {2 * self.n_rx} bits "
                f"exceeds {MAX_CODEBOOK_ENTRIES} entries"
            )
        if self.detector not in DETECTORS:
            raise ConfigurationError(f"detector must be one of {DETECTORS}, got {self.detector!r}")
        if self.csir not in CSIR_MODES:
            raise ConfigurationError(f"csir must be one of {CSIR_MODES}, got {self.csir!r}")
        if self.csir == "estimated" and (self.t_t < self.n_users or self.t_t % self.n_users):
            raise ConfigurationError(
                f"estimated CSIR needs t_t to be a positive multiple of n_users={self.n_users} "
                f"pilot slots, got t_t={self.t_t}"
            )
        if self.t_t < 0 or self.t_d < 1:
            raise ConfigurationError(
                f"need t_t >= 0 and t_d >= 1, got t_t={self.t_t}, t_d={self.t_d}"
            )
        if self.t_c != self.t_t + self.t_d:
            raise ConfigurationError(
                f"coherence block must split exactly: t_c={self.t_c} != "
                f"t_t={self.t_t} + t_d={self.t_d}"
            )
        if min(self.trials, self.target_errors, self.wave, self.ldpc_max_iter) < 1:
            raise ConfigurationError(
                "trials, target_errors, wave and ldpc_max_iter must be positive"
            )
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ConfigurationError(f"workers must be in 1..{MAX_WORKERS}, got {self.workers}")
        if (self.seed is not None and self.seed < 0) or self.ldpc_seed < 0:
            raise ConfigurationError("seed and ldpc_seed must be non-negative")
        if self.frames_per_block is not None and self.frames_per_block < 1:
            raise ConfigurationError("frames_per_block must be >= 1 when set")
        if self.partition is not None and self.detector == "zf":
            raise ConfigurationError("zf detection searches no codebook, so it takes no partition")

    def require_seed(self) -> None:
        if self.seed is None:
            raise ConfigurationError("result-producing runs require an explicit seed")

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["snr_db"] = list(self.snr_db)
        out["partition"] = partition_to_json(self.partition)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @staticmethod
    def from_json(path) -> dict:
        """The JSON object of a config file, for a caller to overlay and pass to from_dict."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError(f"config {path} must hold a JSON object")
        return data


def _scalar_field_types(cls) -> dict:
    """{name: (kind, optional)} for each int, float or str field, from its annotation."""
    out = {}
    for name, hint in typing.get_type_hints(cls).items():
        kinds = set(typing.get_args(hint)) or {hint}
        optional = type(None) in kinds
        kinds.discard(type(None))
        if len(kinds) == 1 and (kind := kinds.pop()) in _KINDS:
            out[name] = (kind, optional)
    return out


# The one typing of the scalar fields: SimConfig checks them when it is built
# and the CLI types its same-name flags by them.  An integer field takes an int
# (not a bool), a float field any real number, a str field a str; an optional
# field also takes None.  Read once here, since get_type_hints costs far more
# than building a config.
FIELD_TYPES = _scalar_field_types(SimConfig)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _num(x) -> str:
    return str(x) if isinstance(x, (int, np.integer)) else _fmt(x)


@dataclass
class ResultRow:
    snr_db: float
    detector: str
    metric: str  # "ber" or "fer"
    rate: float
    errors: int
    trials: int  # slots (uncoded) or user-frames (coded)
    denominator: int  # bits (ber) or frames (fer); rate = errors/denominator
    mean_candidates: float
    wall_time_s: float = 0.0

    def to_csv(self) -> str:
        return ",".join(
            [
                _fmt(self.snr_db),
                self.detector,
                self.metric,
                _fmt(self.rate),
                str(self.errors),
                str(self.trials),
                str(self.denominator),
                _fmt(self.mean_candidates),
            ]
        )


@dataclass
class SweepRow:
    partition: str  # label, "full" for the unpartitioned arm
    n_pre: int
    n_wmd: int
    n_total: int
    row: ResultRow

    def to_csv(self) -> str:
        return ",".join(
            [
                self.partition,
                _num(self.n_pre),
                _num(self.n_wmd),
                _num(self.n_total),
                _fmt(self.row.snr_db),
                self.row.metric,
                _fmt(self.row.rate),
                str(self.row.errors),
                str(self.row.trials),
                str(self.row.denominator),
                _fmt(self.row.mean_candidates),
            ]
        )
