"""Simulation configuration and result records.

A run is described by a SimConfig; configs load from JSON files whose keys
mirror the dataclass fields one-for-one, and every field can be overridden
from the command line.  A SimConfig is checked as it is built (by
``__post_init__``, so ``dataclasses.replace`` re-checks too): each scalar
field against its type and its ``FIELD_RULES`` entry, then the rules that
tie fields together.  It holds only plain Python values that some run kind
accepts; the analytic subcommands therefore take every detector, and the
runners in ``sim`` add what their run kind needs (a detector of that kind,
an LDPC code that fits the block).

This is the one module that knows the CSV format.  Each row class declares
its columns once, as ``COLUMNS``, and its ``HEADER`` joins them; a
``SweepRow`` is a ``ResultRow`` led by its arm's four columns
(``ARM_COLUMNS``, all that ``complexity_csv`` prints).  Every cell follows
one rule: a string as is, an integer in full, any other number at six
significant digits.  Wall-clock timings live in the sidecar metadata so
repeated runs produce identical CSV bytes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .core import bits_per_symbol
from .errors import ConfigurationError
from .ldpc import MAX_LDPC_N
from .partition import PartitionParams, estimate_complexity, is_int, require_valid_params

DETECTORS = ("wmd", "soft-wmd", "md", "ml", "zf")
CSIR_MODES = ("perfect", "estimated")

# Largest codebook, in codewords times bits (m**n_users * 2*n_rx): the code
# build holds several float64 arrays of this many entries, 128 MiB each at
# the bound.
MAX_CODEBOOK_ENTRIES = 2**24

# Largest coherence block, in slots times entries per slot
# (t_c * max(n_users * log2(m), 2*n_rx)): a block holds its (t_d, n_users)
# sent and decided digits and their (t_d, n_users, log2 m) bit tables, the
# (n_users, t_t) pilot matrix and the (t_t, 2*n_rx) pilot observations with
# their float copies, 128 MiB each at the bound.
MAX_BLOCK_ENTRIES = 2**24

# Most worker processes: under the fork start method a ProcessPoolExecutor
# starts all of them at its first submit.
MAX_WORKERS = 256

# Most blocks per wave: Executor.map submits every block of a wave as a
# future before it yields the first result (CPython 3.11's
# concurrent.futures._base.Executor.map builds the list
# ``[self.submit(fn, *args) for args in zip(*iterables)]``), so a wave's
# futures are all held at once.  This keeps MAX_WORKERS workers 16 deep.
MAX_WAVE = 4096


def parse_partition(value) -> PartitionParams | None:
    """Accept and check None/"full", PartitionParams, {"k":…,"q":…}, [k_list, q_list] or JSON."""
    if isinstance(value, str) and value != "full":
        try:
            value = json.loads(value)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"cannot parse partition spec {value!r}: {exc}") from exc
    if value is None or (isinstance(value, str) and value == "full"):
        return None
    if isinstance(value, dict):
        value = value.get("k"), value.get("q")
    if not isinstance(value, PartitionParams):
        pair = isinstance(value, (list, tuple)) and len(value) == 2
        if not (pair and all(isinstance(v, (list, tuple)) for v in value)):
            raise ConfigurationError(f"partition spec must give k and q as lists, got {value!r}")
        value = PartitionParams(*value)
    require_valid_params(value)
    return value


def require_ldpc_fit(n: int, m: int, t_d: int, frames_per_block: int | None) -> int:
    """Frames per block; reject a blocklength that is not whole symbols, or frames that overrun t_d.

    ``frames_per_block`` None means the default, as many whole frames as fit
    in t_d and at least one.
    """
    q = bits_per_symbol(m)
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


def _is_real(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


_KINDS = {
    int: ("an integer", is_int),
    float: ("a number", _is_real),
    str: ("a string", lambda v: isinstance(v, str)),
}


# The rule of each constrained scalar field: an inclusive integer range or
# the allowed strings.  Rules that tie fields together stay in __post_init__.
FIELD_RULES = {
    "n_users": (1, math.inf),
    "n_rx": (1, math.inf),
    "t_t": (0, math.inf),
    "t_d": (1, math.inf),
    "csir": CSIR_MODES,
    "detector": DETECTORS,
    "ldpc_n": (1, MAX_LDPC_N),
    "ldpc_seed": (0, math.inf),
    "ldpc_max_iter": (1, math.inf),
    "frames_per_block": (1, math.inf),
    "trials": (1, math.inf),
    "target_errors": (1, math.inf),
    "seed": (0, math.inf),
    "workers": (1, MAX_WORKERS),
    "wave": (1, MAX_WAVE),
}


def _describe(noun: str, rule) -> str:
    if rule is None:
        return noun
    if isinstance(rule[0], str):
        return "one of " + ", ".join(rule)
    lo, hi = rule
    return f"{noun} >= {lo}" if hi == math.inf else f"{noun} in {lo}..{hi}"


def require_field_types(cfg) -> None:
    """Reject a scalar field of the wrong type or outside its FIELD_RULES entry, e.g. a float
    m or trials=0, and store each field as a plain Python int, float or str."""
    for name, (kind, optional) in FIELD_TYPES.items():
        value = getattr(cfg, name)
        if value is None and optional:
            continue
        noun, accepts = _KINDS[kind]
        rule = FIELD_RULES.get(name)
        if not accepts(value) or (
            rule and not (value in rule if isinstance(value, str) else rule[0] <= value <= rule[1])
        ):
            raise ConfigurationError(f"{name} must be {_describe(noun, rule)}, got {value!r}")
        try:
            setattr(cfg, name, kind(value))
        except OverflowError as exc:  # an int beyond float range
            raise ConfigurationError(f"{name} must be a float, got {value!r}") from exc


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
        if self.m < 4 or (self.m & (self.m - 1)) or bits_per_symbol(self.m) % 2:
            raise ConfigurationError(f"m must be an even power of 2 and >= 4, got {self.m}")
        # log2 of the codeword count; testing it first keeps a huge n_users
        # from building a huge integer
        codeword_bits = self.n_users * bits_per_symbol(self.m)
        if (
            codeword_bits >= MAX_CODEBOOK_ENTRIES.bit_length()
            or (1 << codeword_bits) * 2 * self.n_rx > MAX_CODEBOOK_ENTRIES
        ):
            raise ConfigurationError(
                f"codebook of {self.m}**{self.n_users} codewords x {2 * self.n_rx} bits "
                f"exceeds {MAX_CODEBOOK_ENTRIES} entries"
            )
        if self.csir == "estimated" and (self.t_t < self.n_users or self.t_t % self.n_users):
            raise ConfigurationError(
                f"estimated CSIR needs t_t to be a positive multiple of n_users={self.n_users} "
                f"pilot slots, got t_t={self.t_t}"
            )
        if self.t_c != self.t_t + self.t_d:
            raise ConfigurationError(
                f"coherence block must split exactly: t_c={self.t_c} != "
                f"t_t={self.t_t} + t_d={self.t_d}"
            )
        slot_entries = max(self.n_users * bits_per_symbol(self.m), 2 * self.n_rx)
        if self.t_c * slot_entries > MAX_BLOCK_ENTRIES:
            raise ConfigurationError(
                f"coherence block of t_c={self.t_c} slots x {slot_entries} entries "
                f"exceeds {MAX_BLOCK_ENTRIES} entries"
            )
        if self.partition is not None and self.detector == "zf":
            raise ConfigurationError("zf detection searches no codebook, so it takes no partition")

    def require_seed(self) -> None:
        if self.seed is None:
            raise ConfigurationError("result-producing runs require an explicit seed")

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
        except (OSError, UnicodeDecodeError) as exc:
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
# and the CLI types its same-name flags by them.  An integer field takes any
# integer, numpy's too (not a bool), a float field any real number, a str field
# a str; an optional field also takes None.  Read once here, since
# get_type_hints costs far more than building a config.
FIELD_TYPES = _scalar_field_types(SimConfig)


def csv_line(values) -> str:
    """One CSV line by the one cell rule: a string as is, an integer in full,
    any other number at six significant digits."""
    return ",".join(
        v if isinstance(v, str) else str(v) if isinstance(v, Integral) else f"{v:.6g}"
        for v in values
    )


@dataclass
class ResultRow:
    """One operating point's result; its CSV line is the COLUMNS fields in order."""

    COLUMNS: typing.ClassVar[tuple] = (
        "snr_db", "detector", "metric", "rate", "errors", "trials", "denominator",
        "mean_candidates",
    )
    HEADER: typing.ClassVar[str] = ",".join(COLUMNS)

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
        return csv_line(getattr(self, name) for name in self.COLUMNS)


# A partition arm's cells, which lead its sweep rows and are all that the
# complexity subcommand prints.
ARM_COLUMNS = ("partition", "n_pre", "n_wmd", "n_total")


@dataclass(kw_only=True)
class SweepRow(ResultRow):
    """A ResultRow led by its arm's four columns; the detector is the config's and not printed."""

    COLUMNS = ARM_COLUMNS + tuple(c for c in ResultRow.COLUMNS if c != "detector")
    HEADER = ",".join(COLUMNS)

    partition: str  # label, "full" for the unpartitioned arm
    n_pre: int
    n_wmd: int | float  # a fraction when prod(k) does not divide m**K * q[-1]
    n_total: int | float


CSV_HEADER = ResultRow.HEADER
SWEEP_CSV_HEADER = SweepRow.HEADER


def arm_cells(cfg: SimConfig) -> dict:
    """The ARM_COLUMNS of cfg's partition: its label and ``estimate_complexity``'s counts."""
    label = "full" if cfg.partition is None else cfg.partition.label()
    counts = estimate_complexity(cfg.partition, cfg.m, cfg.n_users)
    return dict(zip(ARM_COLUMNS, (label, *counts)))


def complexity_csv(cfg: SimConfig) -> str:
    """The ``complexity`` subcommand's CSV: the ARM_COLUMNS header over cfg's arm cells."""
    return ",".join(ARM_COLUMNS) + "\n" + csv_line(arm_cells(cfg).values()) + "\n"
