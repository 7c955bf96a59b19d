"""Simulation configuration and result records.

A run is described by a SimConfig; configs load from JSON files whose keys
mirror the dataclass fields one-for-one, and every field can be overridden
from the command line.  A SimConfig is checked as it is built (by
``__post_init__``, so ``dataclasses.replace`` re-checks too): each scalar
field against its type and its ``FIELD_RULES`` entry, then the rules that
tie fields together.  No field restates others: the coherence block is
``t_t + t_d`` slots, and ``t_c`` may be omitted (None) or must equal that
sum; a given ``frames_per_block`` must equal the LDPC frames that fit t_d.
It holds only plain Python values that some run kind accepts; the analytic
subcommands therefore take every detector, and the runners in ``sim`` add
what their run kind needs (a detector of that kind, an LDPC code that fits).

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
from .ldpc import DESIGN_RATE, MAX_LDPC_N
from .partition import PartitionParams, estimate_complexity, is_int, require_valid_params

# Each detector by its kind and the SpatialCode score it reads, the one place a
# detector's name says what it does.  A "hard" or "soft" detector searches the code
# by its score, so it takes a partition; a soft one's slot output is MSB-first LLRs,
# which only a coded run takes and BP decodes.  A "linear" one (ZF) reads no score.
Detector = typing.NamedTuple("Detector", [("kind", str), ("score", str | None)])
DETECTORS = {"wmd": Detector("hard", "wh"), "soft-wmd": Detector("soft", "wh"),
             "md": Detector("hard", "hamming"), "ml": Detector("hard", "nll"),
             "zf": Detector("linear", None)}
CSIR_MODES = ("perfect", "estimated")

# Largest codebook, in codewords times bits (m**n_users * 2*n_rx): the code
# build holds several float64 arrays of this many entries, 128 MiB each at
# the bound.
MAX_CODEBOOK_ENTRIES = 2**24

# Largest coherence block, in its t_t + t_d slots times entries per slot
# (max(n_users * log2(m), 2*n_rx)): a block holds its (t_d, n_users)
# sent and decided digits and their (t_d, n_users, log2 m) bit tables, its
# (t_d, 2*n_rx) uint8 data observations, the (n_users, t_t) pilot matrix and
# the (t_t, 2*n_rx) pilot observations with their float copies, 128 MiB each
# at the bound (16 MiB for the uint8 observations).
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
    """Accept and check None/"full", PartitionParams, a {"k": […], "q": […]} mapping or JSON."""
    if isinstance(value, str) and value != "full":
        try:
            value = json.loads(value)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"cannot parse partition spec {value!r}: {exc}") from exc
    if value is None or (isinstance(value, str) and value == "full"):
        return None
    if isinstance(value, dict):
        if unknown := set(value) - {"k", "q"}:
            raise ConfigurationError(f"unknown partition keys: {sorted(unknown, key=str)}")
        k, q = value.get("k"), value.get("q")
        if isinstance(k, (list, tuple)) and isinstance(q, (list, tuple)):
            value = PartitionParams(k, q)
    if not isinstance(value, PartitionParams):
        raise ConfigurationError(f"partition spec must give k and q as lists, got {value!r}")
    require_valid_params(value)
    return value


def require_ldpc_fit(n: int, m: int, t_d: int, frames_per_block: int | None) -> int:
    """The ``t_d // (n/q)`` whole frames that fit t_d; refuses a blocklength that is not whole
    symbols, a t_d that holds no frame, or a given frames_per_block other than that count."""
    q = bits_per_symbol(m)
    if n % q:
        raise ConfigurationError(
            f"LDPC blocklength {n} is not a multiple of the {q} bits per symbol"
        )
    slots = n // q
    frames = t_d // slots
    if frames < 1:
        raise ConfigurationError(f"a frame of {slots} slots does not fit t_d={t_d}")
    if frames_per_block not in (None, frames):
        raise ConfigurationError(
            f"frames_per_block={frames_per_block} != the {frames} whole frame(s) of {slots} "
            f"slots that fit t_d={t_d}"
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
    "detector": tuple(DETECTORS),
    "ldpc_n": (1, MAX_LDPC_N),
    "ldpc_seed": (0, math.inf),
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
    m or trials=0, and store each field as a plain Python int or str."""
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
        setattr(cfg, name, kind(value))


@dataclass
class SimConfig:
    """Everything a Monte Carlo run needs, minus the subcommand choice."""

    n_users: int = 4
    n_rx: int = 32
    m: int = 4
    snr_db: tuple = (10.0,)
    t_c: int | None = None  # the block is t_t + t_d slots; a given t_c must equal it
    t_t: int = 0
    t_d: int = 1000
    csir: str = "perfect"
    detector: str = "wmd"
    partition: PartitionParams | None = None
    ldpc_n: int = 672
    ldpc_seed: int = 7
    ldpc_alist: str | None = None
    frames_per_block: int | None = None  # the frames that fit t_d; a given value must equal it
    trials: int = 10000
    target_errors: int = 100
    seed: int | None = None
    workers: int = 1
    wave: int = 8
    output: str | None = None

    def __post_init__(self):
        """Normalise snr_db and the partition, then reject a config no run kind accepts."""
        snr = self.snr_db
        if isinstance(snr, np.ndarray) and snr.ndim == 0:  # one operating point, as a number
            snr = snr.item()
        values = (snr,) if _is_real(snr) else snr
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
        t_c = self.t_t + self.t_d
        if self.t_c not in (None, t_c):
            raise ConfigurationError(
                f"coherence block must split exactly: t_c={self.t_c} != "
                f"t_t={self.t_t} + t_d={self.t_d}"
            )
        slot_entries = max(self.n_users * bits_per_symbol(self.m), 2 * self.n_rx)
        if t_c * slot_entries > MAX_BLOCK_ENTRIES:
            raise ConfigurationError(
                f"coherence block of t_c={t_c} slots x {slot_entries} entries "
                f"exceeds {MAX_BLOCK_ENTRIES} entries"
            )
        if self.partition is not None and DETECTORS[self.detector].kind == "linear":
            raise ConfigurationError(f"{self.detector} detection searches no codebook, so it "
                                     "takes no partition")

    # read only by bench/workloads.py; ROADMAP item 1 (benchmark v2) drops it with CSV_HEADER
    @property
    def ldpc_rate(self) -> float:
        """The design rate of every constructed LDPC code, ``ldpc.DESIGN_RATE``."""
        return DESIGN_RATE

    def require_runnable(self) -> None:
        """What a run that draws blocks needs beyond the config's own checks: an explicit
        seed, and no more partition leaves (the product of k) than codewords.

        The ``complexity`` counts draw no block, so they take any partition.
        """
        if self.seed is None:
            raise ConfigurationError("result-producing runs require an explicit seed")
        if self.partition is not None:
            leaves, codewords = math.prod(self.partition.k), self.m**self.n_users
            if leaves > codewords:
                raise ConfigurationError(
                    f"partition {self.partition.label()} has {leaves} leaves (the product of "
                    f"k), more than the {self.m}**{self.n_users} = {codewords} codewords"
                )

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
    """{name: (kind, optional)} for each int or str field, from its annotation."""
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
# integer, numpy's too (not a bool), a str field a str; an optional field
# also takes None.  Read once here, since get_type_hints costs far more than
# building a config.
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
