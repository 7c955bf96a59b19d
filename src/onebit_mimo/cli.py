"""Command-line front end.

Subcommands: ``uncoded`` (BER sweep), ``coded`` (FER sweep), ``partition-sweep``
(paired BER/complexity rows per partition spec), ``partition-stats`` (tree
report for one sampled block), ``complexity`` (closed-form counts only).

Every run can start from a JSON config file whose keys mirror the SimConfig
fields, and every field has a same-name flag, typed by its annotation, that
overrides the file value; the scripts share them through ``add_config_flags``,
``build_config`` and ``guarded``.  Exit codes: 0 success, 2 configuration
problems (unreadable or unwritable files included), 3 numerical failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .config import CSV_HEADER, FIELD_TYPES, SWEEP_CSV_HEADER, SimConfig
from .errors import CodeConstructionError, ConfigurationError
from .partition import estimate_complexity
from .sim import (
    partition_report,
    run_coded,
    run_partition_sweep,
    run_uncoded,
    write_results,
)


def _parse_snr_list(text: str) -> tuple:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad SNR list {text!r}: {exc}") from exc
    if not values:
        raise argparse.ArgumentTypeError("SNR list is empty")
    return values


def add_config_flags(p: argparse.ArgumentParser) -> None:
    """``--config`` and one same-name flag per SimConfig field, typed by its annotation."""
    p.add_argument("--config", help="JSON config file; flags below override it")
    for name, (kind, _) in FIELD_TYPES.items():
        p.add_argument(f"--{name}", type=kind)
    p.add_argument("--snr_db", type=_parse_snr_list, help="comma-separated dB values")
    p.add_argument("--partition", help="'full' or JSON like {\"k\":[8,8],\"q\":[4,16]}")


def build_config(args: argparse.Namespace, presets: dict | None = None) -> SimConfig:
    """The config of presets, overlaid by the ``--config`` file, overlaid by the flags given."""
    data = dict(presets or {})
    if args.config:
        data.update(SimConfig.from_json(args.config))
    for field in dataclasses.fields(SimConfig):
        value = getattr(args, field.name)
        if value is not None:
            data[field.name] = value
    return SimConfig.from_dict(data)


def _emit_text(cfg: SimConfig, text: str) -> None:
    if cfg.output:
        with open(cfg.output, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_uncoded(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    write_results(cfg.output, run_uncoded(cfg), CSV_HEADER, cfg)
    return 0


def _cmd_coded(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    write_results(cfg.output, run_coded(cfg), CSV_HEADER, cfg)
    return 0


def _cmd_partition_sweep(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    try:
        sweep = json.loads(args.sweep)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"--sweep is not valid JSON: {exc}") from exc
    if not isinstance(sweep, list):
        raise ConfigurationError("--sweep must be a JSON list of partition specs")
    write_results(cfg.output, run_partition_sweep(cfg, sweep), SWEEP_CSV_HEADER, cfg)
    return 0


def _cmd_partition_stats(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    _emit_text(cfg, partition_report(cfg))
    return 0


def _cmd_complexity(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    n_pre, n_wmd, n_total = estimate_complexity(cfg.partition, cfg.m, cfg.n_users)
    label = cfg.partition.label() if cfg.partition is not None else "full"
    _emit_text(
        cfg,
        "partition,n_pre,n_wmd,n_total\n" + f"{label},{n_pre},{n_wmd},{n_total}\n",
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onebit-mimo",
        description="Monte Carlo simulator for one-bit massive MIMO detection",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("uncoded", help="uncoded BER versus SNR")
    add_config_flags(p)
    p.set_defaults(handler=_cmd_uncoded)

    p = sub.add_parser("coded", help="LDPC frame error rate versus SNR")
    add_config_flags(p)
    p.set_defaults(handler=_cmd_coded)

    p = sub.add_parser(
        "partition-sweep", help="paired BER and complexity over partition specs"
    )
    add_config_flags(p)
    p.add_argument(
        "--sweep",
        required=True,
        help="JSON list of partition specs, e.g. '[\"full\", {\"k\":[8],\"q\":[4]}]'",
    )
    p.set_defaults(handler=_cmd_partition_sweep)

    p = sub.add_parser("partition-stats", help="tree shape for one sampled block")
    add_config_flags(p)
    p.set_defaults(handler=_cmd_partition_stats)

    p = sub.add_parser("complexity", help="closed-form comparison counts")
    add_config_flags(p)
    p.set_defaults(handler=_cmd_complexity)

    return parser


def guarded(handler, args: argparse.Namespace) -> int:
    """``handler(args)``'s exit code, or 2 for a bad config or file, 3 for a numerical failure."""
    try:
        return handler(args)
    except (ConfigurationError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (
        np.linalg.LinAlgError,
        FloatingPointError,
        OverflowError,
        CodeConstructionError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "handler", None) is None:
        parser.print_help(sys.stderr)
        return 2
    return guarded(args.handler, args)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
