"""Command-line front end.

The five subcommands are declared once, in ``_COMMANDS``: each builds one
config from its flags and makes one call on it.

Every run can start from a JSON config file whose keys mirror the SimConfig
fields, and every field has a same-name flag, typed by its annotation, that
overrides the file value; each experiment script is its presets, its arms
and one ``compare`` call, which takes the same flags.  Exit codes: 0 success,
2 configuration problems (unreadable or unwritable files included), 3 numerical failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys

import numpy as np

from .config import DETECTORS, FIELD_TYPES, SimConfig, complexity_csv
from .errors import CodeConstructionError, ConfigurationError
from .sim import (
    partition_report,
    run_arms,
    run_coded,
    run_partition_sweep,
    run_uncoded,
    write_results,
    write_text,
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
    # what starts like a negative number is a value, so --snr_db -2,0 reads as
    # --snr_db=-2,0 on every Python, as newer argparse releases read it themselves
    p._negative_number_matcher = re.compile(r"-\.?\d")
    p.add_argument("--config", help="JSON config file; flags below override it")
    for name, (kind, _) in FIELD_TYPES.items():
        p.add_argument(f"--{name}", type=kind)
    p.add_argument("--snr_db", type=_parse_snr_list, help="comma-separated dB values")
    p.add_argument("--partition", help="'full' or JSON like {\"k\":[8,8],\"q\":[4,16]}")


def build_config(args: argparse.Namespace, presets: dict | None = None) -> SimConfig:
    """The config of presets, overlaid by the ``--config`` file, overlaid by the flags given.

    An ``output`` that cannot be written, or whose sidecar path is a directory,
    is rejected here, before any run; the files are opened once the run is done.
    """
    data = dict(presets or {})
    if args.config:
        data.update(SimConfig.from_json(args.config))
    for field in dataclasses.fields(SimConfig):
        value = getattr(args, field.name)
        if value is not None:
            data[field.name] = value
    cfg = SimConfig.from_dict(data)
    if cfg.output:
        folder = os.path.dirname(cfg.output) or "."
        for path in (cfg.output, cfg.output + ".meta.json"):  # the file and its sidecar
            if os.path.isdir(path):
                raise ConfigurationError(f"output {path} is a directory")
        if not (os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)):
            raise ConfigurationError(f"output {cfg.output}: no writable directory {folder}")
    return cfg


def _arms_config(args: argparse.Namespace, presets: dict, field: str, arms: str) -> SimConfig:
    """``build_config``'s config, reading the file once and refusing ``field``, which every
    arm sets, from the flags or the file: the arms would drop it."""
    from_file = SimConfig.from_json(args.config) if args.config else {}
    if getattr(args, field) is not None or field in from_file:
        raise ConfigurationError(f"the arms are {arms}: --{field} and a config file's {field} "
                                 "are not taken")
    args.config = None  # read once, above: build_config lays the flags over presets and file
    return build_config(args, {**presets, **from_file})


def _sweep_specs(args: argparse.Namespace) -> list:
    try:
        sweep = json.loads(args.sweep)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"--sweep is not valid JSON: {exc}") from exc
    if not isinstance(sweep, list):
        raise ConfigurationError("--sweep must be a JSON list of partition specs")
    return sweep


# Each subcommand's help and the one call it makes on the built config, in
# the order the help lists them.
_COMMANDS = {
    "uncoded": (
        "uncoded BER versus SNR",
        lambda cfg, args: write_results(run_uncoded(cfg), cfg),
    ),
    "coded": (
        "LDPC frame error rate versus SNR",
        lambda cfg, args: write_results(run_coded(cfg), cfg),
    ),
    "partition-sweep": (
        "paired BER and complexity over partition specs",
        lambda cfg, args: write_results(run_partition_sweep(cfg, _sweep_specs(args)), cfg),
    ),
    "partition-stats": (
        "tree shape for one sampled block",
        lambda cfg, args: write_text(partition_report(cfg), cfg),
    ),
    "complexity": (
        "closed-form comparison counts",
        lambda cfg, args: write_text(complexity_csv(cfg), cfg),
    ),
}


def _run(args: argparse.Namespace) -> int:
    if args.command == "partition-sweep":
        cfg = _arms_config(args, {}, "partition", "the --sweep specs")
    else:
        cfg = build_config(args)
    _COMMANDS[args.command][1](cfg, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onebit-mimo",
        description="Monte Carlo simulator for one-bit massive MIMO detection",
    )
    sub = parser.add_subparsers(dest="command")
    for name, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_config_flags(p)
        if name == "partition-sweep":
            p.add_argument(
                "--sweep",
                required=True,
                help="JSON list of partition specs, e.g. '[\"full\", {\"k\":[8],\"q\":[4]}]'",
            )
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


def compare(doc: str, presets: dict, detectors, metric: str, argv=None) -> int:
    """A script's run: one arm per detector over ``presets``, paired by the seed, as one CSV.

    Each arm sets its detector, so ``--detector`` and a config file's
    ``detector`` are refused; an arm keeps ``--partition`` unless its
    detector searches no codebook (its kind in ``config.DETECTORS``).
    """
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    add_config_flags(parser)

    def run(args: argparse.Namespace) -> int:
        base = _arms_config(args, presets, "detector", ", ".join(detectors))
        linear = {d for d, spec in DETECTORS.items() if spec.kind == "linear"}
        arms = [{"detector": d, "partition": None if d in linear else base.partition}
                for d in detectors]
        write_results([row for _, rows in run_arms(base, arms, metric) for row in rows], base)
        return 0

    return guarded(run, parser.parse_args(argv))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    return guarded(_run, args)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
