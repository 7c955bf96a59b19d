#!/usr/bin/env python3
"""Uncoded BER versus SNR for several detectors on the same seeded channels.

Each detector arm reuses the seed, so every row at a given SNR faces the
identical channel and payload realizations and the curves are directly
comparable. Desk-scale presets finish in well under a minute; every
``onebit-mimo uncoded`` flag but ``--detector`` overrides them, and
``--partition`` prunes every arm but ZF.

    python3 scripts/uncoded_ber_sweep.py --seed 1 --output ber.csv
"""

import argparse

from onebit_mimo import ConfigurationError, write_results
from onebit_mimo.cli import add_config_flags, build_config, guarded
from onebit_mimo.sim import run_arms

PRESETS = {
    "n_users": 2, "n_rx": 16, "snr_db": (-5.0, 0.0, 5.0, 10.0, 15.0),
    "t_c": 500, "t_d": 500, "trials": 4000, "target_errors": 200, "wave": 4,
}


def run(args: argparse.Namespace) -> int:
    if args.detector is not None:
        raise ConfigurationError("each arm sets its detector: use --detectors, not --detector")
    base = build_config(args, PRESETS)
    detectors = [d.strip() for d in args.detectors.split(",")]
    arms = [{"detector": d, "partition": None if d == "zf" else base.partition} for d in detectors]
    arms = run_arms(base, arms, "ber")
    write_results([row for _, rows in arms for row in rows], base)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_config_flags(ap)
    ap.add_argument("--detectors", default="wmd,md,ml,zf", help="comma-separated arms")
    return guarded(run, ap.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
