#!/usr/bin/env python3
"""Uncoded BER versus SNR for several detectors on the same seeded channels.

Each detector arm reuses the seed, so every row at a given SNR faces the
identical channel and payload realizations and the curves are directly
comparable. Desk-scale presets finish in well under a minute; every
``onebit-mimo uncoded`` flag but ``--detector`` overrides them.

    python3 scripts/uncoded_ber_sweep.py --seed 1 --output ber.csv
"""

import argparse
import dataclasses

from onebit_mimo import ConfigurationError, run_uncoded, write_results
from onebit_mimo.cli import add_config_flags, build_config, guarded
from onebit_mimo.sim import require_uncoded

PRESETS = {
    "n_users": 2, "n_rx": 16, "snr_db": (-5.0, 0.0, 5.0, 10.0, 15.0),
    "t_c": 500, "t_d": 500, "trials": 4000, "target_errors": 200, "wave": 4,
}


def run(args: argparse.Namespace) -> int:
    if args.detector is not None:
        raise ConfigurationError("each arm sets its detector: use --detectors, not --detector")
    base = build_config(args, PRESETS)
    # every arm is checked before the first one runs
    arms = [dataclasses.replace(base, detector=det.strip()) for det in args.detectors.split(",")]
    for arm in arms:
        require_uncoded(arm)
    rows = [row for arm in arms for row in run_uncoded(arm)]
    write_results(rows, base)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_config_flags(ap)
    ap.add_argument("--detectors", default="wmd,md,ml,zf", help="comma-separated arms")
    return guarded(run, ap.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
