#!/usr/bin/env python3
"""Uncoded BER versus SNR for several detectors on the same seeded channels.

Each detector arm reuses the seed, so every row at a given SNR faces the
identical channel and payload realizations and the curves are directly
comparable. Desk-scale defaults finish in well under a minute.

    python3 scripts/uncoded_ber_sweep.py --seed 1 --output ber.csv
"""

import argparse
import dataclasses

from onebit_mimo import CSV_HEADER, SimConfig, run_uncoded, write_results


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n_users", type=int, default=2)
    ap.add_argument("--n_rx", type=int, default=16)
    ap.add_argument("--snr_db", default="-5,0,5,10,15")
    ap.add_argument("--detectors", default="wmd,md,ml,zf")
    ap.add_argument("--trials", type=int, default=4000)
    ap.add_argument("--target_errors", type=int, default=200)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--output", help="CSV path (stdout when omitted)")
    args = ap.parse_args()

    base = SimConfig(
        n_users=args.n_users,
        n_rx=args.n_rx,
        snr_db=tuple(float(v) for v in args.snr_db.split(",")),
        t_c=500,
        t_d=500,
        trials=args.trials,
        target_errors=args.target_errors,
        workers=args.workers,
        wave=4,
        seed=args.seed,
    )
    rows = []
    for det in args.detectors.split(","):
        rows.extend(run_uncoded(dataclasses.replace(base, detector=det.strip())))
    write_results(args.output, rows, CSV_HEADER, base)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
