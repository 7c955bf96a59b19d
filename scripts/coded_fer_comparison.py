#!/usr/bin/env python3
"""LDPC frame error rate: soft LLRs + belief propagation versus hard
decisions + bit flipping, on paired seeds across an SNR range.

    python3 scripts/coded_fer_comparison.py --seed 5 --output fer.csv
"""

import argparse
import dataclasses

from onebit_mimo import CSV_HEADER, SimConfig, run_coded, write_results


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n_users", type=int, default=3)
    ap.add_argument("--n_rx", type=int, default=16)
    ap.add_argument("--snr_db", default="-6,-4,-2,0,2")
    ap.add_argument("--ldpc_n", type=int, default=128)
    ap.add_argument("--trials", type=int, default=600, help="user-frames per point")
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--output", help="CSV path (stdout when omitted)")
    args = ap.parse_args()

    base = SimConfig(
        n_users=args.n_users,
        n_rx=args.n_rx,
        snr_db=tuple(float(v) for v in args.snr_db.split(",")),
        t_c=128,
        t_d=128,
        ldpc_n=args.ldpc_n,
        trials=args.trials,
        target_errors=10**9,
        workers=args.workers,
        wave=8,
        seed=args.seed,
    )
    rows = []
    for det in ("soft-wmd", "wmd"):
        rows.extend(run_coded(dataclasses.replace(base, detector=det)))
    write_results(args.output, rows, CSV_HEADER, base)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
