#!/usr/bin/env python3
"""BER-versus-complexity trade-off of hierarchical candidate pruning.

Runs the same seeded channels under the full codebook search and a list of
partition budgets, reporting the analytic comparison counts next to the
measured error rate and mean candidate-set size.

    python3 scripts/partition_tradeoff.py --seed 3
"""

import argparse
import json

from onebit_mimo import (
    SWEEP_CSV_HEADER,
    SimConfig,
    run_partition_sweep,
    write_results,
)

DEFAULT_SWEEP = [
    "full",
    {"k": [16], "q": [8]},
    {"k": [16], "q": [4]},
    {"k": [8, 8], "q": [4, 8]},
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n_users", type=int, default=4)
    ap.add_argument("--n_rx", type=int, default=16)
    ap.add_argument("--snr_db", type=float, default=5.0)
    ap.add_argument(
        "--sweep",
        help="JSON list of partition specs; default compares four budgets",
    )
    ap.add_argument("--trials", type=int, default=2000)
    ap.add_argument("--target_errors", type=int, default=200)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--output", help="CSV path (stdout when omitted)")
    args = ap.parse_args()

    sweep = json.loads(args.sweep) if args.sweep else DEFAULT_SWEEP
    cfg = SimConfig(
        n_users=args.n_users,
        n_rx=args.n_rx,
        snr_db=(args.snr_db,),
        t_c=500,
        t_d=500,
        trials=args.trials,
        target_errors=args.target_errors,
        workers=args.workers,
        wave=4,
        seed=args.seed,
    )
    rows = run_partition_sweep(cfg, sweep)
    write_results(args.output, rows, SWEEP_CSV_HEADER, cfg)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
