#!/usr/bin/env python3
"""LDPC frame error rate: soft-wMD LLRs + belief propagation versus hard wMD
or ZF decisions + bit flipping, on paired seeds across an SNR range.

Every ``onebit-mimo coded`` flag but ``--detector`` overrides the presets;
``--partition`` prunes the soft and hard wMD arms, and ZF stays unpruned.

    python3 scripts/coded_fer_comparison.py --seed 5 --output fer.csv
"""

import argparse

from onebit_mimo import ConfigurationError, write_results
from onebit_mimo.cli import add_config_flags, build_config, guarded
from onebit_mimo.sim import run_arms

PRESETS = {  # trials counts user-frames per SNR point
    "n_users": 3, "n_rx": 16, "snr_db": (-6.0, -4.0, -2.0, 0.0, 2.0),
    "t_c": 128, "t_d": 128, "ldpc_n": 128, "trials": 600, "target_errors": 10**9,
}


def run(args: argparse.Namespace) -> int:
    if args.detector is not None:
        raise ConfigurationError("the arms are soft-wmd, wmd and zf: --detector is not taken")
    base = build_config(args, PRESETS)
    arms = [{"detector": d, "partition": None if d == "zf" else base.partition}
            for d in ("soft-wmd", "wmd", "zf")]
    arms = run_arms(base, arms, "fer")
    write_results([row for _, rows in arms for row in rows], base)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_config_flags(ap)
    return guarded(run, ap.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
