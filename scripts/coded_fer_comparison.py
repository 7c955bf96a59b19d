#!/usr/bin/env python3
"""LDPC frame error rate: soft-wMD LLRs + belief propagation versus hard wMD
or ZF decisions + bit flipping, on paired seeds across an SNR range.

Every ``onebit-mimo coded`` flag but ``--detector`` overrides the presets,
and so does a ``--config`` file without a ``detector`` (the arms set theirs);
``--partition`` prunes the soft and hard wMD arms, and ZF stays unpruned.

    python3 scripts/coded_fer_comparison.py --seed 5 --output fer.csv
"""

from onebit_mimo.cli import compare

PRESETS = {  # trials counts user-frames per SNR point
    "n_users": 3, "n_rx": 16, "snr_db": (-6.0, -4.0, -2.0, 0.0, 2.0),
    "t_d": 128, "ldpc_n": 128, "trials": 600, "target_errors": 10**9,
}

if __name__ == "__main__":
    raise SystemExit(compare(__doc__, PRESETS, ("soft-wmd", "wmd", "zf"), "fer"))
