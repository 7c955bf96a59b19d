#!/usr/bin/env python3
"""Uncoded BER versus SNR for several detectors on the same seeded channels.

Each detector arm reuses the seed, so every row at a given SNR faces the
identical channel and payload realizations and the curves are directly
comparable. Desk-scale presets finish in well under a minute; every
``onebit-mimo uncoded`` flag but ``--detector`` overrides them, and so does a
``--config`` file without a ``detector``; ``--partition`` prunes every arm but ZF.

    python3 scripts/uncoded_ber_sweep.py --seed 1 --output ber.csv
"""

from onebit_mimo.cli import compare

PRESETS = {
    "n_users": 2, "n_rx": 16, "snr_db": (-5.0, 0.0, 5.0, 10.0, 15.0),
    "t_d": 500, "trials": 4000, "target_errors": 200, "wave": 4,
}

if __name__ == "__main__":
    raise SystemExit(compare(__doc__, PRESETS, ("wmd", "md", "ml", "zf"), "ber"))
