"""Exact per-block BER oracle: uncoded Monte Carlo bit errors against their exact expectation.

Given one block's channel, the bit errors of one slot under a deterministic
hard detector are a finite sum over the M sent messages and the 2**N one-bit
observations r: P(r | ell) is a product of per-bit flip probabilities
Q(|h_i^T x(ell)| / NOISE_STD), taken from the true channel with no floor, and
the decision on r is the simulator's own (``sim._decide``).  Slots are
independent given the block, so the errors pooled over ``sim._uncoded_block``
runs have a known mean and variance: this checks ``transmit``, the slot
digits, detection (estimated CSIR and pruning included) and the error count
together, with no reference run.
"""

import itertools

import numpy as np
import pytest

from onebit_mimo import sim
from onebit_mimo.channel import NOISE_STD
from onebit_mimo.config import SimConfig
from onebit_mimo.core import all_message_digits, bit_table, q_function

BLOCKS = 6
T_D = 1000


def exact_slot_errors(cfg: SimConfig, blk: sim.Block):
    """(mean, variance) of one slot's bit errors in the block, every message equally likely."""
    digits = all_message_digits(cfg.m, cfg.n_users)  # (M, K)
    s = blk.const.points[digits]
    v = np.hstack([s.real, s.imag]) @ blk.h_true.T  # (M, N) noiseless responses
    flip = q_function(np.abs(v) / NOISE_STD)
    obs = np.array(list(itertools.product((0, 1), repeat=v.shape[1])), dtype=np.uint8)
    # an observed bit differs from the noiseless sign with the bit's flip probability
    differs = obs[None] != (v < 0)[:, None]  # (M, 2**N, N)
    p = np.where(differs, flip[:, None], 1.0 - flip[:, None]).prod(axis=2)
    np.testing.assert_allclose(p.sum(axis=1), 1.0)
    decided = sim._decide(cfg, blk, obs, sim.BlockStats())  # (2**N, K, q) bits
    errors = (bit_table(cfg.m)[digits][:, None] != decided[None]).sum(axis=(2, 3))  # (M, 2**N)
    mean = (p * errors).sum() / len(digits)
    return mean, (p * errors**2).sum() / len(digits) - mean**2


def pooled_z(cfg: SimConfig) -> float:
    """(sum of errors - t_d * sum of means) / sqrt(t_d * sum of variances) over BLOCKS blocks."""
    errors = mean = var = 0.0
    for b in range(BLOCKS):
        errors += sim._arms_on_block(sim._uncoded_block, [cfg], 0, b)[0].errors
        m, v = exact_slot_errors(cfg, sim._setup_block(cfg, 0, b, sim._SharedSetup()))
        mean += m
        var += v
    return (errors - cfg.t_d * mean) / np.sqrt(cfg.t_d * var)


ARMS = {
    "wmd": {},
    "md": {"detector": "md"},
    "ml": {"detector": "ml"},
    "zf": {"detector": "zf"},
    "wmd-k4-q2": {"partition": {"k": [4], "q": [2]}},
    "wmd-estimated": {"csir": "estimated", "t_t": 4, "t_c": 4 + T_D},
}


@pytest.mark.parametrize("arm", ARMS.values(), ids=ARMS.keys())
def test_uncoded_bit_errors_match_the_exact_expectation(arm):
    # |z| < 4 fails a correct build about once in 16 000 runs
    cfg = SimConfig(
        **{"n_users": 2, "n_rx": 4, "m": 4, "snr_db": 3.0, "t_c": T_D, "t_d": T_D, "seed": 11, **arm}
    )
    assert abs(pooled_z(cfg)) < 4
