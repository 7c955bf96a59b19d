"""Hard and soft detection over a (possibly reduced) candidate set.

Every decoder and soft output scores codewords through one cached
``MismatchScore`` of the code (``code.wh``, ``.hamming`` or ``.nll``); the
hard decoders take the smallest score, ties to the lowest codeword index;
the soft outputs reduce every codeword's score, +inf outside the candidates,
over each side of a label bit (LLRs, a per-(m, K) index table) or each
user's subcode (APPs, masks of ``code.digits``).  LLRs follow the convention
L = log(P(bit=0) / P(bit=1)), clamped to +-LLR_CLAMP for a channel decoder.
"""

from __future__ import annotations

import numpy as np

from .core import Constellation
from .spatial_code import MismatchScore, SpatialCode

LLR_CLAMP = 60.0

APP_MODES = ("exact-sum", "wh-sum", "wh-max")


def _candidate_array(candidates, sort: bool = True):
    """Candidate indices, sorted unless ``sort`` is False, or None for the whole codebook.

    A bool mask or float array is refused, not read as indices; the range is
    not checked, to save a min and a max per call: a negative index counts from the end.
    """
    if candidates is None:
        return None
    candidates = np.asarray(candidates)
    if candidates.size == 0:  # first: an empty list is float64
        raise ValueError("candidate set must be nonempty")
    if candidates.dtype.kind not in "iu":
        raise ValueError(f"candidates must be integer indices, not {candidates.dtype}")
    return np.sort(candidates) if sort else candidates


def _nearest(r: np.ndarray, score: MismatchScore, candidates) -> int:
    """Candidate index of the smallest score, ties to the lowest index.

    ``smallest`` breaks ties by codeword index, so the candidates need no sort.
    """
    cand = _candidate_array(candidates, sort=False)
    pos = score.smallest(r, score(r, cand), 1, cand).argmax()
    return int(pos if cand is None else cand[pos])


def wmd_decode(r: np.ndarray, code: SpatialCode, candidates=None) -> int:
    """Index minimizing the per-codeword weighted Hamming distance to r."""
    return _nearest(r, code.wh, candidates)


def md_decode(r: np.ndarray, code: SpatialCode, candidates=None) -> int:
    """Plain minimum-Hamming-distance baseline (all weights equal)."""
    return _nearest(r, code.hamming, candidates)


def ml_decode(r: np.ndarray, code: SpatialCode, candidates=None) -> int:
    """Exact maximum-likelihood decision: the smallest -log P(r | ell)."""
    return _nearest(r, code.nll, candidates)


def zf_detect(r: np.ndarray, h_pinv: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Zero-forcing baseline: the channel's pseudo-inverse on +-1 samples, then slicing.

    One-bit quantization loses the amplitude, so the pseudo-inverse output is
    rescaled to the constellation's mean power before nearest-point slicing.
    """
    y = 1.0 - 2.0 * np.asarray(r, dtype=float)
    x_hat = h_pinv @ y
    K = x_hat.shape[0] // 2
    s = x_hat[:K] + 1j * x_hat[K:]
    rms = np.sqrt(np.mean(np.abs(s) ** 2))
    if rms > 0:
        s = s * np.sqrt(constellation.snr) / rms
    dist = np.abs(s[:, None] - constellation.points[None, :])
    return np.argmin(dist, axis=1)


def _masked_scores(r: np.ndarray, score: MismatchScore, candidates) -> np.ndarray:
    """(M,) scores of every row, gathered for the sorted candidates, +inf elsewhere."""
    # sorted: a gathered GEMV's result for a row depends on the row's position in the gather
    cand = _candidate_array(candidates)
    if cand is None:
        return score(r)
    d = np.full(score.base.size, np.inf)
    d[cand] = score(r, cand)
    return d


def compute_app(
    r: np.ndarray, code: SpatialCode, candidates=None, mode: str = "wh-max"
) -> np.ndarray:
    """(K, m) posterior table; row k is P(w_k = . | r) over the candidate set.

    exact-sum marginalizes exact likelihoods over each symbol's subcode;
    wh-sum replaces the likelihood by exp(-d_wh), which is tight when every
    crossover probability is small; wh-max keeps only the nearest codeword
    per subcode.  Pruned codewords carry log mass -inf, so one mask of
    ``code.digits`` per subcode (its codewords in ascending order) and one max
    or logsumexp per row give every subcode's mass, and a fully pruned
    subcode gets none.
    """
    from scipy.special import logsumexp  # here: no run kind computes APPs, so runs import no scipy

    if mode not in APP_MODES:
        raise ValueError(f"unknown APP mode {mode!r}")
    log_p = -_masked_scores(r, code.nll if mode == "exact-sum" else code.wh, candidates)
    per_symbol = np.array([[log_p[col == j] for j in range(code.m)] for col in code.digits.T])
    log_mass = per_symbol.max(axis=2) if mode == "wh-max" else logsumexp(per_symbol, axis=2)
    table = np.exp(log_mass - log_mass.max(axis=1, keepdims=True))
    return table / table.sum(axis=1, keepdims=True)


def compute_llrs(r: np.ndarray, code: SpatialCode, candidates=None) -> np.ndarray:
    """(K, q) LLR block for one slot, clamped to +-LLR_CLAMP.

    Entry (k, i) is the LLR of label bit i (MSB first) of user k+1's symbol:
    min weighted distance over the bit=1 subcode union minus the bit=0 one.
    Codewords outside the candidate set score +inf, so one gather through
    ``code.bit_sides`` and one min give both sides of every bit; a side
    emptied by pruning saturates the LLR at the clamp.
    """
    d = _masked_scores(r, code.wh, candidates)
    side_min = np.minimum.reduce(d[code.bit_sides], axis=2)  # (2, K*q)
    llr = side_min[1] - side_min[0]
    np.maximum(llr, -LLR_CLAMP, out=llr)
    np.minimum(llr, LLR_CLAMP, out=llr)
    return llr.reshape(code.K, -1)
