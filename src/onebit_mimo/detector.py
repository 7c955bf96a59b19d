"""Hard and soft detection over a (possibly reduced) candidate set.

Every decoder and soft output scores codewords through one cached
``MismatchScore`` of the code (``code.wh``, ``.hamming`` or ``.nll``), whose
scores are exact (``spatial_code._on_grid``), so no result depends on the
order or the form in which they are summed.  Every detector reduces one
vector: every codeword's score, +inf outside the candidates.  The hard
decoders take its argmin, an exact tie to the lowest codeword index; the
soft outputs take its minimum over each side of a label bit (LLRs, one
per-(m, K) index table, ``code.side_runs``) or its mass over each user's
subcode (APPs, masks of ``code.digits``).  LLRs follow the convention
L = log(P(bit=0) / P(bit=1)), clamped to +-LLR_CLAMP for a channel decoder.
"""

from __future__ import annotations

import numpy as np

from .core import Constellation
from .spatial_code import MismatchScore, SpatialCode

LLR_CLAMP = 60.0

APP_MODES = ("exact-sum", "wh-sum", "wh-max")


def _candidate_array(candidates):
    """Candidate indices as given, or None for the whole codebook.

    A bool mask, a float array or an array that is not 1-D is refused, not read
    as indices; the range is not checked, to save a min and a max per call: a
    negative index counts from the end, and one outside [-M, M) fails the gather.
    """
    if candidates is None:
        return None
    candidates = np.asarray(candidates)
    if candidates.size == 0:  # first: an empty list is float64
        raise ValueError("candidate set must be nonempty")
    if candidates.dtype.kind not in "iu":
        raise ValueError(f"candidates must be integer indices, not {candidates.dtype}")
    if candidates.ndim != 1:
        raise ValueError(f"candidates must be a 1-D index array, not {candidates.ndim}-D")
    return candidates


def _masked_scores(r: np.ndarray, score: MismatchScore, candidates) -> np.ndarray:
    """(M,) scores of every row, gathered for the candidates, +inf elsewhere.

    A code score is exact, so a row's score does not depend on its place in
    the gather: the candidates need no order, and a negative id writes the
    same score at its wrapped index.
    """
    cand = _candidate_array(candidates)
    if cand is None:
        return score(r)
    d = np.empty(score.base.size)
    d.fill(np.inf)  # about half the per-call cost of ``np.full``, a Python-level wrapper
    d[cand] = score(r, cand)
    return d


def _nearest(r: np.ndarray, score: MismatchScore, candidates) -> int:
    """Codeword index in [0, M) of the smallest score, ties to the lowest index.

    The argmin of the +inf-masked scores that the soft outputs reduce too: a
    code score is exact, so its first minimum is the lowest index of an exact
    tie whatever the candidates' order, duplicates or negative ids.
    """
    return int(_masked_scores(r, score, candidates).argmin())


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
    x_hat = h_pinv.dot(y)
    K = x_hat.shape[0] // 2
    s = x_hat[:K] + 1j * x_hat[K:]
    rms = np.sqrt(np.mean(np.abs(s) ** 2))
    if rms > 0:
        s = s * np.sqrt(constellation.snr) / rms
    dist = np.abs(s[:, None] - constellation.points[None, :])
    return np.argmin(dist, axis=1)


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
    ``code.side_runs`` and one min per side give both sides of every bit; a
    side emptied by pruning saturates the LLR at the clamp.
    """
    d = _masked_scores(r, code.wh, candidates)
    flat, starts = code.side_runs  # a side every M/2 entries, side 0 of every bit first
    # one reduceat over the flat gather; a min is exact.  Fancy indexing, since ``take``
    # copies a read-only index array such as this one on every call
    side_min = np.minimum.reduceat(d[flat], starts)
    bits = starts.size // 2
    llr = side_min[bits:] - side_min[:bits]
    np.maximum(llr, -LLR_CLAMP, out=llr)
    np.minimum(llr, LLR_CLAMP, out=llr)
    return llr.reshape(code.K, -1)
