"""Spatial-domain code: quantized noiseless channel responses of every
message vector, with per-bit crossover probabilities and decoding weights.

Codeword ell is the sign pattern of H x(g(ell)) where g(ell) is the m-ary
expansion of ell (user 1 = least significant digit).  Distinct messages may
quantize to identical bit patterns; all m**K entries are kept so index ell
stays bijective with the message vector, and decoding ties resolve to the
lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import NOISE_STD
from .core import Constellation, all_message_digits, bit_table, modulate, q_function

EPS_FLOOR = 1e-300  # keeps -log(eps) finite when Q underflows


def mismatch_form(v: np.ndarray, bits: np.ndarray):
    """(base, gain) with sum_i v_i 1{r_i != c_i} = base + gain @ r per row c.

    For a 0/1 observation r the mismatch indicator expands as
    1{r_i != c_i} = c_i + (1-2c_i) r_i, so base = sum_i v_i c_i and
    gain = v * (1-2c); every product is exact since c_i and r_i are 0 or 1.
    """
    c = bits.astype(np.float64)
    return (v * c).sum(axis=1), v * (1.0 - 2.0 * c)


@dataclass(eq=False)
class SpatialCode:
    m: int
    K: int
    codewords: np.ndarray  # (M, N) uint8
    crossover: np.ndarray  # (M, N) eps in (0, 0.5]
    weights: np.ndarray  # (M, N) alpha = -log(eps)
    digits: np.ndarray  # (M, K) message digit of each codeword per user
    _linear: dict = field(default_factory=dict, repr=False)

    @property
    def size(self) -> int:
        return self.codewords.shape[0]

    @property
    def length(self) -> int:
        return self.codewords.shape[1]

    @property
    def rate(self) -> float:
        return self.K * np.log2(self.m) / self.length

    def _linear_form(self, key: str):
        """Cached (base, gain) with score(r) = base + gain @ r per codeword."""
        cached = self._linear.get(key)
        if cached is not None:
            return cached
        if key == "wh":
            v = self.weights
            const = np.zeros(self.size)
        elif key == "hamming":
            v = np.ones_like(self.weights)
            const = np.zeros(self.size)
        elif key == "loglik":
            # log P(r | ell) = sum_i log(1-eps) + mismatch * (log eps - log(1-eps))
            v = np.log(self.crossover) - np.log1p(-self.crossover)
            const = np.log1p(-self.crossover).sum(axis=1)
        else:
            raise KeyError(key)
        base, gain = mismatch_form(v, self.codewords)
        self._linear[key] = (const + base, gain)
        return self._linear[key]

    def wh_distances(self, r: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        """d_wh(r, c_ell; alpha_ell) for each candidate index."""
        base, gain = self._linear_form("wh")
        return base[candidates] + gain[candidates] @ r.astype(np.float64)

    def hamming_distances(self, r: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        base, gain = self._linear_form("hamming")
        return base[candidates] + gain[candidates] @ r.astype(np.float64)

    def log_likelihoods(self, r: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        """log P(r | ell) for each candidate index."""
        base, gain = self._linear_form("loglik")
        return base[candidates] + gain[candidates] @ r.astype(np.float64)


def build_code(
    h_real: np.ndarray,
    constellation: Constellation,
    noise_std: float = NOISE_STD,
    eps_floor: float = EPS_FLOOR,
) -> SpatialCode:
    """Construct the spatial code of a real channel matrix.

    For every message index ell: codeword bits sign(h_i^T x), crossover
    eps = Q(|h_i^T x| / noise_std) clamped below at ``eps_floor``, and
    weights -log(eps).
    """
    if not np.all(np.isfinite(h_real)):
        raise ValueError("channel matrix must be finite")
    n, two_k = h_real.shape
    m = constellation.m
    K = two_k // 2
    digits = all_message_digits(m, K)
    symbols = modulate(digits, constellation)  # (M, K) complex
    x = np.hstack([symbols.real, symbols.imag])  # (M, 2K)
    v = x @ h_real.T  # (M, N)
    codewords = (v < 0).astype(np.uint8)
    eps = np.maximum(q_function(np.abs(v) / noise_std), eps_floor)
    return SpatialCode(
        m=m,
        K=K,
        codewords=codewords,
        crossover=eps,
        weights=-np.log(eps),
        digits=digits.astype(np.uint8),
    )


def exact_likelihood(code: SpatialCode, r: np.ndarray, ell: int) -> float:
    """P(r | codeword ell): product of per-bit transition probabilities."""
    r = np.asarray(r)
    if r.shape[0] != code.length:
        raise ValueError("observation length mismatch")
    eps = code.crossover[ell]
    mismatch = r != code.codewords[ell]
    return float(np.prod(np.where(mismatch, eps, 1.0 - eps)))


def subcode(k: int, j: int, K: int, m: int) -> np.ndarray:
    """Sorted indices of codewords whose user-k digit equals j (k is 1-based)."""
    if not 1 <= k <= K:
        raise ValueError(f"user index {k} outside [1, {K}]")
    if not 0 <= j < m:
        raise ValueError(f"symbol {j} outside [0, {m})")
    ell = np.arange(m**K, dtype=np.int64)
    return ell[(ell // m ** (k - 1)) % m == j]


def symbol_bit_masks(code: SpatialCode, candidates: np.ndarray) -> np.ndarray:
    """(n_cand, K, q) boolean array: label bit i of user k's digit, MSB first."""
    lut = bit_table(code.m).astype(bool)  # (m, q)
    return lut[code.digits[candidates]]  # fancy-indexes to (n_cand, K, q)


def dump_code(code: SpatialCode) -> str:
    """Text dump: one codeword per line, bits then tab-separated weights."""
    lines = []
    for bits, alpha in zip(code.codewords, code.weights):
        row = "".join(str(int(b)) for b in bits)
        lines.append(row + "\t" + "\t".join(repr(float(a)) for a in alpha))
    return "\n".join(lines) + "\n"
