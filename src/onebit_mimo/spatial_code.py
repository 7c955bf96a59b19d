"""Spatial-domain code: quantized noiseless channel responses of every message
vector and their per-bit crossover probabilities eps, its only arrays; the
weights -log(eps) are worked out when read, and the scores ``wh``, ``hamming``
and ``nll`` are built on first access with their weights on a dyadic grid
(``_on_grid``), so every code score is exact.  Every score, a partition tree's
too, is ``MismatchScore``'s ``base + gain @ r``.  The per-(m, K) tables of
message digits (``_digits``) and of label bit sides (``_side_runs``, for LLRs)
are built once and shared by every code.

Codeword ell is the sign pattern of H x(g(ell)) where g(ell) is the m-ary
expansion of ell (user 1 = least significant digit).  Distinct messages may
quantize to identical bit patterns; all m**K entries are kept so index ell
stays bijective with the message vector, and decoding ties resolve to the
lowest index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .channel import NOISE_STD, quantize
from .core import Constellation, all_message_digits, bit_table, q_function, qam_constellation

EPS_FLOOR = 1e-300  # keeps -log(eps) finite when Q underflows


def weighted_hamming(x: np.ndarray, y: np.ndarray, alpha: np.ndarray) -> float:
    """sum_i alpha_i * 1{x_i != y_i}."""
    x = np.asarray(x)
    y = np.asarray(y)
    alpha = np.asarray(alpha)
    if not x.shape == y.shape == alpha.shape:
        raise ValueError("x, y and alpha must have equal length")
    return float(alpha[x != y].sum())


@dataclass(frozen=True, eq=False, init=False)
class MismatchScore:
    """Scores ``const + sum_i v_i 1{r_i != c_i}`` of rows c against a 0/1 observation r.

    Weighted and plain Hamming distances, negative log-likelihoods and
    partition-centroid distances are all of this form.  For a 0/1 r the
    mismatch indicator expands as 1{r_i != c_i} = c_i + (1-2c_i) r_i, so every
    row scores ``base + gain @ r`` with base = const + sum_i v_i c_i and
    gain = v * (1-2c); every product is exact since c_i and r_i are 0 or 1.
    Only ``base`` and ``gain`` are kept.

    A code's scores (``SpatialCode.wh``, ``.hamming`` and ``.nll``) take
    weights and constants on the grid of ``_on_grid``, so each of their
    scores is exact: it equals ``math.fsum`` of its terms bit for bit, in any
    row order, gather or block form, and a hard decision is one argmin.  A
    partition tree's centroid scores are not on a grid; ``partition`` bounds
    and resolves their rounding.
    """

    base: np.ndarray  # (n,) const + sum_i v_i c_i
    gain: np.ndarray  # (n, N) v * (1-2c)

    def __init__(self, rows: np.ndarray, weights: np.ndarray, const: np.ndarray | None = None):
        """From (n, N) 0/1 rows c, (n, N) weights v >= 0 and an optional (n,) constant."""
        c = rows.astype(np.float64)
        base = (weights * c).sum(axis=1)
        if const is not None:
            base = const + base
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "gain", weights * (1.0 - 2.0 * c))

    def __call__(self, r: np.ndarray, rows=None) -> np.ndarray:
        """Linear scores of ``rows`` (every row when None) against r.

        A 0/1 r of any dtype casts to float64 exactly inside the product.
        ``ndarray.dot`` calls the same BLAS GEMV as ``@``, which as a
        generalized ufunc costs more per call.  A row subset is gathered by
        ``take`` from ``gain`` and by fancy indexing from ``base``: the same
        bytes either way, each at the lower cost for its shape.
        """
        if rows is None:
            d = self.gain.dot(r)
            d += self.base
        else:
            d = self.gain.take(rows, axis=0).dot(r)
            d += self.base[rows]
        return d


def _on_grid(weights: np.ndarray, const: np.ndarray | None = None):
    """``(weights, const)`` rounded to the multiples of one dyadic step, so every score is exact.

    step = 2^(ceil(log2 A) + 2 - 52), where A is the largest row's
    sum_i |v_i| + |const|; each value moves by at most step/2 <= 4*eps*A
    (eps = 2^-52).

    Proof.  Once rounded, every v_i and the constant are integer multiples of
    step.  For a 0/1 r and c, each term of base = const + sum_i v_i c_i and
    of gain @ r (gain_i = +-v_i) is 0, +-v_i or the constant, so every
    product is exact, and every partial sum of base, of gain @ r and of
    their total, in any order, is an integer multiple of step of magnitude
    at most 2A'.  Here A' is the bound of the rounded rows: A was summed in
    floating point and each of a row's N values moved by at most step/2, so
    A' <= (1 + 3*N*eps)*A < 2A for any practical N.  Every integer multiple of step up to
    2^53 * step = 2^(ceil(log2 A) + 3) >= 8A in magnitude is a double, so
    each addition, and each fused multiply-add, returns its exact result.
    A score is thus the exact sum of its terms: it equals ``math.fsum`` of
    them whatever the row order, the gather or the kernel (a per-slot GEMV
    or a block's GEMM), and equal scores are exact ties.
    """
    scale = np.abs(weights).sum(axis=1)
    if const is not None:
        scale += np.abs(const)
    mant, exp = math.frexp(float(scale.max(initial=0.0)))
    step = math.ldexp(1.0, exp - (mant == 0.5) + 2 - 52)  # A = mant 2^exp: ceil(log2 A) first

    def snap(a):
        return np.rint(a / step) * step  # both exact: step is a power of two

    return snap(weights), None if const is None else snap(const)


@cache
def _digits(m: int, K: int) -> np.ndarray:
    """(m**K, K) read-only ``all_message_digits(m, K)``: row ell is message ell."""
    table = all_message_digits(m, K)
    table.setflags(write=False)
    return table


@cache
def _side_runs(m: int, K: int) -> tuple:
    """Read-only flat table of codeword indices, and the start of each side's run in it.

    The table holds (2, K*q, m**K / 2) entries in C order: run ``[b, k*q + i]``
    lists, ascending, the codewords whose user-(k+1) label bit i (MSB first)
    equals b.  A stable sort of each bit's column lists the codewords of bit
    0, then of bit 1, each in index order; every bit splits the m symbols in
    half, so each side holds exactly half of the codebook.  One gather
    through the table and one ``reduceat`` at the starts give every side's
    minimum, side 0 of every bit first.  Indices are intp: numpy converts any
    other index type on every gather.
    """
    bits = bit_table(m)[_digits(m, K)].reshape(m**K, -1)
    order = np.argsort(bits.T, axis=1, kind="stable").reshape(bits.shape[1], 2, -1)
    flat = order.transpose(1, 0, 2).reshape(-1)
    starts = np.arange(0, flat.size, m**K // 2)
    flat.setflags(write=False)
    starts.setflags(write=False)
    return flat, starts


@cache
def _antipodes(m: int, K: int) -> np.ndarray:
    """(m**K / 2,) read-only: entry ell is the message of -x(ell), for each ell < m**K / 2.

    A label's leading bit is its real part's sign (0 -> positive, see
    ``core.Constellation``), so the messages ell < m**K / 2, whose user-K
    digit has that bit 0, are the ones whose user-K point has a positive
    real part; negating every user's point maps them onto the other half.
    """
    points = qam_constellation(m, 1.0).points
    negated = (points[:, None] == -points).argmax(axis=1)  # symbol of each point's negation
    table = negated[_digits(m, K)[: m**K // 2]] @ m ** np.arange(K)
    table.setflags(write=False)
    return table


@dataclass(frozen=True, eq=False)  # frozen: no field changes under a cached score
class SpatialCode:
    m: int
    K: int
    codewords: np.ndarray  # (M, N) uint8
    crossover: np.ndarray  # (M, N) eps in (0, 0.5]

    @property
    def digits(self) -> np.ndarray:
        """(M, K) message digits of each codeword per user, built once per (m, K)."""
        return _digits(self.m, self.K)

    @property
    def side_runs(self) -> tuple:
        """(K*q*M,) codeword indices per label bit side and (2*K*q,) run starts, per (m, K)."""
        return _side_runs(self.m, self.K)

    @property
    def weights(self) -> np.ndarray:
        """(M, N) decoding weights alpha = -log(eps), worked out on every read."""
        return -np.log(self.crossover)

    @property
    def size(self) -> int:
        return self.codewords.shape[0]

    @property
    def length(self) -> int:
        return self.codewords.shape[1]

    @cached_property
    def wh(self) -> MismatchScore:
        """Weighted Hamming distance of every codeword under the weights alpha, on the grid."""
        return MismatchScore(self.codewords, *_on_grid(self.weights))

    @cached_property
    def hamming(self) -> MismatchScore:
        """Plain Hamming distance of every codeword."""
        return MismatchScore(self.codewords, *_on_grid(np.ones(self.codewords.shape)))

    @cached_property
    def nll(self) -> MismatchScore:
        """-log P(r | ell), whose min is the ML decision: -sum_i log(1-eps_i) plus
        sum_i 1{r_i != c_i} log((1-eps_i)/eps_i), with the weights and the
        constant on the grid, so each score is exact and lies within the
        grid's rounding (a few eps of its size) of the unrounded -log P(r | ell).
        """
        log_keep = np.log1p(-self.crossover)
        return MismatchScore(
            self.codewords, *_on_grid(log_keep - np.log(self.crossover), -log_keep.sum(axis=1))
        )


def build_code(h_real: np.ndarray, constellation: Constellation) -> SpatialCode:
    """Construct the spatial code of a real channel matrix.

    For every message index ell: codeword bits quantize(h_i^T x), crossover
    eps = Q(|h_i^T x| / NOISE_STD) clamped below at ``EPS_FLOOR``.  The
    quantizer and the noise scale are the channel's own, so the code matches
    the observations ``transmit`` draws.

    The codebook is antipodal: -x(ell) is a message, and its responses are
    ell's negated bit for bit.  So the responses and Q are computed for the
    first half only and copied to each partner (``_antipodes``), whose
    bits are quantize(-v): a zero response is bit 0 on both sides.
    """
    if not np.all(np.isfinite(h_real)):
        raise ValueError("channel matrix must be finite")
    n, two_k = h_real.shape
    m = constellation.m
    K = two_k // 2
    half = m**K // 2
    x = np.hstack(constellation.xy[:, _digits(m, K)[:half]])  # (M/2, 2K): [Re; Im] of each message
    v = x @ h_real.T  # (M/2, N)
    partner = _antipodes(m, K)
    codewords = np.empty((2 * half, n), dtype=np.uint8)
    crossover = np.empty((2 * half, n))
    codewords[:half] = quantize(v)
    codewords[partner] = quantize(-v)
    # in place from here: each fresh (M/2, N) temporary can cost page faults per block
    np.abs(v, out=v)
    v /= NOISE_STD
    crossover[partner] = np.maximum(q_function(v), EPS_FLOOR, out=crossover[:half])
    return SpatialCode(m=m, K=K, codewords=codewords, crossover=crossover)


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
