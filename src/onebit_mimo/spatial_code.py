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
from functools import cache

import numpy as np

from .channel import NOISE_STD
from .core import Constellation, all_message_digits, bit_table, modulate, q_function

EPS_FLOOR = 1e-300  # keeps -log(eps) finite when Q underflows


def weighted_hamming(x: np.ndarray, y: np.ndarray, alpha: np.ndarray) -> float:
    """sum_i alpha_i * 1{x_i != y_i}."""
    x = np.asarray(x)
    y = np.asarray(y)
    alpha = np.asarray(alpha)
    if not x.shape == y.shape == alpha.shape:
        raise ValueError("x, y and alpha must have equal length")
    return float(alpha[x != y].sum())


@dataclass(frozen=True, eq=False)
class MismatchScore:
    """Scores ``const + sum_i v_i 1{r_i != c_i}`` of rows c against a 0/1 observation r.

    Weighted and plain Hamming distances, negative log-likelihoods and
    partition-centroid distances are all of this form.  For a 0/1 r the
    mismatch indicator expands as 1{r_i != c_i} = c_i + (1-2c_i) r_i, so every
    row scores ``base + gain @ r`` with base = const + sum_i v_i c_i and
    gain = v * (1-2c); every product is exact since c_i and r_i are 0 or 1.
    The exact reference of a row is ``const + weighted_hamming(r, c, v)``.

    Rounding bound: for one row let B = sum_i |v_i|, A = |const| + B,
    u = eps/2 and g = (N-1)u/(1-(N-1)u).  Any summation order of n <= N
    terms errs by at most g times the sum of their magnitudes.  So base errs
    from its exact value by at most g*B + u*(A + g*B), gain @ r by at most
    g*B, and the final addition by at most u*(A + 2g*B) + u^2*(A + g*B);
    the reference errs from the exact score by at most g*B + u*(A + g*B).
    A linear score and the reference thus differ by at most
    (3g + 3u)(1 + 2u)*A <= e = 2*N*eps*A when N*u <= 0.01.  The q-th
    smallest linear score c is then within max e of the q-th smallest
    reference s_q, so with ``tol = 8*N*eps*max A >= 2 max e`` a row scoring
    below c - tol has a reference below s_q and one scoring above c + tol
    a reference above s_q.
    """

    rows: np.ndarray  # (n, N) 0/1 patterns c
    weights: np.ndarray  # (n, N) v >= 0
    const: np.ndarray | None = None  # (n,) per-row constant
    base: np.ndarray = field(init=False, repr=False)
    gain: np.ndarray = field(init=False, repr=False)
    tol: float = field(init=False)

    def __post_init__(self):
        c = self.rows.astype(np.float64)
        base = (self.weights * c).sum(axis=1)
        scale = np.abs(self.weights).sum(axis=1)
        if self.const is not None:
            base = self.const + base
            scale = scale + np.abs(self.const)
        eps = np.finfo(np.float64).eps
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "gain", self.weights * (1.0 - 2.0 * c))
        object.__setattr__(self, "tol", 8.0 * c.shape[1] * eps * float(scale.max(initial=0.0)))

    def __call__(self, r: np.ndarray, rows=None) -> np.ndarray:
        """Linear scores of ``rows`` (every row when None) against r.

        A 0/1 r of any dtype casts to float64 exactly inside the product.
        ``take`` gathers a row subset: the same bytes as fancy indexing, at
        less cost.
        """
        if rows is None:
            d = self.gain @ r
            d += self.base
        else:
            d = self.gain.take(rows, axis=0) @ r
            d += self.base.take(rows)
        return d

    def reference(self, r: np.ndarray, row: int) -> float:
        """The exact reference score of one row."""
        d = weighted_hamming(r, self.rows[row], self.weights[row])
        return d if self.const is None else float(self.const[row] + d)

    def smallest(self, r: np.ndarray, f: np.ndarray, q: int, rows=None) -> np.ndarray:
        """Boolean mask of the q entries of f ranked first by (reference, row id).

        ``f`` holds the linear scores of ``rows`` (every row when None), +inf
        for entries outside the race.  Entries farther than ``tol`` from the
        q-th smallest score c are decided by f alone (see the class
        docstring); when the band within tol of c holds more entries than
        places left, the band is ranked by the reference and then by row id,
        so exact ties go to the lowest row whatever the order of ``rows``.
        """
        # an argmin costs less than a partial sort (or ``min``) for the hard decoders' q = 1
        if q == 1:
            c = f[f.argmin()]
        else:
            part = f.copy()
            part.partition(q - 1)
            c = part[q - 1]
        keep = f <= c + self.tol
        if np.count_nonzero(keep) > q:
            band = np.flatnonzero(keep & (f >= c - self.tol))
            keep[band] = False
            need = q - np.count_nonzero(keep)
            at = band if rows is None else rows[band]
            exact = [self.reference(r, j) for j in at]
            keep[band[np.lexsort((at, exact))[:need]]] = True
        return keep


def _column_sides(columns: np.ndarray, n_values: int, axes=(0, 1, 2)) -> np.ndarray:
    """Read-only (C, n_values, M / n_values) codeword indices, axes permuted by ``axes``.

    A stable sort of each column of the (M, C) table lists the codewords of
    value 0, then of value 1 and so on, each in index order; every value
    fills M / n_values entries.  Indices are intp: numpy converts any other
    index type on every gather.
    """
    order = np.argsort(columns.T, axis=1, kind="stable").reshape(columns.shape[1], n_values, -1)
    table = np.ascontiguousarray(order.transpose(axes))
    table.setflags(write=False)
    return table


@cache
def _digits(m: int, K: int) -> np.ndarray:
    """(m**K, K) read-only ``all_message_digits(m, K)``: row ell is message ell."""
    table = all_message_digits(m, K)
    table.setflags(write=False)
    return table


@cache
def _bit_sides(m: int, K: int) -> np.ndarray:
    """(2, K*q, m**K / 2) read-only table of codeword indices.

    Row ``[b, k*q + i]`` lists, ascending, the codewords whose user-(k+1)
    label bit i (MSB first) equals b.  Every bit splits the m symbols in
    half, so each side holds exactly half of the codebook.
    """
    q = m.bit_length() - 1
    bits = bit_table(m)[_digits(m, K)].reshape(m**K, K * q)
    return _column_sides(bits, 2, (1, 0, 2))


@cache
def _digit_sides(m: int, K: int) -> np.ndarray:
    """(K, m, m**(K-1)) read-only table of codeword indices.

    Row ``[k, j]`` lists, ascending, the codewords whose user-(k+1) digit is
    j, i.e. ``subcode(k + 1, j, K, m)``.
    """
    return _column_sides(_digits(m, K), m)


@dataclass(eq=False)
class SpatialCode:
    m: int
    K: int
    codewords: np.ndarray  # (M, N) uint8
    crossover: np.ndarray  # (M, N) eps in (0, 0.5]
    weights: np.ndarray  # (M, N) alpha = -log(eps)
    _scores: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def digits(self) -> np.ndarray:
        """(M, K) message digits of each codeword per user, built once per (m, K)."""
        return _digits(self.m, self.K)

    @property
    def bit_sides(self) -> np.ndarray:
        """(2, K*q, M/2) codeword indices per label bit value, built once per (m, K)."""
        return _bit_sides(self.m, self.K)

    @property
    def digit_sides(self) -> np.ndarray:
        """(K, m, M/m) codeword indices per user and symbol, built once per (m, K)."""
        return _digit_sides(self.m, self.K)

    @property
    def size(self) -> int:
        return self.codewords.shape[0]

    @property
    def length(self) -> int:
        return self.codewords.shape[1]

    @property
    def rate(self) -> float:
        return self.K * np.log2(self.m) / self.length

    def score(self, metric: str) -> MismatchScore:
        """Cached score of every codeword under one metric.

        "wh" is the weighted Hamming distance under the weights alpha,
        "hamming" the plain Hamming distance and "nll" -log P(r | ell)
        = -sum_i log(1-eps_i) + sum_i 1{r_i != c_i} log((1-eps_i)/eps_i),
        negated so that ML is a min.  Each of its terms is the exact negation
        of the log-likelihood's, so -score(r) is log P(r | ell) bit for bit.
        """
        cached = self._scores.get(metric)
        if cached is not None:
            return cached
        if metric == "wh":
            cached = MismatchScore(self.codewords, self.weights)
        elif metric == "hamming":
            cached = MismatchScore(self.codewords, np.ones_like(self.weights))
        elif metric == "nll":
            log_keep = np.log1p(-self.crossover)
            cached = MismatchScore(
                self.codewords, log_keep - np.log(self.crossover), -log_keep.sum(axis=1)
            )
        else:
            raise KeyError(metric)
        self._scores[metric] = cached
        return cached


def build_code(
    h_real: np.ndarray, constellation: Constellation, noise_std: float = NOISE_STD
) -> SpatialCode:
    """Construct the spatial code of a real channel matrix.

    For every message index ell: codeword bits sign(h_i^T x), crossover
    eps = Q(|h_i^T x| / noise_std) clamped below at ``EPS_FLOOR``, and
    weights -log(eps).
    """
    if not np.all(np.isfinite(h_real)):
        raise ValueError("channel matrix must be finite")
    n, two_k = h_real.shape
    m = constellation.m
    K = two_k // 2
    symbols = modulate(_digits(m, K), constellation)  # (M, K) complex
    x = np.hstack([symbols.real, symbols.imag])  # (M, 2K)
    v = x @ h_real.T  # (M, N)
    codewords = (v < 0).astype(np.uint8)
    eps = np.maximum(q_function(np.abs(v) / noise_std), EPS_FLOOR)
    return SpatialCode(m=m, K=K, codewords=codewords, crossover=eps, weights=-np.log(eps))


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
