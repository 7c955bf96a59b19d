"""Spatial-domain code: quantized noiseless channel responses of every
message vector, with per-bit crossover probabilities, decoding weights and
the scores ``wh``, ``hamming`` and ``nll``, each built on first access.

Codeword ell is the sign pattern of H x(g(ell)) where g(ell) is the m-ary
expansion of ell (user 1 = least significant digit).  Distinct messages may
quantize to identical bit patterns; all m**K entries are kept so index ell
stays bijective with the message vector, and decoding ties resolve to the
lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .channel import NOISE_STD, quantize
from .core import Constellation, all_message_digits, bit_table, q_function

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
        places left, the band is ranked by the reference and then by row id
        (a negative id wrapped into [0, n)), so exact ties go to the lowest
        row whatever the order of ``rows``.
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
            at = band if rows is None else rows[band] % self.base.size
            exact = [self.reference(r, j) for j in at]
            keep[band[np.lexsort((at, exact))[:need]]] = True
        return keep


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
    label bit i (MSB first) equals b.  A stable sort of each bit's column
    lists the codewords of bit 0, then of bit 1, each in index order; every
    bit splits the m symbols in half, so each side holds exactly half of the
    codebook.  Indices are intp: numpy converts any other index type on
    every gather.
    """
    bits = bit_table(m)[_digits(m, K)].reshape(m**K, -1)
    order = np.argsort(bits.T, axis=1, kind="stable").reshape(bits.shape[1], 2, -1)
    table = np.ascontiguousarray(order.transpose(1, 0, 2))
    table.setflags(write=False)
    return table


@dataclass(frozen=True, eq=False)  # frozen: no field changes under a cached score
class SpatialCode:
    m: int
    K: int
    codewords: np.ndarray  # (M, N) uint8
    crossover: np.ndarray  # (M, N) eps in (0, 0.5]
    weights: np.ndarray  # (M, N) alpha = -log(eps)

    @property
    def digits(self) -> np.ndarray:
        """(M, K) message digits of each codeword per user, built once per (m, K)."""
        return _digits(self.m, self.K)

    @property
    def bit_sides(self) -> np.ndarray:
        """(2, K*q, M/2) codeword indices per label bit value, built once per (m, K)."""
        return _bit_sides(self.m, self.K)

    @property
    def size(self) -> int:
        return self.codewords.shape[0]

    @property
    def length(self) -> int:
        return self.codewords.shape[1]

    @cached_property
    def wh(self) -> MismatchScore:
        """Weighted Hamming distance of every codeword under the weights alpha."""
        return MismatchScore(self.codewords, self.weights)

    @cached_property
    def hamming(self) -> MismatchScore:
        """Plain Hamming distance of every codeword."""
        return MismatchScore(self.codewords, np.ones_like(self.weights))

    @cached_property
    def nll(self) -> MismatchScore:
        """-log P(r | ell), whose min is the ML decision: -sum_i log(1-eps_i) plus
        sum_i 1{r_i != c_i} log((1-eps_i)/eps_i), each term the exact negation
        of the log-likelihood's, so -nll(r) is log P(r | ell) bit for bit.
        """
        log_keep = np.log1p(-self.crossover)
        return MismatchScore(self.codewords, log_keep - np.log(self.crossover), -log_keep.sum(axis=1))


def build_code(h_real: np.ndarray, constellation: Constellation) -> SpatialCode:
    """Construct the spatial code of a real channel matrix.

    For every message index ell: codeword bits quantize(h_i^T x), crossover
    eps = Q(|h_i^T x| / NOISE_STD) clamped below at ``EPS_FLOOR``, and
    weights -log(eps).  The quantizer and the noise scale are the channel's
    own, so the code matches the observations ``transmit`` draws.
    """
    if not np.all(np.isfinite(h_real)):
        raise ValueError("channel matrix must be finite")
    n, two_k = h_real.shape
    m = constellation.m
    K = two_k // 2
    x = np.hstack(constellation.xy[:, _digits(m, K)])  # (M, 2K): [Re; Im] of each message
    v = x @ h_real.T  # (M, N)
    codewords = quantize(v)
    eps = np.maximum(q_function(np.abs(v) / NOISE_STD), EPS_FLOOR)
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
