"""Indexing, modulation and Gaussian-tail utilities shared by all modules.

Conventions used throughout the package:

* A message vector is a length-K integer array with entries in {0, ..., m-1}.
* A codeword / observation is a length-N uint8 array with entries in {0, 1},
  where N = 2 * n_receive_antennas (real and imaginary halves stacked).
* Symbol labels are read MSB-first: label(b_1, ..., b_q) = sum_i b_i 2^(q-i).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


def all_message_digits(m: int, K: int) -> np.ndarray:
    """(m**K, K) table whose row ell is the m-ary expansion of ell."""
    ell = np.arange(m**K, dtype=np.int64)
    return (ell[:, None] // m ** np.arange(K, dtype=np.int64)) % m


def bits_per_symbol(m: int) -> int:
    """q = log2 m, the label bits of one symbol of an order-m power-of-two alphabet."""
    return int(m).bit_length() - 1


def bit_table(m: int) -> np.ndarray:
    """(m, q) lookup table; row w holds the MSB-first bits of symbol w."""
    q = bits_per_symbol(m)
    return (np.arange(m)[:, None] >> np.arange(q - 1, -1, -1)) & 1


@dataclass(frozen=True, eq=False)
class Constellation:
    """Square QAM constellation with mean symbol power fixed exactly.

    The label of a symbol is split across the two axes: odd-numbered bits
    (b_1, b_3, ...) select the real component, even-numbered bits the
    imaginary one.  The leading bit of each axis group is the sign
    (0 -> positive), the remaining bits index odd amplitude levels
    1, 3, 5, ...  All points are scaled so the mean power equals ``snr``.
    """

    m: int
    snr: float
    points: np.ndarray  # complex, shape (m,)
    xy: np.ndarray = field(init=False, repr=False)  # (2, m) read-only [Re; Im] of points

    def __post_init__(self):
        xy = np.stack([self.points.real, self.points.imag])
        xy.setflags(write=False)
        object.__setattr__(self, "xy", xy)


def _pam_axis(bits: np.ndarray) -> np.ndarray:
    """Signed odd-integer level for one axis; bits shape (n_symbols, p)."""
    sign = 1 - 2 * bits[:, 0]
    mag_idx = bits[:, 1:] @ (2 ** np.arange(bits.shape[1] - 2, -1, -1))
    return sign * (1 + 2 * mag_idx)


@lru_cache(maxsize=None, typed=True)
def qam_constellation(m: int, snr: float) -> Constellation:
    """Square m-QAM (m a power of 4) meeting the average-power constraint.

    Built once per (m, snr) and shared, so its points are read-only.  The
    cache is typed, so 4.0 and 4 get entries of their own.
    """
    q = bits_per_symbol(m)
    if 2**q != m or q % 2 != 0:
        raise ValueError(f"square QAM needs m a power of 4, got {m}")
    if not 0 < snr < np.inf:  # false for nan too
        raise ValueError(f"snr must be positive and finite, got {snr!r}")
    bits = bit_table(m)
    re = _pam_axis(bits[:, 0::2])
    im = _pam_axis(bits[:, 1::2])
    raw = re + 1j * im
    points = raw * np.sqrt(snr / np.mean(np.abs(raw) ** 2))
    points.setflags(write=False)
    return Constellation(m=m, snr=snr, points=points)


def modulate(w, constellation: Constellation):
    """Complex symbol(s) for message value(s) w."""
    return constellation.points[np.asarray(w)]


def real_stack(x_complex: np.ndarray) -> np.ndarray:
    """[Re(x); Im(x)] as one real vector."""
    x_complex = np.asarray(x_complex)
    return np.concatenate([x_complex.real, x_complex.imag])


def real_channel_matrix(h_complex: np.ndarray) -> np.ndarray:
    """Block matrix [[Re H, -Im H], [Im H, Re H]] of shape (2*Nr, 2*K)."""
    h_complex = np.asarray(h_complex)
    if h_complex.ndim != 2:
        raise ValueError("channel matrix must be 2-D")
    n_r, K = h_complex.shape
    re, im = h_complex.real, h_complex.imag
    out = np.empty((2 * n_r, 2 * K), dtype=re.dtype)
    out[:n_r, :K] = re
    np.negative(im, out=out[:n_r, K:])
    out[n_r:, :K] = im
    out[n_r:, K:] = re
    return out


# Cephes erfc (S. L. Moshier, ndtr.c): its three rational approximations and
# their coefficients.  Each tuple runs from the leading coefficient; a leading
# 1.0 is Cephes' p1evl, exact since 1.0 * x == x.
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_MAXLOG = 7.09782712893383996843e2  # log of the largest double: exp(-a*a) underflows beyond it
# entries per _erfc call, so its two temporaries stay in cache: about twice as
# fast as one call at 4096 x 64 entries; 256 x 64 entries are one chunk
_ERFC_CHUNK = 16384


def _horner(x: np.ndarray, coef: tuple, out=None) -> np.ndarray:
    """Cephes polevl: the polynomial with coefficients ``coef`` at x, by Horner in ``out``."""
    y = np.multiply(x, coef[0], out=out)
    y += coef[1]
    for c in coef[2:]:
        y *= x
        y += c
    return y


def _tail(a: np.ndarray, p: tuple, q: tuple, out=None) -> np.ndarray:
    """Cephes erfc for a >= 1: exp(-a*a) p(a) / q(a), in ``out`` if given."""
    z = a * a
    np.negative(z, out=z)
    np.exp(z, out=z)
    y = _horner(a, p, out=out)
    y *= z
    y /= _horner(a, q, out=z)  # z is spent, so q(a) takes its buffer
    return y


def _erfc(x: np.ndarray) -> np.ndarray:
    """Complementary error function of a 1-D float64 array, as Cephes computes it, in x's buffer.

    Three pieces by a = |x|: erfc(x) = 1 - x T(x^2) / U(x^2) for a < 1, and
    exp(-a^2) P(a) / Q(a) for a < 8 or exp(-a^2) R(a) / S(a) beyond, 0 once
    a^2 exceeds ``_MAXLOG``, and 2 - erfc(a) for x <= -1.  The a < 8 piece
    runs over the whole array, into x's buffer, and the other two overwrite
    their few entries, each evaluated on values that keep the rational parts
    finite (nan stays nan).
    """
    a = np.abs(x)
    big = np.flatnonzero(a >= 8.0)
    small = np.flatnonzero(a < 1.0)
    neg = np.flatnonzero(x <= -1.0)
    xs = x[small]
    tail = np.minimum(a[big], 27.0)  # 27 * 27 > _MAXLOG: +-inf and huge |x| underflow to 0
    y = _tail(np.minimum(a, 8.0, out=a), _ERFC_P, _ERFC_Q, out=x)
    if big.size:
        y_big = _tail(tail, _ERFC_R, _ERFC_S)
        y_big[tail * tail > _MAXLOG] = 0.0
        y[big] = y_big
    y[neg] = 2.0 - y[neg]
    if small.size:
        x2 = xs * xs
        t = _horner(x2, _ERF_T)
        t *= xs
        t /= _horner(x2, _ERF_U)
        y[small] = 1.0 - t
    return y


def q_function(x):
    """Gaussian tail probability P(Z > x) for standard normal Z: 0.5 erfc(x / sqrt 2).

    ``erfc`` is a numpy port of Cephes' (``ndtr.c``, S. L. Moshier), with its
    coefficients and evaluation order, so the run path needs numpy alone.  An
    array gives an array of its shape, a scalar a scalar.
    """
    x = np.asarray(x, dtype=float)
    q = x.ravel() / np.sqrt(2.0)
    for start in range(0, q.size, _ERFC_CHUNK):
        _erfc(q[start:start + _ERFC_CHUNK])
    q *= 0.5
    return q.reshape(x.shape)[()]
