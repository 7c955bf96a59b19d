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
from scipy.special import erfc


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
    if snr <= 0:
        raise ValueError("snr must be positive")
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


def q_function(x):
    """Gaussian tail probability P(Z > x) for standard normal Z."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))
