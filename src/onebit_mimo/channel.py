"""Rayleigh channel sampling, one-bit quantized transmission, pilots and a
stand-in ZF-type channel estimator.

Noise convention: the complex noise is CN(0, 1), so each real dimension is
N(0, 1/2) and the per-bit crossover probability of the quantized channel is
Q(|h_i^T x| / NOISE_STD).  NOISE_STD is the model's one noise scale: the
observations here and the code's crossover probabilities both use it, and a
quieter channel is a higher SNR, which scales the constellation.
"""

from __future__ import annotations

import numpy as np

from .core import Constellation, real_stack
from .errors import ConfigurationError

NOISE_STD = 1.0 / np.sqrt(2.0)


def sample_rayleigh(K: int, n_r: int, rng: np.random.Generator) -> np.ndarray:
    """(n_r, K) i.i.d. CN(0, 1) channel matrix."""
    if K < 1 or n_r < 1:
        raise ValueError("K and n_r must be >= 1")
    return (rng.standard_normal((n_r, K)) + 1j * rng.standard_normal((n_r, K))) / np.sqrt(2.0)


def quantize(v: np.ndarray) -> np.ndarray:
    """One-bit quantizer: 0 for v >= 0, 1 for v < 0."""
    return (np.asarray(v) < 0).view(np.uint8)


def transmit(
    h_real: np.ndarray,
    w: np.ndarray,
    constellation: Constellation,
    rng: np.random.Generator,
) -> np.ndarray:
    """One noisy slot: sign(H x(w) + z) as a length-N bit vector.

    ``ndarray.dot`` reaches the same BLAS GEMV as ``@`` at less cost per call.
    """
    v = h_real.dot(constellation.xy.take(w, axis=1).reshape(-1))
    v += rng.normal(0.0, NOISE_STD, size=v.shape)
    return quantize(v)


def generate_pilots(K: int, t_t: int, snr: float) -> np.ndarray:
    """(K, t_t) pilot matrix with mutually orthogonal constant-modulus rows.

    A K x K orthogonal base (quadrature-scaled Hadamard when K is a power of
    two, DFT otherwise) is tiled t_t/K times; every entry has power ``snr``.
    """
    if t_t < K:
        raise ConfigurationError(f"t_t={t_t} must be >= K={K}")
    if t_t % K != 0:
        raise ConfigurationError(f"t_t={t_t} must be a multiple of K={K}")
    if K & (K - 1) == 0:
        base = np.ones((1, 1), dtype=int)
        while len(base) < K:  # Sylvester's doubling [[H, H], [H, -H]]
            base = np.block([[base, base], [base, -base]])
        base = base.astype(complex) * (1 + 1j) / np.sqrt(2.0)
    else:
        k = np.arange(K)
        base = np.exp(-2j * np.pi * np.outer(k, k) / K)
    return np.sqrt(snr) * np.tile(base, (1, t_t // K))


def transmit_pilots(h_real: np.ndarray, pilots: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """(t_t, N) quantized observations of the pilot slots, noise drawn in slot order."""
    v = np.matmul(h_real, real_stack(pilots).T[:, :, None])[..., 0]  # one GEMV per slot
    v += rng.normal(0.0, NOISE_STD, size=v.shape)
    return quantize(v)


def estimate_channel_zf(observations: np.ndarray, pilots: np.ndarray) -> np.ndarray:
    """Scaled least-squares channel estimate from one-bit pilot observations.

    Observations are mapped to +-1 per real dimension, recombined into complex
    samples, fitted against the pilot matrix, and rescaled so the squared
    Frobenius norm equals its statistical expectation n_r * K.  Observations
    that cancel give a zero fit, which is returned unscaled: it is a draw of
    the noise, not a bad configuration.
    """
    K, t_t = pilots.shape
    if observations.shape[0] != t_t:
        raise ConfigurationError("one observation per pilot slot required")
    n_r = observations.shape[1] // 2
    y_pm = 1.0 - 2.0 * observations.astype(float)  # bit 0 -> +1
    y = (y_pm[:, :n_r] + 1j * y_pm[:, n_r:]).T  # (n_r, t_t)
    gram = pilots @ pilots.conj().T
    if np.linalg.cond(gram) > 1e12:
        raise ConfigurationError("pilot Gram matrix is singular")
    h_ls = y @ pilots.conj().T @ np.linalg.inv(gram)
    norm = np.linalg.norm(h_ls)
    if norm == 0:
        return h_ls
    return h_ls * np.sqrt(n_r * K) / norm
