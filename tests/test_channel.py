import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import hadamard

import onebit_mimo
from onebit_mimo.channel import (
    NOISE_STD,
    estimate_channel_zf,
    generate_pilots,
    quantize,
    sample_rayleigh,
    transmit,
    transmit_pilots,
)
from onebit_mimo.core import (
    all_message_digits,
    modulate,
    q_function,
    qam_constellation,
    real_channel_matrix,
    real_stack,
)
from onebit_mimo.errors import ConfigurationError
from onebit_mimo.spatial_code import build_code


def run_fresh(program: str) -> str:
    """Stdout of ``program`` run in a fresh interpreter that imports this checkout's package.

    Fails unless it exits 0 with nothing on stderr.
    """
    src = str(Path(onebit_mimo.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


class TestRayleigh:
    def test_moments(self):
        rng = np.random.default_rng(0)
        h = sample_rayleigh(10, 100, rng)
        flat = h.ravel()
        assert flat.size == 1000
        draws = np.concatenate([sample_rayleigh(10, 100, rng).ravel() for _ in range(100)])
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, abs=0.02)
        assert abs(draws.mean()) < 0.01

    def test_cross_antenna_correlation(self):
        rng = np.random.default_rng(1)
        h = sample_rayleigh(2, 2, rng)
        rows = np.array([sample_rayleigh(1, 2, rng).ravel() for _ in range(50000)])
        corr = np.mean(rows[:, 0] * np.conj(rows[:, 1]))
        assert abs(corr) < 0.02

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            sample_rayleigh(0, 4, np.random.default_rng(0))


class TestQuantize:
    def test_sign_convention(self):
        assert quantize(np.array([0.0, 1.5, -0.1, -3.0])).tolist() == [0, 0, 1, 1]

    def test_dtype(self):
        assert quantize(np.array([1.0])).dtype == np.uint8


class TestTransmit:
    # SNR is the only noise scale: at 1e12 a bit flips with probability
    # Q(|h_i^T x| * 1e6 / NOISE_STD), nil for these seeded channels
    def test_noiseless_positive_rows(self):
        # a channel whose rows all align with the symbol gives all-zero bits
        const = qam_constellation(4, 1e12)
        h = real_channel_matrix(np.full((4, 1), 1 + 0j))
        r = transmit(h, np.array([0]), const, np.random.default_rng(0))
        assert r.tolist() == [0] * 8

    @pytest.mark.parametrize("K,n_r", [(2, 3), (3, 4)])
    def test_noiseless_matches_code(self, K, n_r):
        rng = np.random.default_rng(7)
        const = qam_constellation(4, 1e12)
        h = real_channel_matrix(sample_rayleigh(K, n_r, rng))
        code = build_code(h, const)
        for ell in range(code.size):
            r = transmit(h, code.digits[ell], const, rng)
            assert np.array_equal(r, code.codewords[ell])

    def test_empirical_flip_rate(self):
        rng = np.random.default_rng(3)
        const = qam_constellation(4, 10.0)
        h = real_channel_matrix(sample_rayleigh(2, 3, rng))
        w = np.array([1, 2])
        v = h @ real_stack(modulate(w, const))
        eps = q_function(np.abs(v) / NOISE_STD)
        trials = 40000
        noiseless = quantize(v)
        flips = np.zeros(len(v))
        for _ in range(trials):
            flips += transmit(h, w, const, rng) != noiseless
        p_hat = flips / trials
        se = np.sqrt(eps * (1 - eps) / trials)
        assert np.all(np.abs(p_hat - eps) <= 3 * se + 1e-12)

    def test_scale_invariance_of_flip_rates(self):
        # a channel gain c > 0 is an SNR gain c**2: on paired noise draws
        # sign(cHx + z) and sign(Hx' + z), with x' the symbols at c**2 times
        # the SNR, agree bit for bit (the two differ by rounding, which no
        # draw here brings to a sign change)
        rng = np.random.default_rng(5)
        h = real_channel_matrix(sample_rayleigh(2, 4, rng))
        w = np.array([0, 3])
        c = 3.7
        rng_a, rng_b = np.random.default_rng(6), np.random.default_rng(6)
        base = quantize(h @ real_stack(modulate(w, qam_constellation(4, 4.0))))
        flips = 0
        for _ in range(2000):
            r_a = transmit(c * h, w, qam_constellation(4, 4.0), rng_a)
            r_b = transmit(h, w, qam_constellation(4, 4.0 * c**2), rng_b)
            assert np.array_equal(r_a, r_b)
            flips += np.count_nonzero(r_a != base)
        assert flips > 0  # the noise is on


class TestPilots:
    def test_orthogonal_rows_k2(self):
        p = generate_pilots(2, 2, snr=1.0)
        gram = p @ p.conj().T
        assert abs(gram[0, 1]) < 1e-12

    def test_row_power(self):
        snr = 7.0
        p = generate_pilots(4, 8, snr=snr)
        assert np.allclose(np.abs(p) ** 2, snr)

    def test_tiling(self):
        p = generate_pilots(4, 8, snr=1.0)
        assert p.shape == (4, 8)
        assert np.allclose(p[:, :4], p[:, 4:])

    def test_non_power_of_two_users(self):
        p = generate_pilots(5, 25, snr=2.0)
        gram = p @ p.conj().T
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-9

    def test_too_short_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_pilots(4, 3, snr=1.0)

    def test_non_multiple_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_pilots(4, 10, snr=1.0)

    @pytest.mark.parametrize("K", [1, 2, 4, 8, 16])
    def test_power_of_two_users_get_sylvester_hadamard_rows(self, K):
        # scipy's Sylvester construction is the oracle, scaled and tiled as the pilots are
        base = hadamard(K).astype(complex) * (1 + 1j) / np.sqrt(2.0)
        expected = np.sqrt(3.0) * np.tile(base, (1, 2))
        pilots = generate_pilots(K, 2 * K, snr=3.0)
        assert pilots.dtype == expected.dtype and pilots.shape == expected.shape
        assert pilots.tobytes() == expected.tobytes()

    def test_estimated_csir_run_imports_no_scipy_linalg(self):
        # a fresh interpreter, since this one has imported scipy.linalg for the oracle
        program = (
            "import sys\n"
            "from onebit_mimo import SimConfig, run_uncoded\n"
            "run_uncoded(SimConfig(n_users=2, n_rx=4, csir='estimated', t_t=4, t_d=10,"
            " t_c=14, trials=10, seed=1))\n"
            "print('scipy.linalg' in sys.modules)\n"
        )
        assert run_fresh(program) == "False\n"

    def test_runs_import_no_scipy_numpy_ma_or_process_pool(self):
        # every run kind in one fresh interpreter; only compute_app's sum modes reach scipy
        program = (
            "import sys\n"
            "import numpy as np\n"
            "from onebit_mimo import SimConfig, run_coded, run_uncoded\n"
            "small = dict(n_users=2, n_rx=4, seed=1)\n"
            "run_uncoded(SimConfig(**small, trials=40, partition={'k': [4], 'q': [2]}))\n"
            "run_coded(SimConfig(**small, detector='soft-wmd', ldpc_n=64, trials=1))\n"
            "run_uncoded(SimConfig(**small, detector='zf', trials=40))\n"
            "run_uncoded(SimConfig(**small, csir='estimated', t_t=4, t_d=10, t_c=14, trials=10))\n"
            "print(sorted(name for name in sys.modules if name.startswith('scipy')"
            " or name == 'numpy.ma' or name.startswith('numpy.ma.')"
            " or name == 'concurrent.futures.process'))\n"
            "from onebit_mimo import build_code, qam_constellation, real_channel_matrix,"
            " sample_rayleigh\n"
            "from onebit_mimo.detector import compute_app\n"
            "h = real_channel_matrix(sample_rayleigh(2, 4, np.random.default_rng(0)))\n"
            "code = build_code(h, qam_constellation(4, 10.0))\n"
            "table = compute_app(code.codewords[5], code, mode='exact-sum')\n"
            "print(table.shape, bool(np.all(table >= 0) and np.allclose(table.sum(axis=1), 1.0)))\n"
        )
        assert run_fresh(program) == "[]\n(2, 4) True\n"


class TestChannelEstimate:
    def _estimate(self, K, n_r, t_t, snr_db, seed):
        rng = np.random.default_rng(seed)
        snr = 10.0 ** (snr_db / 10.0)
        h_c = sample_rayleigh(K, n_r, rng)
        pilots = generate_pilots(K, t_t, snr)
        obs = transmit_pilots(real_channel_matrix(h_c), pilots, rng)
        return h_c, estimate_channel_zf(obs, pilots)

    def test_frobenius_normalization(self):
        K, n_r = 3, 8
        h_c, h_hat = self._estimate(K, n_r, 6, 10.0, seed=2)
        assert np.linalg.norm(h_hat) ** 2 == pytest.approx(n_r * K, rel=1e-9)

    def test_noiseless_sign_consistency(self):
        # without noise the quantized response of the estimate matches the
        # quantized response of the true channel on the pilot directions
        K, n_r = 2, 16
        rng = np.random.default_rng(11)
        h_c = sample_rayleigh(K, n_r, rng)
        pilots = generate_pilots(K, K, snr=1e6)
        x = np.stack([real_stack(p) for p in pilots.T])  # (t_t, 2K) real pilot slots
        obs = quantize(x @ real_channel_matrix(h_c).T)
        h_hat = estimate_channel_zf(obs, pilots)
        obs_hat = quantize(x @ real_channel_matrix(h_hat).T)
        agreement = np.mean(obs == obs_hat)
        assert agreement > 0.95

    def test_estimated_code_agreement(self):
        # operating point with extended training: most code bits survive the
        # estimation error.  Regression baseline: measured 0.823-0.841 across
        # seeds (a one-bit MAP estimator prototype reached only ~0.84 as well,
        # so the bound reflects the operating point, not estimator slack).
        K, n_r, t_t = 5, 32, 25
        snr = 10.0
        agreements = []
        for seed in range(3):
            h_c, h_hat = self._estimate(K, n_r, t_t, snr, seed=seed)
            const = qam_constellation(4, 10.0 ** (snr / 10.0))
            code_true = build_code(real_channel_matrix(h_c), const)
            code_est = build_code(real_channel_matrix(h_hat), const)
            agreements.append(np.mean(code_true.codewords == code_est.codewords))
        assert np.mean(agreements) > 0.80

    def test_cancelling_observations_give_a_zero_estimate(self):
        # one user's two pilot slots are equal, so opposite bits cancel in the fit
        pilots = generate_pilots(1, 2, snr=0.01)
        obs = np.array([[0, 0], [1, 1]], dtype=np.uint8)
        h_hat = estimate_channel_zf(obs, pilots)
        assert h_hat.shape == (1, 1)
        assert np.array_equal(h_hat, np.zeros((1, 1)))

    def test_singular_pilots_rejected(self):
        pilots = np.ones((2, 4), dtype=complex)  # duplicate rows
        obs = np.zeros((4, 8), dtype=np.uint8)
        with pytest.raises(ConfigurationError):
            estimate_channel_zf(obs, pilots)

    def test_slot_count_mismatch(self):
        pilots = generate_pilots(2, 4, snr=1.0)
        with pytest.raises(ConfigurationError):
            estimate_channel_zf(np.zeros((3, 8), dtype=np.uint8), pilots)


def test_all_messages_table_is_complete():
    # the table used by code construction covers every message exactly once
    table = all_message_digits(4, 2)
    seen = {tuple(row) for row in table}
    assert len(seen) == 16
