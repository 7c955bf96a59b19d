import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from onebit_mimo.channel import NOISE_STD, sample_rayleigh
from onebit_mimo.core import (
    all_message_digits,
    bit_table,
    modulate,
    q_function,
    qam_constellation,
    real_channel_matrix,
    real_stack,
)
from onebit_mimo.spatial_code import (
    EPS_FLOOR,
    MismatchScore,
    _bit_sides,
    _digits,
    build_code,
    exact_likelihood,
    subcode,
)

from conftest import random_code


class TestBuildCode:
    def test_two_user_example_dimensions(self):
        code = random_code(K=2, n_r=2)
        assert code.size == 16
        assert code.length == 4
        assert code.codewords.shape == (16, 4)

    def test_codewords_match_noiseless_response(self):
        rng = np.random.default_rng(2)
        const = qam_constellation(4, 10.0)
        h = real_channel_matrix(sample_rayleigh(2, 4, rng))
        code = build_code(h, const)
        digits = all_message_digits(4, 2)
        for ell in range(16):
            v = h @ real_stack(modulate(digits[ell], const))
            assert np.array_equal(code.codewords[ell], (v < 0).astype(np.uint8))

    def test_row_negation_flips_bit(self):
        rng = np.random.default_rng(4)
        const = qam_constellation(4, 10.0)
        h = real_channel_matrix(sample_rayleigh(2, 3, rng))
        code = build_code(h, const)
        h2 = h.copy()
        h2[1] = -h2[1]
        code2 = build_code(h2, const)
        flipped = code.codewords[:, 1] ^ code2.codewords[:, 1]
        assert np.all(flipped == 1)
        others = np.delete(code.codewords, 1, axis=1)
        others2 = np.delete(code2.codewords, 1, axis=1)
        assert np.array_equal(others, others2)

    def test_crossover_weight_consistency(self):
        code = random_code(K=3, n_r=5, seed=9)
        assert np.all(code.crossover > 0)
        assert np.all(code.crossover <= 0.5)
        assert np.array_equal(code.weights, -np.log(code.crossover))
        assert np.all(code.weights >= np.log(2) - 1e-12)

    def test_crossover_formula(self):
        rng = np.random.default_rng(6)
        const = qam_constellation(4, 4.0)
        h = real_channel_matrix(sample_rayleigh(2, 2, rng))
        code = build_code(h, const)
        digits = all_message_digits(4, 2)
        for ell in (0, 7, 15):
            v = h @ real_stack(modulate(digits[ell], const))
            eps = np.maximum(q_function(np.abs(v) / NOISE_STD), EPS_FLOOR)
            assert np.allclose(code.crossover[ell], eps, rtol=1e-12, atol=0)

    def test_zero_inner_product_convention(self):
        # an all-zero channel row gives v = 0: bit 0 and crossover exactly 1/2
        const = qam_constellation(4, 1.0)
        h = real_channel_matrix(np.array([[1 + 1j], [0 + 0j]]))
        code = build_code(h, const)
        assert np.all(code.codewords[:, 1] == 0)
        assert np.all(code.crossover[:, 1] == 0.5)

    def test_deterministic(self):
        a = random_code(K=2, n_r=4, seed=5)
        b = random_code(K=2, n_r=4, seed=5)
        assert np.array_equal(a.codewords, b.codewords)
        assert np.array_equal(a.weights, b.weights)

    def test_eps_floor_under_strong_channel(self):
        const = qam_constellation(4, 1e8)
        h = real_channel_matrix(np.full((2, 1), 100 + 0j))
        code = build_code(h, const)
        assert np.all(code.crossover >= EPS_FLOOR)
        assert np.all(np.isfinite(code.weights))

    @pytest.mark.parametrize(
        "K, n_r, m, snr_db, seed",
        [(2, 4, 4, 10.0, 0), (3, 16, 4, -2.0, 1), (4, 32, 4, 5.0, 2), (3, 16, 16, 20.0, 3),
         (2, 8, 4, 60.0, 4)],
    )
    def test_matches_a_scipy_built_oracle(self, K, n_r, m, snr_db, seed):
        rng = np.random.default_rng(seed)
        const = qam_constellation(m, 10.0 ** (snr_db / 10.0))
        h = real_channel_matrix(sample_rayleigh(K, n_r, rng))
        code = build_code(h, const)
        # oracle: build_code's arithmetic with scipy's erfc for the crossover
        v = np.hstack(const.xy[:, all_message_digits(m, K)]) @ h.T
        eps = np.maximum(0.5 * erfc(np.abs(v) / NOISE_STD / np.sqrt(2.0)), EPS_FLOOR)
        assert np.array_equal(code.codewords, (v < 0).astype(np.uint8))
        for got, want in ((code.crossover, eps), (code.weights, -np.log(eps))):
            assert np.all(np.abs(got - want) <= 1e-14 * want)

    @pytest.mark.parametrize("K, n_r, m, seed", [(2, 4, 4, 0), (4, 32, 4, 1), (3, 16, 16, 2)])
    def test_antipodal_messages_have_bitwise_equal_weights(self, K, n_r, m, seed):
        # -x(ell) is the message ell' of each symbol's negated point: its codeword is
        # ell's complemented, and its crossovers and weights are bitwise ell's
        code = random_code(K=K, n_r=n_r, m=m, seed=seed)
        points = qam_constellation(m, 10.0).points
        negated = np.array([np.flatnonzero(points == -p)[0] for p in points])
        partner = negated[all_message_digits(m, K)] @ m ** np.arange(K)
        assert np.array_equal(code.codewords[partner], 1 - code.codewords)
        assert code.crossover[partner].tobytes() == code.crossover.tobytes()
        assert code.weights[partner].tobytes() == code.weights.tobytes()


class TestExactLikelihood:
    def test_match_gives_product_of_complements(self, small_code):
        ell = 5
        r = small_code.codewords[ell]
        expected = np.prod(1.0 - small_code.crossover[ell])
        assert exact_likelihood(small_code, r, ell) == pytest.approx(expected, rel=1e-12)

    def test_complement_gives_product_of_crossovers(self, small_code):
        ell = 3
        r = 1 - small_code.codewords[ell]
        expected = np.prod(small_code.crossover[ell])
        assert exact_likelihood(small_code, r, ell) == pytest.approx(expected, rel=1e-12)

    def test_total_probability(self):
        code = random_code(K=2, n_r=3, seed=8)  # N = 6, 64 outcomes
        n = code.length
        outcomes = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(np.uint8)
        for ell in (0, 9, 15):
            total = sum(exact_likelihood(code, r, ell) for r in outcomes)
            assert total == pytest.approx(1.0, abs=1e-12)


class TestSubcode:
    def test_first_user_symbol_zero(self):
        assert subcode(1, 0, K=2, m=4).tolist() == [0, 4, 8, 12]

    def test_second_user_symbol_three(self):
        assert subcode(2, 3, K=2, m=4).tolist() == [12, 13, 14, 15]

    def test_cardinality(self):
        assert len(subcode(2, 1, K=3, m=4)) == 16

    @pytest.mark.parametrize("m,K", [(2, 3), (4, 2), (4, 3), (16, 2), (4, 6)])
    def test_partition_property(self, m, K):
        for k in range(1, K + 1):
            union = np.concatenate([subcode(k, j, K, m) for j in range(m)])
            assert np.array_equal(np.sort(union), np.arange(m**K))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            subcode(0, 0, K=2, m=4)
        with pytest.raises(ValueError):
            subcode(1, 4, K=2, m=4)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 63))
    def test_membership_matches_digit(self, k, j, ell):
        members = subcode(k, j, K=3, m=4)
        digits = all_message_digits(4, 3)
        assert (ell in members) == (digits[ell, k - 1] == j)


class TestBitSides:
    @pytest.mark.parametrize("m,K", [(m, K) for m in (4, 16) for K in range(1, 5)])
    def test_rows_split_codebook_by_label_bit(self, m, K):
        sides = _bit_sides(m, K)
        q = m.bit_length() - 1
        M = m**K
        assert sides.shape == (2, K * q, M // 2)
        assert not sides.flags.writeable
        labels = bit_table(m)[all_message_digits(m, K)].reshape(M, K * q)
        for j in range(K * q):
            for b in (0, 1):
                assert np.all(np.diff(sides[b, j]) > 0)  # ascending, no repeats
                np.testing.assert_array_equal(sides[b, j], np.flatnonzero(labels[:, j] == b))
            np.testing.assert_array_equal(np.sort(sides[:, j].ravel()), np.arange(M))

    def test_shared_per_m_and_K(self):
        a = random_code(K=2, n_r=4, seed=1)
        b = random_code(K=2, n_r=6, seed=2)
        assert a.bit_sides is b.bit_sides


class TestDigitSides:
    """A user's digit splits the codebook into m subcodes: the masks ``compute_app`` takes."""

    @pytest.mark.parametrize("m,K", [(4, K) for K in range(1, 5)] + [(16, K) for K in range(1, 4)])
    def test_rows_are_subcodes(self, m, K):
        digits = _digits(m, K)
        for k in range(K):
            for j in range(m):
                np.testing.assert_array_equal(
                    np.flatnonzero(digits[:, k] == j), subcode(k + 1, j, K, m)
                )

    def test_shared_per_m_and_K(self):
        a = random_code(K=2, n_r=4, seed=1)
        b = random_code(K=2, n_r=6, seed=2)
        assert a.digits is b.digits
        assert a.digits is _digits(4, 2)
        assert not a.digits.flags.writeable
        np.testing.assert_array_equal(a.digits, all_message_digits(4, 2))
        with pytest.raises(AttributeError):
            a.digits = all_message_digits(4, 2)


class TestScores:
    """``wh``, ``hamming`` and ``nll`` are built once per code from its frozen fields."""

    CODES = [(2, 3, 4, 0), (3, 2, 4, 7), (1, 4, 16, 3), (2, 2, 16, 5)]  # K, n_r, m, seed

    @staticmethod
    def direct(code):
        """Each score built directly from the code's fields."""
        log_keep = np.log1p(-code.crossover)
        return {
            "wh": MismatchScore(code.codewords, code.weights),
            "hamming": MismatchScore(code.codewords, np.ones_like(code.weights)),
            "nll": MismatchScore(
                code.codewords, log_keep - np.log(code.crossover), -log_keep.sum(axis=1)
            ),
        }

    @pytest.mark.parametrize("K,n_r,m,seed", CODES)
    def test_one_object_per_code(self, K, n_r, m, seed):
        code = random_code(K=K, n_r=n_r, m=m, seed=seed)
        for name in ("wh", "hamming", "nll"):
            assert getattr(code, name) is getattr(code, name)
        assert len({id(code.wh), id(code.hamming), id(code.nll)}) == 3
        assert code.wh is not random_code(K=K, n_r=n_r, m=m, seed=seed).wh

    @pytest.mark.parametrize("K,n_r,m,seed", CODES)
    def test_bitwise_equal_to_direct_build(self, K, n_r, m, seed):
        code = random_code(K=K, n_r=n_r, m=m, seed=seed)
        def raw(value):
            return None if value is None else np.asarray(value).tobytes()

        for name, want in self.direct(code).items():
            got = getattr(code, name)
            for attr in ("rows", "weights", "const", "base", "gain", "tol"):
                assert raw(getattr(got, attr)) == raw(getattr(want, attr)), (name, attr)

    def test_fields_cannot_be_reassigned(self):
        code = random_code(K=2, n_r=3)
        wh = code.wh
        for f in dataclasses.fields(code):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(code, f.name, getattr(code, f.name))
        assert code.wh is wh
