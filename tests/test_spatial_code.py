import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from onebit_mimo.channel import NOISE_STD, quantize, sample_rayleigh
from onebit_mimo.core import (
    all_message_digits,
    bit_table,
    modulate,
    q_function,
    qam_constellation,
    real_channel_matrix,
    real_stack,
)
from onebit_mimo.detector import md_decode, ml_decode, wmd_decode
from onebit_mimo.spatial_code import (
    EPS_FLOOR,
    MismatchScore,
    _antipodes,
    _digits,
    _on_grid,
    _side_runs,
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

    @pytest.mark.byte_identity
    @pytest.mark.parametrize("K, n_r, m, seed", [(3, 5, 4, 9), (2, 16, 16, 4)])
    def test_weights_are_worked_out_from_the_crossovers(self, K, n_r, m, seed):
        # a code stores its codewords and crossovers only; its weights are read as -log(eps),
        # bitwise what a build that took the log of the first half and copied it gave
        code = random_code(K=K, n_r=n_r, m=m, seed=seed)
        assert np.all(code.crossover > 0)
        assert np.all(code.crossover <= 0.5)
        weights = code.weights
        assert set(vars(code)) == {"m", "K", "codewords", "crossover"}  # none kept on read either
        half = code.size // 2
        old = np.empty_like(code.crossover)
        np.log(code.crossover[:half], out=old[:half])
        np.negative(old[:half], out=old[:half])
        old[_antipodes(m, K)] = old[:half]
        assert weights.tobytes() == old.tobytes()
        assert np.all(weights >= np.log(2) - 1e-12)

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

    @pytest.mark.byte_identity
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
        q = m.bit_length() - 1
        M = m**K
        flat, _ = _side_runs(m, K)
        assert flat.shape == (K * q * M,) and flat.dtype == np.intp
        assert not flat.flags.writeable
        sides = flat.reshape(2, K * q, M // 2)
        labels = bit_table(m)[all_message_digits(m, K)].reshape(M, K * q)
        for j in range(K * q):
            for b in (0, 1):
                assert np.all(np.diff(sides[b, j]) > 0)  # ascending, no repeats
                np.testing.assert_array_equal(sides[b, j], np.flatnonzero(labels[:, j] == b))
            np.testing.assert_array_equal(np.sort(sides[:, j].ravel()), np.arange(M))

    def test_shared_per_m_and_K(self):
        a = random_code(K=2, n_r=4, seed=1)
        b = random_code(K=2, n_r=6, seed=2)
        assert a.side_runs[0] is b.side_runs[0]

    @pytest.mark.parametrize("m,K", [(4, 1), (4, 3), (16, 2)])
    def test_llr_runs_are_read_only_and_shared_per_m_and_K(self, m, K):
        a = random_code(K=K, n_r=4, m=m, seed=1)
        b = random_code(K=K, n_r=6, m=m, seed=2)
        assert a.side_runs is b.side_runs is _side_runs(m, K)
        flat, starts = a.side_runs
        assert not flat.flags.writeable and not starts.flags.writeable
        assert flat.size == 2 * (m.bit_length() - 1) * K * (m**K // 2)
        np.testing.assert_array_equal(starts, np.arange(0, flat.size, m**K // 2))
        with pytest.raises(AttributeError):
            a.side_runs = (flat, starts)


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
        """Each score built directly from the code's fields, its weights on the grid."""
        return {
            name: MismatchScore(code.codewords, *terms) for name, terms in grid_terms(code).items()
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
        for name, want in self.direct(code).items():
            got = getattr(code, name)
            assert [f.name for f in dataclasses.fields(got)] == ["base", "gain"]
            for attr in ("base", "gain"):
                assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes(), (name, attr)

    def test_fields_cannot_be_reassigned(self):
        code = random_code(K=2, n_r=3)
        wh = code.wh
        for f in dataclasses.fields(code):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(code, f.name, getattr(code, f.name))
        assert code.wh is wh


def ref_build_code(h_real, constellation):
    """``build_code`` as one GEMM, Q-function and log over every message (no antipodal copy)."""
    m = constellation.m
    K = h_real.shape[1] // 2
    v = np.hstack(constellation.xy[:, all_message_digits(m, K)]) @ h_real.T
    eps = np.maximum(q_function(np.abs(v) / NOISE_STD), EPS_FLOOR)
    return quantize(v), eps, -np.log(eps)


@pytest.mark.byte_identity
class TestHalfBuild:
    """``build_code`` computes half the messages and copies each to its antipodal partner."""

    @pytest.mark.parametrize(
        "K, n_r, m, snr_db, seed",
        [(1, 1, 4, 0.0, 0), (2, 4, 4, 10.0, 1), (3, 16, 4, -2.0, 2), (4, 32, 4, 5.0, 3),
         (5, 8, 4, 47.0, 4), (1, 3, 16, 10.0, 5), (2, 16, 16, 20.0, 6), (3, 4, 16, 37.0, 7)],
    )
    def test_bitwise_equal_to_a_full_build(self, K, n_r, m, snr_db, seed):
        const = qam_constellation(m, 10.0 ** (snr_db / 10.0))
        h = real_channel_matrix(sample_rayleigh(K, n_r, np.random.default_rng(seed)))
        code = build_code(h, const)
        built = (code.codewords, code.crossover, code.weights)
        for got, want in zip(built, ref_build_code(h, const)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [4, 16])
    def test_zero_responses_are_bit_zero_on_both_sides(self, m):
        # a zero row gives v = 0 for every message, and the row (1, 1) gives v = 0
        # wherever the two users' real parts cancel, in both halves of the codebook
        const = qam_constellation(m, 10.0)
        h = real_channel_matrix(np.array([[1, 1], [0, 0], [1 + 1j, 1 - 1j]]))
        code = build_code(h, const)
        want = ref_build_code(h, const)
        v = np.hstack(const.xy[:, all_message_digits(m, 2)]) @ h.T
        zero = v == 0
        assert zero[: code.size // 2].any() and zero[code.size // 2 :].any()
        assert np.all(code.codewords[zero] == 0) and np.all(code.crossover[zero] == 0.5)
        for got, ref in zip((code.codewords, code.crossover, code.weights), want):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("m,K", [(4, 1), (4, 3), (16, 1), (16, 2)])
    def test_partners_are_the_negated_messages_of_the_first_half(self, m, K):
        partner = _antipodes(m, K)
        assert partner is _antipodes(m, K) and not partner.flags.writeable
        half = m**K // 2
        np.testing.assert_array_equal(np.sort(partner), np.arange(half, 2 * half))
        points = qam_constellation(m, 3.0).points
        x = points[all_message_digits(m, K)]
        np.testing.assert_array_equal(x[partner], -x[:half])


def grid_terms(code):
    """Per score name, ``(weights, const)`` on the grid, from the code's own fields."""
    log_keep = np.log1p(-code.crossover)
    return {
        "wh": _on_grid(code.weights),
        "hamming": _on_grid(np.ones_like(code.weights)),
        "nll": _on_grid(log_keep - np.log(code.crossover), -log_keep.sum(axis=1)),
    }


def fsum_score(code, terms, r, row):
    """The exactly rounded sum of one row's terms: its constant and its mismatched weights."""
    weights, const = terms
    mismatched = weights[row][r != code.codewords[row]].tolist()
    return math.fsum(mismatched if const is None else [const[row], *mismatched])


@st.composite
def exact_cases(draw):
    """(code, observations, rng) over random codes; SNR 5e4 puts weights on EPS_FLOOR."""
    m = draw(st.sampled_from((4, 16)))
    K = draw(st.integers(1, 4 if m == 4 else 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = real_channel_matrix(sample_rayleigh(K, draw(st.integers(1, 8)), rng))
    code = build_code(h, qam_constellation(m, draw(st.sampled_from((10.0, 5e4)))))
    ell = int(rng.integers(code.size))
    noisy = code.codewords[ell] ^ (rng.random(code.length) < code.crossover[ell])
    obs = np.stack([code.codewords[ell], noisy, rng.integers(0, 2, code.length)]).astype(np.uint8)
    return code, obs, rng


@pytest.mark.byte_identity
class TestExactScores:
    """Every code score is exact: the correctly rounded sum of its terms, in any order or form."""

    @settings(max_examples=120, deadline=None)
    @given(case=exact_cases())
    def test_scores_equal_fsum_in_any_order_and_in_block_form(self, case):
        code, obs, rng = case
        rows = rng.permutation(code.size)
        # every row, then half of them again as negative ids
        shuffled = np.concatenate([rows, rows[: code.size // 2] - code.size])
        for name, terms in grid_terms(code).items():
            score = getattr(code, name)
            block = obs @ score.gain.T + score.base
            for r, f_block in zip(obs, block):
                f = score(r)
                assert f.tobytes() == f_block.tobytes()
                assert score(r, shuffled).tobytes() == f[shuffled].tobytes()
                for row in rows[:64]:
                    assert f[row] == fsum_score(code, terms, r, row)

    @settings(max_examples=120, deadline=None)
    @given(case=exact_cases())
    def test_hard_decisions_are_the_fsum_minimum_then_the_lowest_index(self, case):
        code, obs, rng = case
        cand = rng.permutation(code.size)[: int(rng.integers(1, code.size + 1))]
        cand = np.concatenate([cand, rng.choice(cand, size=cand.size // 2)])
        cand = np.where(rng.random(cand.size) < 0.3, cand - code.size, cand)
        order = np.unique(cand % code.size)
        terms = grid_terms(code)
        for decode, name in ((wmd_decode, "wh"), (md_decode, "hamming"), (ml_decode, "nll")):
            t = terms[name]
            for r in obs:
                want = min(order.tolist(), key=lambda j: (fsum_score(code, t, r, j), j))
                assert decode(r, code, cand) == want, decode.__name__
                full = min(range(code.size), key=lambda j: (fsum_score(code, t, r, j), j))
                assert decode(r, code) == full, decode.__name__

    @pytest.mark.parametrize("K,n_r,m,snr", [(2, 3, 4, 10.0), (4, 32, 4, 5e4), (2, 16, 16, 10.0)])
    def test_grid_moves_each_weight_by_at_most_half_a_step(self, K, n_r, m, snr):
        h = real_channel_matrix(sample_rayleigh(K, n_r, np.random.default_rng(K)))
        code = build_code(h, qam_constellation(m, snr))
        log_keep = np.log1p(-code.crossover)
        raw = {"wh": (code.weights, None),
               "nll": (log_keep - np.log(code.crossover), -log_keep.sum(axis=1))}
        terms = grid_terms(code)
        for name, (v, const) in raw.items():
            scale = np.abs(v).sum(axis=1) + (0.0 if const is None else np.abs(const))
            step = 2.0 ** (math.ceil(math.log2(scale.max())) + 2 - 52)
            for got, want in zip(terms[name], (v, const)):
                if want is not None:
                    assert np.all(np.abs(got - want) <= step / 2)
                    assert np.all(got / step == np.rint(got / step))
            # the score's gain is the grid weights, signed by the codeword bits
            assert np.abs(getattr(code, name).gain).tobytes() == np.abs(terms[name][0]).tobytes()
        assert np.abs(code.hamming.gain).tobytes() == np.ones_like(code.weights).tobytes()
