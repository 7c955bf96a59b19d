"""Hard decoders, ZF baseline and soft-output (APP / LLR) computation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from onebit_mimo.channel import quantize, sample_rayleigh
from onebit_mimo.core import (
    bit_table,
    modulate,
    qam_constellation,
    real_channel_matrix,
    real_stack,
)
from onebit_mimo.detector import (
    APP_MODES,
    LLR_CLAMP,
    compute_app,
    compute_llrs,
    md_decode,
    ml_decode,
    wmd_decode,
    zf_detect,
)
from onebit_mimo.partition import PartitionParams, build_partition_tree, preprocess
from onebit_mimo.spatial_code import (
    SpatialCode,
    _on_grid,
    build_code,
    exact_likelihood,
    subcode,
    weighted_hamming,
)

from conftest import random_code


def manual_code(codewords, weights, m, K):
    """SpatialCode with hand-picked bit patterns and weights."""
    cw = np.asarray(codewords, dtype=np.uint8)
    w = np.asarray(weights, dtype=np.float64)
    return SpatialCode(m=m, K=K, codewords=cw, crossover=np.exp(-w), weights=w)


# ---------------------------------------------------------------------------
# weighted_hamming


def test_weighted_hamming_example():
    x = np.array([0, 1, 1, 0])
    y = np.array([0, 0, 1, 1])
    alpha = np.array([1.0, 2.0, 3.0, 4.0])
    assert weighted_hamming(x, y, alpha) == pytest.approx(6.0)


def test_weighted_hamming_identical_is_zero():
    x = np.array([1, 0, 1])
    assert weighted_hamming(x, x, np.array([5.0, 6.0, 7.0])) == 0.0


def test_weighted_hamming_shape_mismatch():
    with pytest.raises(ValueError):
        weighted_hamming(np.zeros(3), np.zeros(4), np.zeros(4))


@given(
    bits=st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 1), st.floats(0, 50)),
        min_size=1,
        max_size=32,
    )
)
def test_weighted_hamming_properties(bits):
    x = np.array([b[0] for b in bits])
    y = np.array([b[1] for b in bits])
    alpha = np.array([b[2] for b in bits])
    d = weighted_hamming(x, y, alpha)
    assert 0.0 <= d <= alpha.sum() + 1e-12
    assert d == pytest.approx(weighted_hamming(y, x, alpha))  # symmetric
    # equals the plain Hamming count under unit weights
    assert weighted_hamming(x, y, np.ones_like(alpha)) == np.count_nonzero(x != y)


# ---------------------------------------------------------------------------
# hard decoders


def test_wmd_on_exact_codeword_recovers_index():
    code = random_code(K=2, n_r=8, seed=1)
    # all codewords distinct at this size, so a clean observation is unambiguous
    assert len(np.unique(code.codewords, axis=0)) == code.size
    for ell in (0, 5, 9, 15):
        assert wmd_decode(code.codewords[ell], code) == ell
        assert md_decode(code.codewords[ell], code) == ell
        assert ml_decode(code.codewords[ell], code) == ell


def test_single_candidate_always_wins():
    code = random_code(K=2, n_r=4, seed=2)
    rng = np.random.default_rng(0)
    r = rng.integers(0, 2, code.length).astype(np.uint8)
    for fn in (wmd_decode, md_decode, ml_decode):
        assert fn(r, code, candidates=np.array([11])) == 11


def test_tie_breaks_to_lowest_index():
    # four identical codewords with identical weights: every distance ties
    cw = np.tile([0, 1, 0, 1], (4, 1))
    code = manual_code(cw, np.ones((4, 4)), m=4, K=1)
    r = np.array([1, 1, 0, 0], dtype=np.uint8)
    assert wmd_decode(r, code) == 0
    assert md_decode(r, code) == 0
    assert ml_decode(r, code) == 0
    assert wmd_decode(r, code, candidates=np.array([3, 2])) == 2


def test_md_equals_wmd_under_equal_weights():
    rng = np.random.default_rng(7)
    cw = rng.integers(0, 2, (16, 10)).astype(np.uint8)
    code = manual_code(cw, np.full((16, 10), 2.5), m=4, K=2)
    for _ in range(50):
        r = rng.integers(0, 2, 10).astype(np.uint8)
        assert md_decode(r, code) == wmd_decode(r, code)


def test_wmd_prefers_reliable_bits():
    # two codewords differing in both bits; r matches c0 on the heavy bit
    cw = np.array([[0, 0], [1, 1]])
    w = np.array([[10.0, 0.1], [10.0, 0.1]])
    code = manual_code(np.vstack([cw, cw]), np.vstack([w, w]), m=4, K=1)
    r = np.array([0, 1], dtype=np.uint8)
    # d(r, c0) = 0.1 (light bit), d(r, c1) = 10 (heavy bit)
    assert wmd_decode(r, code, candidates=np.array([0, 1])) == 0
    # plain Hamming sees a tie and keeps the lower index as well
    assert md_decode(r, code, candidates=np.array([0, 1])) == 0


def test_ml_matches_exhaustive_likelihood_search():
    code = random_code(K=2, n_r=3, seed=5)  # N = 6 -> 64 observations
    for idx in range(2**code.length):
        r = np.array([(idx >> i) & 1 for i in range(code.length)], dtype=np.uint8)
        got = ml_decode(r, code)
        best = max(exact_likelihood(code, r, ell) for ell in range(code.size))
        assert exact_likelihood(code, r, got) >= best * (1 - 1e-9)


def test_empty_candidates_raise():
    code = random_code(K=2, n_r=4, seed=0)
    r = code.codewords[0]
    for fn in (wmd_decode, md_decode, ml_decode):
        with pytest.raises(ValueError):
            fn(r, code, candidates=np.array([], dtype=int))


@pytest.mark.parametrize(
    "candidates, message",
    [
        (np.zeros(16, bool), "integer indices"),
        (np.ones(16, bool), "integer indices"),
        ([1.7], "integer indices"),
        (np.arange(16, dtype=float), "integer indices"),
        (np.array([[0, 1], [2, 3]]), "1-D"),
        ([[5, 1], [2, 9]], "1-D"),
        (np.array(3), "1-D"),
    ],
    ids=["all-false-mask", "all-true-mask", "float", "whole-floats", "2d", "2d-list", "0d"],
)
def test_non_integer_candidates_raise(candidates, message):
    # a mask or float array was once read as codeword indices: an all-False
    # mask as codeword 0, an all-True one as codeword 1, 1.7 as codeword 1;
    # a 2-D set was read row by row and a 0-d one failed with a scalar-index error
    code = random_code(K=2, n_r=4, seed=0)  # 16 codewords
    r = code.codewords[3]
    for fn in (wmd_decode, md_decode, ml_decode, compute_llrs, compute_app):
        with pytest.raises(ValueError, match=message):
            fn(r, code, candidates)


# ---------------------------------------------------------------------------
# zero forcing


def test_zf_identity_channel_qpsk():
    # orthogonal channel + constant-modulus constellation: signs are enough
    const = qam_constellation(4, 2.0)
    h_real = np.eye(4)
    for ell in range(16):
        w = np.array([ell % 4, ell // 4])
        x = real_stack(modulate(w, const))
        r = quantize(h_real @ x)
        assert np.array_equal(zf_detect(r, np.linalg.pinv(h_real), const), w)


def test_zf_random_channel_outputs_valid_symbols():
    rng = np.random.default_rng(3)
    const = qam_constellation(16, 10.0)
    h_real = real_channel_matrix(sample_rayleigh(2, 16, rng))
    w = np.array([7, 11])
    x = real_stack(modulate(w, const))
    r = quantize(h_real @ x + 0.1 * rng.standard_normal(32))
    got = zf_detect(r, np.linalg.pinv(h_real), const)
    assert got.shape == (2,)
    assert np.all((got >= 0) & (got < 16))


def test_zf_mostly_correct_with_many_antennas_qpsk():
    rng = np.random.default_rng(11)
    const = qam_constellation(4, 10.0)
    hits = 0
    for _ in range(200):
        h_real = real_channel_matrix(sample_rayleigh(2, 32, rng))
        w = rng.integers(0, 4, 2)
        x = real_stack(modulate(w, const))
        r = quantize(h_real @ x + 0.05 * rng.standard_normal(64))
        hits += np.array_equal(zf_detect(r, np.linalg.pinv(h_real), const), w)
    assert hits / 200 > 0.9


# ---------------------------------------------------------------------------
# APP tables


def test_app_rows_are_distributions():
    code = random_code(K=2, n_r=4, seed=9)
    rng = np.random.default_rng(1)
    r = rng.integers(0, 2, code.length).astype(np.uint8)
    for mode in APP_MODES:
        table = compute_app(r, code, mode=mode)
        assert table.shape == (2, 4)
        assert np.all(table >= 0)
        np.testing.assert_allclose(table.sum(axis=1), 1.0, rtol=1e-12)


def test_app_unknown_mode_rejected():
    code = random_code(K=2, n_r=4, seed=9)
    with pytest.raises(ValueError):
        compute_app(code.codewords[0], code, mode="sum-product")


def test_app_near_certain_when_noise_is_tiny():
    rng = np.random.default_rng(4)
    h_real = real_channel_matrix(sample_rayleigh(2, 8, rng))
    # SNR 5e6 gives the crossovers of noise std 1e-3 at SNR 10
    code = build_code(h_real, qam_constellation(4, 5e6))
    ell = 9
    digits = code.digits[ell]
    for mode in APP_MODES:
        table = compute_app(code.codewords[ell], code, mode=mode)
        for k in range(2):
            assert table[k, digits[k]] > 0.999


def test_app_exact_sum_matches_bayes_oracle():
    code = random_code(K=2, n_r=4, seed=12)
    rng = np.random.default_rng(2)
    for _ in range(20):
        r = rng.integers(0, 2, code.length).astype(np.uint8)
        table = compute_app(r, code, mode="exact-sum")
        like = np.array([exact_likelihood(code, r, ell) for ell in range(code.size)])
        for k in range(code.K):
            mass = np.array(
                [like[subcode(k + 1, j, code.K, code.m)].sum() for j in range(code.m)]
            )
            np.testing.assert_allclose(table[k], mass / mass.sum(), atol=1e-12)


def test_app_restricted_candidates_zero_out_pruned_symbols():
    code = random_code(K=2, n_r=4, seed=6)
    rng = np.random.default_rng(8)
    r = rng.integers(0, 2, code.length).astype(np.uint8)
    cand = subcode(1, 2, code.K, code.m)  # user 1 pinned to symbol 2
    table = compute_app(r, code, candidates=cand, mode="wh-max")
    np.testing.assert_allclose(table[0], np.eye(4)[2], atol=0)
    np.testing.assert_allclose(table[1].sum(), 1.0, rtol=1e-12)


def test_app_duplicate_candidates_match_deduplicated():
    # a repeated candidate counts once; integer weights keep every distance exact
    rng = np.random.default_rng(13)
    cw = rng.integers(0, 2, (16, 10))
    code = manual_code(cw, rng.integers(1, 8, (16, 10)), m=4, K=2)
    for _ in range(20):
        r = rng.integers(0, 2, code.length).astype(np.uint8)
        cand = rng.integers(0, code.size, 6)
        dup = np.concatenate([cand, cand[::-1], cand[:2]])
        for mode in ("wh-sum", "wh-max"):
            np.testing.assert_array_equal(
                compute_app(r, code, dup, mode=mode),
                compute_app(r, code, np.unique(cand), mode=mode),
            )


def test_app_empty_candidates_raise():
    code = random_code(K=2, n_r=4, seed=6)
    with pytest.raises(ValueError, match="nonempty"):
        compute_app(code.codewords[0], code, candidates=[])


# ---------------------------------------------------------------------------
# LLRs


def llr_oracle(r, code, cand=None):
    """Recompute LLRs from subcode-union minima, straight from the definition."""
    if cand is None:
        cand = np.arange(code.size)
    cand = np.sort(np.asarray(cand))
    d = np.array([weighted_hamming(r, code.codewords[j], code.weights[j]) for j in cand])
    q = int(np.log2(code.m))
    out = np.zeros((code.K, q))
    for k in range(code.K):
        digit = code.digits[cand, k]
        for i in range(q):  # bit i of the label, MSB first
            bit = (digit >> (q - 1 - i)) & 1
            d1 = d[bit == 1].min() if np.any(bit == 1) else np.inf
            d0 = d[bit == 0].min() if np.any(bit == 0) else np.inf
            out[k, i] = np.clip(d1 - d0, -LLR_CLAMP, LLR_CLAMP)
    return out


def test_llrs_match_subcode_union_oracle():
    code = random_code(K=2, n_r=4, seed=10)
    rng = np.random.default_rng(5)
    for _ in range(25):
        r = rng.integers(0, 2, code.length).astype(np.uint8)
        np.testing.assert_allclose(compute_llrs(r, code), llr_oracle(r, code))


def test_llrs_shape_and_clamp():
    code = random_code(K=3, n_r=6, seed=13)
    rng = np.random.default_rng(6)
    r = rng.integers(0, 2, code.length).astype(np.uint8)
    llr = compute_llrs(r, code)
    assert llr.shape == (3, 2)
    assert np.all(np.abs(llr) <= LLR_CLAMP)


def test_llrs_all_zero_when_every_distance_ties():
    cw = np.tile([0, 1, 1, 0], (4, 1))
    code = manual_code(cw, np.ones((4, 4)), m=4, K=1)
    r = np.array([1, 0, 1, 0], dtype=np.uint8)
    np.testing.assert_array_equal(compute_llrs(r, code), np.zeros((1, 2)))


def test_llrs_sign_agrees_with_hard_decision():
    # the wmd winner's label bits must sit on the favored side of each LLR
    code = random_code(K=2, n_r=6, seed=14)
    rng = np.random.default_rng(7)
    q = 2
    for _ in range(50):
        r = rng.integers(0, 2, code.length).astype(np.uint8)
        llr = compute_llrs(r, code)
        ell = wmd_decode(r, code)
        for k in range(code.K):
            digit = int(code.digits[ell, k])
            for i in range(q):
                bit = (digit >> (q - 1 - i)) & 1
                if bit == 1:
                    assert llr[k, i] <= 1e-12
                else:
                    assert llr[k, i] >= -1e-12


def test_llrs_pruned_side_saturates():
    code = random_code(K=2, n_r=4, seed=15)
    cand = subcode(1, 0, code.K, code.m)  # user-1 digit 0 has label bits 00
    rng = np.random.default_rng(9)
    r = rng.integers(0, 2, code.length).astype(np.uint8)
    llr = compute_llrs(r, code, candidates=cand)
    np.testing.assert_array_equal(llr[0], [LLR_CLAMP, LLR_CLAMP])
    # user 2 keeps both sides populated and matches the direct recomputation
    np.testing.assert_allclose(llr[1], llr_oracle(r, code, cand)[1])


def test_llrs_subset_with_both_argmins_is_equivalent():
    code = random_code(K=2, n_r=5, seed=16)
    rng = np.random.default_rng(10)
    r = rng.integers(0, 2, code.length).astype(np.uint8)
    d = code.wh(r)
    q = 2
    keep = set()
    for k in range(code.K):
        digit = code.digits[:, k]
        for i in range(q):
            bit = (digit >> (q - 1 - i)) & 1
            for side in (0, 1):
                sel = np.flatnonzero(bit == side)
                keep.add(int(sel[np.argmin(d[sel])]))
    cand = np.array(sorted(keep))
    np.testing.assert_allclose(
        compute_llrs(r, code, candidates=cand), compute_llrs(r, code)
    )


def test_llrs_single_candidate_saturates_at_its_label_bits():
    # with one candidate every bit has one empty side
    code = random_code(K=3, n_r=4, seed=17)
    rng = np.random.default_rng(11)
    r = rng.integers(0, 2, code.length).astype(np.uint8)
    for ell in (0, 37, 63):
        labels = bit_table(code.m)[code.digits[ell]]  # (K, q), MSB first
        np.testing.assert_array_equal(
            compute_llrs(r, code, candidates=[ell]),
            np.where(labels == 1, -LLR_CLAMP, LLR_CLAMP),
        )


def test_llrs_duplicate_candidates_match_deduplicated():
    # integer weights keep every distance exact, whatever rows share a product
    rng = np.random.default_rng(12)
    cw = rng.integers(0, 2, (16, 10))
    code = manual_code(cw, rng.integers(1, 8, (16, 10)), m=4, K=2)
    for _ in range(20):
        r = rng.integers(0, 2, code.length).astype(np.uint8)
        cand = rng.integers(0, code.size, 6)
        dup = np.concatenate([cand, cand[::-1], cand[:2]])
        np.testing.assert_array_equal(
            compute_llrs(r, code, dup), compute_llrs(r, code, np.unique(cand))
        )


@settings(max_examples=40, deadline=None)
@given(
    m=st.sampled_from((4, 16)),
    K=st.integers(1, 4),
    n_r=st.integers(1, 8),
    k=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_llrs_under_a_tree_keeping_every_node_equal_full_search(m, K, n_r, k, seed):
    # the soft twin of acceptance 02 over random codes and tree shapes
    K = min(K, 3) if m == 16 else K  # at most 4096 codewords
    code = random_code(K, n_r, m=m, seed=seed)
    rng = np.random.default_rng(seed)
    q = tuple(np.cumprod(k).tolist())  # q_l = q_{l-1} * k_l at every level
    tree = build_partition_tree(code, PartitionParams(tuple(k), q), rng)
    for r in (code.codewords[rng.integers(code.size)], rng.integers(0, 2, code.length)):
        r = r.astype(np.uint8)
        cand = preprocess(r, tree)
        np.testing.assert_array_equal(cand, np.arange(code.size))
        assert compute_llrs(r, code, cand).tobytes() == compute_llrs(r, code).tobytes()


def test_llrs_empty_candidates_raise():
    code = random_code(K=2, n_r=4, seed=16)
    with pytest.raises(ValueError, match="nonempty"):
        compute_llrs(code.codewords[0], code, candidates=[])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
@example(seed=211)
@example(seed=1767)
def test_llr_bit_to_message_consistency(seed):
    # the hard bits of a near-noiseless LLR block are the sent label bits
    rng = np.random.default_rng(seed)
    h_real = real_channel_matrix(sample_rayleigh(2, 8, rng))
    # SNR 5e4 gives the crossovers of noise std 1e-2 at SNR 10
    code = build_code(h_real, qam_constellation(4, 5e4))
    ell = int(rng.integers(code.size))
    r = code.codewords[ell]
    twins = np.flatnonzero((code.codewords == r).all(axis=1))
    if twins.size > 1:
        # twin codewords all lie at distance exactly 0, so the LLRs of bits
        # they disagree on are 0 in exact arithmetic; the decision is the
        # lowest twin
        assert wmd_decode(r, code) == twins[0]
        return
    hard = compute_llrs(r, code) < 0  # bit = 1 where P(1) > P(0)
    np.testing.assert_array_equal(hard, bit_table(4)[code.digits[ell]].astype(bool))


# ---------------------------------------------------------------------------
# one scorer for every decoder and soft output


def reference_forms(code):
    """Per-metric (weights, constant) whose mismatch sum is the reference, on the grid."""
    log_keep = np.log1p(-code.crossover)
    return {
        wmd_decode: _on_grid(code.weights),
        md_decode: _on_grid(np.ones_like(code.weights)),
        ml_decode: _on_grid(log_keep - np.log(code.crossover), -log_keep.sum(axis=1)),
    }


def linear_form_oracle(code, metric):
    """(base, gain) of the wh distances or log-likelihoods, built per metric on the grid."""
    c = code.codewords.astype(np.float64)
    if metric == "wh":
        v, const = _on_grid(code.weights)[0], np.zeros(code.size)
    else:  # log P(r | ell)
        v, const = _on_grid(
            np.log(code.crossover) - np.log1p(-code.crossover),
            np.log1p(-code.crossover).sum(axis=1),
        )
    return const + (v * c).sum(axis=1), v * (1.0 - 2.0 * c)


def llr_oracle_bitwise(r, code, cand):
    """LLRs from a gathered linear form and per-call label-bit masks."""
    base, gain = linear_form_oracle(code, "wh")
    d = base[cand] + gain[cand] @ r.astype(np.float64)
    bits = bit_table(code.m).astype(bool)[code.digits[cand]]  # per-call masks
    d3 = d[:, None, None]
    min1 = np.min(np.where(bits, d3, np.inf), axis=0)
    min0 = np.min(np.where(~bits, d3, np.inf), axis=0)
    return np.clip(min1 - min0, -LLR_CLAMP, LLR_CLAMP)


def app_oracle_bitwise(r, code, cand, mode):
    """APP table from a gathered linear form, one subcode at a time."""
    base, gain = linear_form_oracle(code, "loglik" if mode == "exact-sum" else "wh")
    score = base[cand] + gain[cand] @ r.astype(np.float64)
    if mode != "exact-sum":
        score = -score
    digits = code.digits[cand]
    log_mass = np.full((code.K, code.m), -np.inf)
    for k in range(code.K):
        for j in range(code.m):
            sel = score[digits[:, k] == j]
            if sel.size:
                log_mass[k, j] = sel.max() if mode == "wh-max" else logsumexp(sel)
    rows_max = log_mass.max(axis=1)
    table = np.exp(log_mass - rows_max[:, None])
    return table / table.sum(axis=1, keepdims=True)


@st.composite
def scoring_cases(draw):
    """(code, observation, candidates or None) over small random codes.

    Few antennas make twin codewords common, and SNR 5e4 (the crossovers of
    noise std 0.01 at SNR 10) puts many weights on the eps floor, so exact
    ties between distinct codewords occur.
    """
    m = draw(st.sampled_from((4, 16)))
    K = draw(st.integers(1, 4 if m == 4 else 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h_real = real_channel_matrix(sample_rayleigh(K, draw(st.integers(1, 6)), rng))
    code = build_code(h_real, qam_constellation(m, draw(st.sampled_from((10.0, 5e4)))))
    ell = int(rng.integers(code.size))
    r = code.codewords[ell].copy()
    if draw(st.booleans()):  # a noisy observation of c_ell
        r ^= (rng.random(code.length) < code.crossover[ell]).astype(np.uint8)
    cand = None
    if draw(st.booleans()):
        cand = rng.permutation(code.size)[: int(rng.integers(1, code.size + 1))]
    return code, r, cand


@settings(max_examples=200, deadline=None)
@given(case=scoring_cases())
def test_one_scorer_matches_references(case):
    code, r, cand = case
    order = np.arange(code.size) if cand is None else np.sort(cand)
    for decode, (v, const) in reference_forms(code).items():
        want = min(
            order,
            key=lambda j: (
                weighted_hamming(r, code.codewords[j], v[j])
                + (0.0 if const is None else const[j]),
                j,
            ),
        )
        assert decode(r, code, cand) == want, decode.__name__
    np.testing.assert_array_equal(compute_llrs(r, code, cand), llr_oracle_bitwise(r, code, order))
    for mode in APP_MODES:
        got = compute_app(r, code, cand, mode=mode)
        want = app_oracle_bitwise(r, code, order, mode)
        if cand is None or mode == "wh-max":
            np.testing.assert_array_equal(got, want)
        else:
            # pruned codewords enter the sums as exact zeros, which moves the
            # pairwise summation's split points by a rounding step
            np.testing.assert_array_equal(got == 0, want == 0)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(case=scoring_cases(), order_seed=st.integers(0, 2**16))
def test_hard_decisions_ignore_candidate_order_and_duplicates(case, order_seed):
    code, r, cand = case
    if cand is None:
        cand = np.arange(code.size)
    rng = np.random.default_rng(order_seed)
    shuffled = rng.permutation(np.concatenate([cand, rng.choice(cand, size=len(cand))]))
    for decode in (wmd_decode, md_decode, ml_decode):
        want = decode(r, code, np.sort(cand))
        assert decode(r, code, shuffled) == want, decode.__name__
        assert decode(r, code, shuffled[::-1]) == want, decode.__name__


@settings(max_examples=150, deadline=None)
@given(case=scoring_cases(), neg_seed=st.integers(0, 2**16))
def test_hard_decisions_on_negative_candidates_are_their_wrapped_indices(case, neg_seed):
    code, r, cand = case
    if cand is None:
        cand = np.arange(code.size)
    # a negative index names the codeword it counts to from the end
    neg = np.where(np.random.default_rng(neg_seed).random(len(cand)) < 0.5, cand - code.size, cand)
    for decode in (wmd_decode, md_decode, ml_decode):
        got = decode(r, code, neg)
        assert got == decode(r, code, neg % code.size) and 0 <= got < code.size, decode.__name__


@settings(max_examples=60, deadline=None)
@given(
    n_rx=st.sampled_from((6, 16)),
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(APP_MODES),
)
def test_soft_outputs_on_negative_candidates_are_their_wrapped_indices(n_rx, seed, mode):
    # a gathered score depends on its row's place in the gather, so a negative id must
    # take the place of its wrapped index (it used to differ in the last bit)
    rng = np.random.default_rng(seed)
    code = build_code(
        real_channel_matrix(sample_rayleigh(3, n_rx, rng)), qam_constellation(4, 10.0)
    )
    cand = rng.permutation(code.size)[: int(rng.integers(code.size // 4, code.size + 1))]
    neg = np.where(rng.random(cand.size) < 0.5, cand - code.size, cand)
    for r in (code.codewords[cand[0]], rng.integers(0, 2, code.length).astype(np.uint8)):
        wrapped = neg % code.size
        want = compute_llrs(r, code, wrapped)
        assert compute_llrs(r, code, neg).tobytes() == want.tobytes()
        want = compute_app(r, code, wrapped, mode)
        assert compute_app(r, code, neg, mode).tobytes() == want.tobytes()


def test_soft_outputs_refuse_candidates_outside_the_codebook():
    code = random_code(K=2, n_r=3, seed=1)
    r = code.codewords[0]
    for cand in ([0, code.size], [0, -code.size - 1]):
        with pytest.raises(IndexError):
            compute_llrs(r, code, np.array(cand))
        with pytest.raises(IndexError):
            compute_app(r, code, np.array(cand))


def test_hard_tie_over_negative_candidates_goes_to_the_lowest_wrapped_index():
    # every one of the 16 codewords ties, so the wrapped index alone decides
    code = manual_code(np.zeros((16, 4)), np.ones((16, 4)), m=4, K=2)
    r = np.zeros(4, dtype=np.uint8)
    for cand, want in (([-1], 15), ([3, -1], 3), ([3, 15], 3), ([-13, 15], 3), ([-16, -2], 0)):
        for decode in (wmd_decode, md_decode, ml_decode):
            assert decode(r, code, np.array(cand)) == want, (decode.__name__, cand)


def test_hard_tie_between_twins_goes_to_lowest_index_in_any_order():
    # codewords 1, 2 and 3 are exact twins with equal weights; 0 is farther
    cw = np.array([[1, 1, 1, 1], [0, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1]])
    code = manual_code(cw, np.tile([1.3, 1.7, 0.9, 2.2], (4, 1)), m=4, K=1)
    r = np.array([0, 1, 0, 0], dtype=np.uint8)
    for cand in ([3, 2, 1, 0], [3, 3, 2, 0, 2], [2, 3], [0, 3, 1, 1, 2]):
        want = min(set(cand) - {0})
        for decode in (wmd_decode, md_decode, ml_decode):
            assert decode(r, code, np.array(cand)) == want, (decode.__name__, cand)
