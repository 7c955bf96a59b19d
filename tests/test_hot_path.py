"""Equivalence of the per-slot and per-frame hot paths with their reference forms.

Each ``ref_*`` function below is the plain-numpy form of a hot-path function
(one array expression per step, the quantizer, scores, selector and syndrome
each in its own reference form).  The optimised functions must return the
same bytes: the same bits and generator state from ``transmit`` and
``transmit_pilots``, bitwise LLRs from ``compute_llrs``, the same
candidates and indices from ``preprocess`` and the hard decoders, the same
digits from ``zf_detect`` as from a pseudo-inverse taken per slot, the same
``(bits, converged)`` from ``decode_bp`` and ``decode_bit_flipping`` at every
iteration cap, the same
k-means distances from the packed popcount form, the same slot digits and
stream position as ``Generator.integers``, the same k-means seeds as
``Generator.choice``, and the same stats and data-stream state from each block
simulator, which sends a block (or a frame) into arrays with ``sim._send``
and then decides it with ``sim._decide``, as from a loop of its own that
sends and detects one slot per call.
"""

import dataclasses

import numpy as np
import pytest
from conftest import oracle_node_levels, random_code, write_alist
from hypothesis import given, settings
from hypothesis import strategies as st

from onebit_mimo import partition, sim
from onebit_mimo.channel import (
    NOISE_STD,
    generate_pilots,
    quantize,
    sample_rayleigh,
    transmit,
    transmit_pilots,
)
from onebit_mimo.config import SimConfig
from onebit_mimo.core import (
    bit_table,
    bits_per_symbol,
    modulate,
    qam_constellation,
    real_channel_matrix,
    real_stack,
)
from onebit_mimo.detector import (
    LLR_CLAMP,
    _nearest,
    compute_llrs,
    md_decode,
    ml_decode,
    wmd_decode,
    zf_detect,
)
from onebit_mimo.errors import CodeConstructionError
from onebit_mimo.ldpc import (
    _TANH_LIM,
    DECODE_MAX_ITER,
    code_from_parity_check,
    construct_code,
    decode_bit_flipping,
    decode_bp,
    encode,
    parse_alist,
    syndrome,
)
from onebit_mimo.partition import (
    PartitionParams,
    _hamming,
    _pack_rows,
    _seed_centroids,
    build_partition_tree,
    preprocess,
    require_valid_params,
)
from onebit_mimo.sim import run_uncoded

pytestmark = pytest.mark.byte_identity
# ---------------------------------------------------------------------------
# reference forms


def ref_quantize(v):
    return (np.asarray(v) < 0).astype(np.uint8)


def ref_score(score, r, rows=None):
    rf = np.asarray(r, dtype=np.float64)
    if rows is None:
        return score.base + score.gain @ rf
    return score.base[rows] + score.gain[rows] @ rf


def ref_syndrome(code, bits):
    return np.bitwise_and(
        np.add.reduceat(np.asarray(bits, dtype=np.int64)[code.edge_var], code.check_start), 1
    )


def ref_transmit(h_real, w, constellation, rng):
    x = real_stack(modulate(w, constellation))
    v = h_real @ x
    v = v + rng.normal(0.0, NOISE_STD, size=v.shape)
    return ref_quantize(v)


def ref_transmit_pilots(h_real, pilots, rng):
    obs = np.empty((pilots.shape[1], h_real.shape[0]), dtype=np.uint8)
    for t in range(pilots.shape[1]):
        v = h_real @ real_stack(pilots[:, t])
        obs[t] = ref_quantize(v + rng.normal(0.0, NOISE_STD, size=v.shape))
    return obs


def ref_compute_llrs(r, code, candidates=None):
    score = code.wh
    if candidates is None:
        d = ref_score(score, r)
    else:
        cand = np.sort(np.asarray(candidates, dtype=np.int64))
        d = np.full(code.size, np.inf)
        d[cand] = ref_score(score, r, cand)
    flat, _ = code.side_runs
    side_min = d[flat.reshape(2, -1, code.size // 2)].min(axis=2)
    return (side_min[1] - side_min[0]).clip(-LLR_CLAMP, LLR_CLAMP).reshape(code.K, -1)


def ref_smallest(r, f, q, centroids, weights):
    """The q rows ranked first by (exact distance, row), resolving only the band near the q-th.

    The band's distances and its width come from the oracle's centroids and
    weights, not from the level's score.
    """
    eps = np.finfo(np.float64).eps
    tol = 8.0 * weights.shape[1] * eps * float(np.abs(weights).sum(axis=1).max())
    c = f.min() if q == 1 else np.partition(f, q - 1)[q - 1]
    keep = f <= c + tol
    if np.count_nonzero(keep) > q:
        band = np.flatnonzero(keep & (f >= c - tol))
        keep[band] = False
        need = q - np.count_nonzero(keep)
        exact = [float(weights[j][centroids[j] != r].sum()) for j in band]
        keep[band[np.lexsort((band, exact))[:need]]] = True
    return keep


def ref_nearest(r, code, candidates, metric):
    """The smallest exact score, then the lowest wrapped index."""
    rows = np.arange(code.size) if candidates is None else np.asarray(candidates) % code.size
    f = ref_score(getattr(code, metric), r, rows)
    return int(rows[np.lexsort((rows, f))[0]])


def ref_zf_detect(r, h_real, constellation):
    """ZF that takes the channel's pseudo-inverse itself, on every slot."""
    y = 1.0 - 2.0 * np.asarray(r, dtype=float)
    x_hat = np.linalg.pinv(h_real) @ y
    K = x_hat.shape[0] // 2
    s = x_hat[:K] + 1j * x_hat[K:]
    rms = np.sqrt(np.mean(np.abs(s) ** 2))
    if rms > 0:
        s = s * np.sqrt(constellation.snr) / rms
    dist = np.abs(s[:, None] - constellation.points[None, :])
    return np.argmin(dist, axis=1)


def ref_preprocess(r, code, tree, q=None):
    if q is None:
        q = tree.params.q
    else:
        require_valid_params(PartitionParams(k=tree.params.k, q=q))
    r = np.asarray(r)
    rf = r.astype(np.float64)
    alive = np.ones(1, dtype=bool)
    oracle = oracle_node_levels(code, tree)
    for (parent, score, _), (centroids, weights), q_l in zip(tree.arrays, oracle, q):
        racing = alive[parent]
        n_racing = np.count_nonzero(racing)
        if q_l >= n_racing:
            alive = racing
            continue
        f = ref_score(score, rf)
        if n_racing < racing.size:
            f[~racing] = np.inf
        alive = ref_smallest(r, f, q_l, centroids, weights)
    return np.flatnonzero(alive[tree.leaf_of])


def ref_pairwise_hamming(p, p_ones, c):
    """k-means assignment distances of float 0/1 rows, by the dot-product identity."""
    return p_ones[:, None] + c.sum(axis=1) - 2.0 * (p @ c.T)


def ref_dist_to(p, p_ones, seed):
    """k-means seeding distances of every row to row ``seed``."""
    return p_ones + p_ones[seed] - 2.0 * (p @ p[seed])


def ref_seed_centroids(pw, k, rng):
    """k-means seeding that draws each weighted seed with ``Generator.choice``."""
    n = len(pw)
    seeds = [int(rng.integers(n))]
    d_min = _hamming(pw, pw[seeds[-1]])
    while len(seeds) < k:
        total = d_min.sum()
        if total == 0:
            seeds.append(int(rng.integers(n)))
        else:
            seeds.append(int(rng.choice(n, p=d_min / total)))
        d_min = np.minimum(d_min, _hamming(pw, pw[seeds[-1]]))
    return seeds


def ref_uncoded_block(cfg, snr_idx, block, shared):
    """The uncoded block whose slots draw their digits with ``Generator.integers``."""
    blk = sim._setup_block(cfg, snr_idx, block, shared)
    m, K, draw = cfg.m, cfg.n_users, blk.rng_data.integers
    stats = sim.BlockStats(trials=cfg.t_d)
    digits = (draw(0, m, size=K) for _ in range(cfg.t_d))
    sent, obs = sim._send(blk, digits, cfg.t_d)
    bits = sim._decide(cfg, blk, obs, stats)
    stats.errors = int((bit_table(m)[sent] ^ bits).sum())
    stats.denominator = bits.size
    return stats


def ref_detect_slot(cfg, blk, w, stats):
    """One slot sent and detected on its own: the decided digits (K,) or soft-wmd's LLRs (K, q)."""
    r = transmit(blk.h_true, w, blk.const, blk.rng_data)
    stats.cand_slots += 1
    detector, code, tree = cfg.detector, blk.code, blk.tree
    if detector == "zf":
        return zf_detect(r, blk.h_pinv, blk.const)
    if tree is None:
        cand = None
        stats.cand_sum += code.size
    else:
        cand = preprocess(r, tree)
        stats.cand_sum += cand.size
    if detector == "soft-wmd":
        return compute_llrs(r, code, cand)
    return code.digits[sim._HARD_DECODERS[detector](r, code, cand)]


def ref_slot_loop_uncoded_block(cfg, snr_idx, block):
    """The uncoded block with its own loop over ``ref_detect_slot``; digits become bits last."""
    blk = sim._setup_block(cfg, snr_idx, block)
    digits = sim._slot_digits(blk.rng_data, cfg.m, cfg.n_users)
    sent = np.empty((cfg.t_d, cfg.n_users), dtype=np.int64)
    decided = np.empty_like(sent)
    stats = sim.BlockStats(trials=cfg.t_d)
    for t in range(cfg.t_d):
        sent[t] = next(digits)
        decided[t] = ref_detect_slot(cfg, blk, sent[t], stats)
    lut = bit_table(cfg.m)
    stats.errors = int((lut[sent] ^ lut[decided]).sum())
    stats.denominator = cfg.t_d * cfg.n_users * bits_per_symbol(cfg.m)
    return stats


def ref_slot_loop_coded_block(cfg, snr_idx, block):
    """The coded block with its own loop over ``ref_detect_slot`` into one row buffer per block."""
    blk = sim._setup_block(cfg, snr_idx, block)
    ldpc, frames = sim._ldpc_layout(cfg)
    q = bits_per_symbol(cfg.m)
    slots_per_frame = ldpc.n // q
    soft = cfg.detector == "soft-wmd"
    decoder = decode_bp if soft else decode_bit_flipping
    lut = bit_table(cfg.m)
    stats = sim.BlockStats(trials=frames * cfg.n_users, denominator=frames * cfg.n_users)
    if soft:
        rows = np.empty((slots_per_frame, cfg.n_users, q))
    else:
        rows = np.empty((slots_per_frame, cfg.n_users), dtype=np.int64)
    for _ in range(frames):
        msgs = blk.rng_data.integers(0, 2, size=(cfg.n_users, ldpc.k))
        cws = encode(ldpc, msgs)
        symbols = (cws.reshape(cfg.n_users, slots_per_frame, q) @ 2 ** np.arange(q)).T
        for t, w in enumerate(symbols):
            rows[t] = ref_detect_slot(cfg, blk, w, stats)
        frame = rows if soft else lut[rows]
        frame = frame[:, :, ::-1].transpose(1, 0, 2).reshape(cfg.n_users, ldpc.n)
        for u in range(cfg.n_users):
            decoded, _ = decoder(frame[u], ldpc, DECODE_MAX_ITER)
            stats.errors += int(np.any(decoded != cws[u]))
    return stats


def ref_decode_bp(llrs, code, max_iter=50):
    llrs = np.asarray(llrs, dtype=np.float64)
    if not llrs.any():
        return np.zeros(code.n, dtype=np.uint8), False
    ev, ec, start = code.edge_var, code.edge_check, code.check_start
    msg_cv = np.zeros(len(ev))
    total = llrs.copy()
    bits = (total < 0).astype(np.uint8)
    if not ref_syndrome(code, bits).any():
        return bits, True
    for _ in range(max_iter):
        t = np.tanh(0.5 * (total[ev] - msg_cv))
        mag = np.abs(t)
        is_zero = mag < 1e-300
        logm = np.where(is_zero, 0.0, np.log(np.maximum(mag, 1e-300)))
        neg = t < 0.0
        log_sum = np.add.reduceat(logm, start)
        zero_sum = np.add.reduceat(is_zero.astype(np.int64), start)
        neg_sum = np.add.reduceat(neg.astype(np.int64), start)
        excl_zero = zero_sum[ec] - is_zero
        excl_sign = np.where((neg_sum[ec] - neg) % 2 == 0, 1.0, -1.0)
        prod = np.where(excl_zero > 0, 0.0, excl_sign * np.exp(log_sum[ec] - logm))
        msg_cv = 2.0 * np.arctanh(np.clip(prod, -_TANH_LIM, _TANH_LIM))
        total = llrs.copy()
        np.add.at(total, ev, msg_cv)
        bits = (total < 0).astype(np.uint8)
        if not ref_syndrome(code, bits).any():
            return bits, True
    return bits, False


def ref_decode_bit_flipping(bits, code, max_iter=50):
    """Bit flipping that counts unsatisfied checks with ``np.add.at``."""
    bits = np.array(bits, dtype=np.uint8)
    for _ in range(max_iter):
        synd = ref_syndrome(code, bits)
        if not synd.any():
            return bits, True
        unsat = np.zeros(code.n, dtype=np.int64)
        np.add.at(unsat, code.edge_var, synd[code.edge_check])
        flip = 2 * unsat > code.col_degree
        if not flip.any():
            return bits, False
        bits[flip] ^= 1
    return bits, not ref_syndrome(code, bits).any()


# ---------------------------------------------------------------------------
# slot-level paths: transmit, soft LLRs, hard decisions, pruning


@st.composite
def slot_cases(draw):
    """A code (K 1..4, m 4 or 16, at most 4096 codewords) with a candidate set or None."""
    m = draw(st.sampled_from((4, 16)))
    K = draw(st.integers(1, 4 if m == 4 else 3))
    n_r = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**16))
    code = random_code(K, n_r, m=m, snr_db=draw(st.sampled_from((-5.0, 5.0, 20.0))), seed=seed)
    cand = None
    if draw(st.booleans()):
        rng = np.random.default_rng(seed + 1)
        size = draw(st.integers(1, code.size))
        cand = rng.choice(code.size, size=size, replace=False)  # unsorted on purpose
    return code, cand, seed


@settings(max_examples=80, deadline=None)
@given(
    m=st.sampled_from((4, 16)),
    K=st.integers(1, 4),
    n_r=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_transmit_matches_reference(m, K, n_r, seed):
    rng = np.random.default_rng(seed)
    const = qam_constellation(m, 10.0 ** (rng.uniform(-5, 20) / 10))
    h = real_channel_matrix(sample_rayleigh(K, n_r, rng))
    ref_rng, new_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    for _ in range(5):
        w = rng.integers(0, m, size=K)
        expected = ref_transmit(h, w, const, ref_rng)
        got = transmit(h, w, const, new_rng)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
    assert new_rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=80, deadline=None)
@given(
    K=st.integers(1, 8),
    n_r=st.integers(1, 32),
    reps=st.integers(1, 4),
    snr_db=st.floats(-10, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_transmit_pilots_matches_reference(K, n_r, reps, snr_db, seed):
    rng = np.random.default_rng(seed)
    h = real_channel_matrix(sample_rayleigh(K, n_r, rng))
    pilots = generate_pilots(K, K * reps, 10.0 ** (snr_db / 10))
    ref_rng, new_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    expected = ref_transmit_pilots(h, pilots, ref_rng)
    got = transmit_pilots(h, pilots, new_rng)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    assert new_rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=80, deadline=None)
@given(case=slot_cases())
def test_compute_llrs_matches_reference(case):
    code, cand, seed = case
    rng = np.random.default_rng(seed)
    observations = [code.codewords[rng.integers(code.size)], rng.integers(0, 2, code.length)]
    for r in observations:
        r = r.astype(np.uint8)
        expected = ref_compute_llrs(r, code, cand)
        got = compute_llrs(r, code, cand)
        assert got.shape == expected.shape == (code.K, code.m.bit_length() - 1)
        assert got.tobytes() == expected.tobytes()


@settings(max_examples=80, deadline=None)
@given(case=slot_cases(), metric=st.sampled_from(("wh", "hamming", "nll")))
def test_hard_decision_matches_reference(case, metric):
    code, cand, seed = case
    rng = np.random.default_rng(seed)
    # a noiseless codeword ties with every duplicate of its pattern
    for r in (code.codewords[rng.integers(code.size)], rng.integers(0, 2, code.length)):
        assert _nearest(r, getattr(code, metric), cand) == ref_nearest(r, code, cand, metric)


def test_hard_decision_ties_go_to_the_lowest_index():
    # one antenna: 16 codewords share 4 patterns, so every decision is a tie
    code = random_code(K=2, n_r=1, seed=4)
    for r in ((0, 0), (0, 1), (1, 0), (1, 1)):
        r = np.array(r, dtype=np.uint8)
        for cand in (None, np.arange(code.size)[::-1]):
            got = _nearest(r, code.hamming, cand)
            assert got == ref_nearest(r, code, cand, "hamming")
            assert got == int(np.flatnonzero((code.codewords != r).sum(axis=1) == 0)[0])


@settings(max_examples=80, deadline=None)
@given(
    m=st.sampled_from((4, 16)),
    K=st.integers(1, 6),
    n_r=st.integers(1, 32),
    kind=st.sampled_from(("full", "zero", "rank-deficient")),
    seed=st.integers(0, 2**32 - 1),
)
def test_zf_detect_matches_reference(m, K, n_r, kind, seed):
    # pinv of a zero or rank-deficient channel is a result, not an error
    rng = np.random.default_rng(seed)
    const = qam_constellation(m, 10.0 ** rng.uniform(-1.0, 2.0))
    h_real = real_channel_matrix(sample_rayleigh(K, n_r, rng))
    if kind == "zero":
        h_real[:] = 0.0
    elif kind == "rank-deficient":
        h_real[:, -1] = h_real[:, 0]
    h_pinv = np.linalg.pinv(h_real)
    for _ in range(5):
        r = rng.integers(0, 2, 2 * n_r).astype(np.uint8)
        got, want = zf_detect(r, h_pinv, const), ref_zf_detect(r, h_real, const)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    m=st.sampled_from((4, 16)),
    K=st.integers(1, 4),
    n_r=st.integers(1, 8),
    k=st.lists(st.integers(1, 9), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_preprocess_matches_reference(m, K, n_r, k, seed):
    K = min(K, 3) if m == 16 else K  # at most 4096 codewords
    code = random_code(K, n_r, m=m, seed=seed)
    rng = np.random.default_rng(seed)
    q, prev = [], 1
    for k_l in k:
        prev = int(rng.integers(1, prev * k_l + 1))
        q.append(prev)
    tree = build_partition_tree(code, PartitionParams(k=tuple(k), q=tuple(q)), rng)
    for r in (code.codewords[rng.integers(code.size)], rng.integers(0, 2, code.length)):
        r = r.astype(np.uint8)
        assert np.array_equal(preprocess(r, tree), ref_preprocess(r, code, tree))
        override = tuple(min(q_l, 1 + q_l // 2) for q_l in q)
        got = preprocess(r, tree, q=override)
        assert np.array_equal(got, ref_preprocess(r, code, tree, q=override))
        assert got.dtype == np.intp


@settings(max_examples=60, deadline=None)
@given(case=slot_cases(), k=st.lists(st.integers(1, 9), min_size=1, max_size=2))
def test_slot_path_output_does_not_depend_on_the_observation_dtype(case, k):
    # preprocess and the scores pass r to ndarray.dot uncast: a 0/1 r of any dtype
    # must give the uint8 observation's candidates, indices and LLR bytes
    code, cand, seed = case
    rng = np.random.default_rng(seed)
    q = tuple(max(1, k_l // 2) for k_l in k)
    tree = build_partition_tree(code, PartitionParams(k=tuple(k), q=q), rng)

    def outputs(r):
        pruned = preprocess(r, tree)
        out = [pruned.tobytes()]
        for c in (None, cand, pruned):
            out += [decode(r, code, c) for decode in (wmd_decode, md_decode, ml_decode)]
            out.append(compute_llrs(r, code, c).tobytes())
        return out

    for r in (code.codewords[rng.integers(code.size)], rng.integers(0, 2, code.length)):
        want = outputs(r.astype(np.uint8))
        for dtype in (bool, np.int64, np.float64):
            assert outputs(r.astype(dtype)) == want, dtype


# ---------------------------------------------------------------------------
# tree build: k-means distances


@pytest.mark.parametrize("length", range(2, 131))
def test_packed_hamming_matches_reference(length):
    # a padded last byte, one word, and several words with a padded tail
    rng = np.random.default_rng(length)
    bits = rng.integers(0, 2, (24, length)).astype(np.uint8)
    bits[0], bits[1] = 0, 1  # no bit set; every bit set
    centroids = np.vstack([bits[:3], rng.integers(0, 2, (5, length))]).astype(np.uint8)
    p = bits.astype(np.float64)
    p_ones = p.sum(axis=1)
    pw = _pack_rows(bits)
    assert pw.dtype == np.uint64 and pw.shape == (len(bits), -(-length // 64))
    got = _hamming(pw[:, None], _pack_rows(centroids))
    assert np.array_equal(got, ref_pairwise_hamming(p, p_ones, centroids.astype(np.float64)))
    for seed in range(len(bits)):
        got = _hamming(pw, pw[seed])
        expected = ref_dist_to(p, p_ones, seed)
        assert np.array_equal(got, expected)
        # seeding draws with d / d.sum(): the same float64 vector from either dtype
        if expected.sum():
            assert (got / got.sum()).tobytes() == (expected / expected.sum()).tobytes()


@st.composite
def packed_rows(draw):
    """Bit-packed rows (1..40 of 1..130 bits), some or all of them coincident."""
    n = draw(st.integers(1, 40))
    length = draw(st.integers(1, 130))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    bits = rng.integers(0, 2, (n, length)).astype(np.uint8)
    kind = draw(st.sampled_from(("distinct", "twins", "coincident")))
    if kind == "twins":
        bits = bits[rng.integers(0, max(1, n // 3), n)]
    elif kind == "coincident":
        bits[:] = bits[0]
    return _pack_rows(bits)


@settings(max_examples=200, deadline=None)
@given(pw=packed_rows(), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_seed_centroids_match_choice(pw, data, seed):
    k = data.draw(st.one_of(st.just(len(pw)), st.integers(1, len(pw))), label="k")
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _seed_centroids(pw, k, rng) == ref_seed_centroids(pw, k, ref)
    assert rng.bit_generator.state == ref.bit_generator.state


def _assert_same_tree(a, b):
    assert len(a.arrays) == len(b.arrays)
    for (parent, score, tol), (o_parent, o_score, o_tol) in zip(a.arrays, b.arrays):
        np.testing.assert_array_equal(parent, o_parent)
        assert score.base.tobytes() == o_score.base.tobytes()
        assert score.gain.tobytes() == o_score.gain.tobytes()
        assert tol == o_tol
    np.testing.assert_array_equal(a.leaf_of, b.leaf_of)


def _tree_with_choice_seeds(code, params, seed):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partition, "_seed_centroids", ref_seed_centroids)
        return build_partition_tree(code, params, np.random.default_rng(seed))


SWEEP_ARMS = [PartitionParams((16,), (8,)), PartitionParams((16,), (4,)), PartitionParams((8, 8), (4, 8))]


@pytest.mark.parametrize("params", SWEEP_ARMS, ids=PartitionParams.label)
@pytest.mark.parametrize("seed", range(4))
def test_tree_at_the_sweep_config_matches_choice_seeding(params, seed):
    code = random_code(K=4, n_r=32, m=4, snr_db=5.0, seed=seed)
    tree = build_partition_tree(code, params, np.random.default_rng(seed))
    _assert_same_tree(tree, _tree_with_choice_seeds(code, params, seed))


@settings(max_examples=40, deadline=None)
@given(
    m=st.sampled_from((4, 16)),
    K=st.integers(1, 3),
    n_r=st.integers(1, 40),
    k=st.lists(st.integers(1, 12), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_tree_on_random_codes_matches_choice_seeding(m, K, n_r, k, seed):
    code = random_code(K=K, n_r=n_r, m=m, seed=seed)
    params = PartitionParams(tuple(k), tuple([1] * len(k)))
    tree = build_partition_tree(code, params, np.random.default_rng(seed))
    _assert_same_tree(tree, _tree_with_choice_seeds(code, params, seed))


# ---------------------------------------------------------------------------
# data stream: slot digits


@settings(max_examples=150, deadline=None)
@given(
    m=st.sampled_from((4, 16, 64, 256, 1024)),
    K=st.integers(1, 8),
    noise=st.lists(st.integers(0, 40), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_slot_digits_match_integers(m, K, noise, seed):
    # each slot's noise draw of a random length sits between two digit draws
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    digits = sim._slot_digits(rng, m, K)
    for n in noise:
        assert next(digits) == ref.integers(0, m, size=K).tolist()
        assert rng.normal(0.0, NOISE_STD, n).tobytes() == ref.normal(0.0, NOISE_STD, n).tobytes()
    # the same stream position; only the reference fills the generator's 32-bit buffer
    assert rng.bit_generator.state["state"] == ref.bit_generator.state["state"]
    assert not rng.bit_generator.state["has_uint32"]


def test_slot_digits_reject_other_bit_generators():
    # MT19937 draws 32 bits natively, so its digits are not the halves of raw words
    with pytest.raises(TypeError, match="PCG64"):
        sim._slot_digits(np.random.Generator(np.random.MT19937(1)), 4, 2)


def test_send_refuses_digits_that_run_out():
    # no slot of the block is left unsent (an uninitialised row) when the digits end early
    blk = sim._setup_block(SimConfig(n_users=2, n_rx=4, t_c=8, t_d=8, seed=1), 0, 0)
    sent, obs = sim._send(blk, np.ones((4, 2), dtype=np.int64), 4)
    assert sent.tolist() == [[1, 1]] * 4 and obs.shape == (4, 8) and obs.dtype == np.uint8
    with pytest.raises(ValueError, match="after 3 of 4 slots"):
        sim._send(blk, np.ones((3, 2), dtype=np.int64), 4)


@pytest.mark.parametrize("K", (3, 5))
@pytest.mark.parametrize(
    "detector, partition_spec", [("wmd", None), ("wmd", {"k": [8], "q": [2]}), ("zf", None)]
)
def test_run_uncoded_matches_the_integers_slot_loop(K, detector, partition_spec):
    # an odd K carries a spare half-word from slot to slot, which the goldens never do
    cfg = SimConfig(
        n_users=K,
        n_rx=8,
        detector=detector,
        partition=partition_spec,
        snr_db=(0.0, 6.0),
        t_c=41,
        t_d=41,
        trials=120,
        target_errors=10**9,
        wave=2,
        seed=K,
    )
    got = run_uncoded(cfg)
    want = sim._run_lockstep([cfg], ref_uncoded_block, "ber")[0]
    assert [r.to_csv() for r in got] == [r.to_csv() for r in want]
    assert all(r.errors for r in got)


def _slot_loop_cases():
    """(metric, detector, partition, csir, frames_per_block) for each block simulator."""
    arms = {"ber": ("wmd", "md", "ml", "zf"), "fer": ("soft-wmd", "wmd", "zf")}
    for metric, detectors in arms.items():
        for detector in detectors:
            for spec in (None,) if detector == "zf" else (None, {"k": [4], "q": [2]}):
                for csir in ("perfect", "estimated"):
                    for frames in (1, 2) if metric == "fer" else (None,):
                        yield metric, detector, spec, csir, frames


@pytest.mark.parametrize("metric, detector, partition_spec, csir, frames", _slot_loop_cases())
def test_block_simulators_match_their_own_slot_loops(
    metric, detector, partition_spec, csir, frames, monkeypatch
):
    # the stats and the data stream's end state of each block, over both SNR points
    t_t = 4 if csir == "estimated" else 0
    cfg = SimConfig(
        n_users=2,
        n_rx=4,
        detector=detector,
        partition=partition_spec,
        csir=csir,
        snr_db=(-4.0, 4.0),
        t_t=t_t,
        t_c=t_t + 48,
        t_d=48,
        ldpc_n=48,
        frames_per_block=frames,
        seed=13,
    )
    new, ref = {
        "ber": (sim._uncoded_block, ref_slot_loop_uncoded_block),
        "fer": (sim._coded_block, ref_slot_loop_coded_block),
    }[metric]
    blocks = []
    setup = sim._setup_block
    monkeypatch.setattr(sim, "_setup_block", lambda *key: blocks.append(setup(*key)) or blocks[-1])
    errors = 0
    for snr_idx, block in ((0, 0), (0, 1), (1, 0)):
        got, want = new(cfg, snr_idx, block), ref(cfg, snr_idx, block)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)
        assert blocks[-2].rng_data.bit_generator.state == blocks[-1].rng_data.bit_generator.state
        errors += got.errors
    assert errors


# ---------------------------------------------------------------------------
# frame-level path: BP decoding


def _irregular_alist_code():
    """A code read from alist text whose checks have degrees 9 to 16."""
    rng = np.random.default_rng(11)
    while True:
        h = (rng.random((24, 64)) < 0.2).astype(np.uint8)
        degrees = h.sum(axis=1)
        if degrees.min() >= 9 and h.sum(axis=0).min() >= 1:
            try:
                return code_from_parity_check(parse_alist(write_alist(h)))
            except CodeConstructionError:  # rank deficient: draw again
                continue


CODES = {
    "n128": construct_code(128, 0.5, 7),
    "n672": construct_code(672, 0.5, 7),
    "irregular": _irregular_alist_code(),
}
CAPS = (0, 1, 2, 3, 5, 8, 50)


def _assert_same_decoding(llrs, code):
    """Equal (bits, converged) at every cap, hence the same iteration count."""
    for cap in CAPS:
        expected = ref_decode_bp(llrs, code, cap)
        got = decode_bp(llrs, code, cap)
        assert got[0].dtype == np.uint8 and got[0].shape == (code.n,)
        assert got[0].tobytes() == expected[0].tobytes()
        assert bool(got[1]) is bool(expected[1])


def test_irregular_code_has_high_degree_checks():
    assert CODES["irregular"].h.sum(axis=1).max() > 8


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(CODES)),
    sigma=st.sampled_from((0.5, 0.9, 1.2, 2.0)),
    zeros=st.sampled_from(("none", "some", "subnormal", "check")),
    seed=st.integers(0, 2**32 - 1),
)
def test_decode_bp_matches_reference(name, sigma, zeros, seed):
    code = CODES[name]
    rng = np.random.default_rng(seed)
    cw = encode(code, rng.integers(0, 2, code.k))
    llrs = 2.0 * ((1.0 - 2.0 * cw) + sigma * rng.standard_normal(code.n)) / sigma**2
    llrs = np.clip(llrs, -LLR_CLAMP, LLR_CLAMP)
    if zeros == "some":  # tanh inputs exactly 0 in the first iteration
        llrs[rng.choice(code.n, size=3, replace=False)] = 0.0
    elif zeros == "subnormal":  # magnitudes below 1e-300 that are not 0
        llrs[rng.choice(code.n, size=3, replace=False)] = 5e-310
    elif zeros == "check":  # two zero inputs on one check, one zero on another
        ev, ec = code.edge_var, code.edge_check
        llrs[ev[ec == 0][:2]] = 0.0
        llrs[ev[ec == 1][0]] = -0.0
    _assert_same_decoding(llrs, code)


@pytest.mark.parametrize("name", sorted(CODES))
def test_decode_bp_edge_inputs_match_reference(name):
    code = CODES[name]
    _assert_same_decoding(np.zeros(code.n), code)  # rejected at once
    _assert_same_decoding(np.full(code.n, LLR_CLAMP), code)  # already a codeword
    one = np.full(code.n, 4.0)
    one[0] = 0.0  # a single zero input
    _assert_same_decoding(one, code)
    flipped = np.full(code.n, 4.0)
    flipped[:5] = -4.0  # a few wrong signs for BP to correct
    _assert_same_decoding(flipped, code)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(CODES)),
    p=st.sampled_from((0.0, 0.01, 0.03, 0.08, 0.5)),
    seed=st.integers(0, 2**32 - 1),
)
def test_decode_bit_flipping_matches_reference(name, p, seed):
    # a codeword with each bit flipped with probability p
    code = CODES[name]
    rng = np.random.default_rng(seed)
    word = encode(code, rng.integers(0, 2, code.k)) ^ (rng.random(code.n) < p)
    for cap in CAPS:
        expected = ref_decode_bit_flipping(word, code, cap)
        got = decode_bit_flipping(word, code, cap)
        assert got[0].dtype == np.uint8 and got[0].tobytes() == expected[0].tobytes()
        assert bool(got[1]) is bool(expected[1])


# ---------------------------------------------------------------------------
# shared steps the hot paths call: quantizer, scores, syndrome


@pytest.mark.parametrize("name", sorted(CODES))
def test_syndrome_matches_reference_for_every_word_dtype(name):
    code = CODES[name]
    rng = np.random.default_rng(5)
    words = [rng.integers(0, 2, code.n) for _ in range(20)]
    words.append(encode(code, rng.integers(0, 2, code.k)))
    for word in words:
        expected = ref_syndrome(code, word)
        for form in (word, word.astype(np.uint8), word.astype(bool), word.tolist()):
            got = syndrome(code, form)
            assert np.array_equal(got.astype(np.int64), expected)


@settings(max_examples=40, deadline=None)
@given(case=slot_cases())
def test_quantize_and_scores_match_reference(case):
    code, cand, seed = case
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(code.length)
    v[: code.length // 3] = 0.0  # the quantizer sends 0 to bit 0
    assert quantize(v).tobytes() == ref_quantize(v).tobytes()
    score = code.wh
    for r in (quantize(v), rng.integers(0, 2, code.length), rng.integers(0, 2, code.length) > 0):
        assert score(r).tobytes() == ref_score(score, r).tobytes()
        if cand is not None:
            assert score(r, cand).tobytes() == ref_score(score, r, cand).tobytes()
