"""LDPC construction, encoding, BP / bit-flipping decoding and alist I/O."""

import hashlib

import numpy as np
import pytest

from onebit_mimo import ldpc
from onebit_mimo.errors import CodeConstructionError, ConfigurationError
from onebit_mimo.ldpc import (
    CHECK_DEGREE,
    VAR_DEGREE,
    code_from_parity_check,
    construct_code,
    decode_bit_flipping,
    decode_bp,
    encode,
    load_alist,
    parse_alist,
    save_alist,
    syndrome,
    write_alist,
)


@pytest.fixture(scope="module")
def code672():
    return construct_code(672, rate=0.5, seed=7)


@pytest.fixture(scope="module")
def code128():
    return construct_code(128, rate=0.5, seed=7)


def bsc_llrs(bits, p):
    """Channel LLRs log(P(0)/P(1)) for a binary symmetric channel."""
    return (1.0 - 2.0 * bits.astype(np.float64)) * np.log((1 - p) / p)


# ---------------------------------------------------------------------------
# construction


def test_construction_dimensions(code672):
    assert code672.h.shape == (336, 672)
    assert code672.generator.shape == (336, 672)
    assert code672.k == 336
    assert code672.rate == pytest.approx(0.5)


def test_construction_is_regular(code672):
    np.testing.assert_array_equal(code672.h.sum(axis=1), CHECK_DEGREE)
    np.testing.assert_array_equal(code672.h.sum(axis=0), VAR_DEGREE)


def test_generator_satisfies_checks(code672):
    assert not np.any((code672.generator @ code672.h.T) % 2)


def test_no_parallel_edges_and_no_four_cycles(code672, code128):
    for code in (code672, code128):
        h = code.h.astype(np.int64)
        overlap = h @ h.T  # pairwise check-row overlaps
        np.fill_diagonal(overlap, 0)
        # two checks sharing >= 2 variables would close a 4-cycle
        assert overlap.max() <= 1
        assert code.h.max() <= 1  # no parallel edges collapsed into the matrix


def _find_bad_edge_loop(ev, ec):
    """Reference bad-edge search: one walk over the edges with Python dicts."""
    seen = {}
    for e, (v, c) in enumerate(zip(ev, ec)):
        key = (v, c)
        if key in seen:
            return e
        seen[key] = e
    pair_seen = {}
    rows = [[] for _ in range(int(ec.max()) + 1)]
    for e, c in enumerate(ec):
        rows[c].append(e)
    for row in rows:
        row_sorted = sorted(row, key=lambda e: ev[e])
        for i in range(len(row_sorted)):
            for j in range(i + 1, len(row_sorted)):
                key = (ev[row_sorted[i]], ev[row_sorted[j]])
                if key in pair_seen:
                    return row_sorted[j]
                pair_seen[key] = row_sorted[j]
    return None


# n=48 needs thousands of repair rounds per seed, so two seeds cover it
@pytest.mark.parametrize("n, seeds", [(48, [1, 3]), (96, range(5)), (128, range(5))])
def test_bad_edge_scan_matches_the_loop_on_every_repair_round(monkeypatch, n, seeds):
    scan = ldpc._find_bad_edge
    graphs = []

    def checked(ev, ec):
        graphs.append(ev.size)
        got = scan(ev, ec)
        assert got == _find_bad_edge_loop(ev, ec)
        return got

    monkeypatch.setattr(ldpc, "_find_bad_edge", checked)
    for seed in seeds:
        construct_code(n, seed=seed)
    assert len(graphs) > 30 * len(seeds)  # intermediate graphs, not just the final ones


@pytest.fixture(scope="module")
def code48():
    # the repair's stale edge set changes which draws it consumes at n=48
    return construct_code(48, rate=0.5, seed=1)


@pytest.mark.parametrize(
    "fixture, h_sha, g_sha",
    [
        (
            "code48",
            "5b91801c73abddd54636acbeeba9b76042e3aecf7529ab533d923c78ec9560ab",
            "8495d613d7eb061ee7afb7ca61548f2daa226c2fad3b29ce85b992ebdbf69d85",
        ),
        (
            "code128",
            "15f4318377df7557c339439d4c8b7142cad170590fd7761983a4cc935320239e",
            "6630cb3517a582f3c27f2599d625398e428486895deb2e3ffd9934a487ee515e",
        ),
        (
            "code672",
            "4c0e9cb115cba5aeed5091e5f7382b8322b5e3a9d68da478c21ce957602109d2",
            "b15f61bfe1abe7365f2074242e8a22d8e56d18565175bd0100a2269cee530e05",
        ),
    ],
)
def test_construction_is_pinned(request, fixture, h_sha, g_sha):
    # seed 7 at n=128 is the code behind the coded golden CSVs
    code = request.getfixturevalue(fixture)
    assert code.h.dtype == code.generator.dtype == np.uint8
    assert hashlib.sha256(code.h.tobytes()).hexdigest() == h_sha
    assert hashlib.sha256(code.generator.tobytes()).hexdigest() == g_sha


def test_construction_determinism():
    a = construct_code(128, seed=3)
    b = construct_code(128, seed=3)
    np.testing.assert_array_equal(a.h, b.h)
    np.testing.assert_array_equal(a.generator, b.generator)
    c = construct_code(128, seed=4)
    assert not np.array_equal(a.h, c.h)


def test_construction_rejects_bad_parameters():
    with pytest.raises(ConfigurationError):
        construct_code(672, rate=0.75)
    with pytest.raises(ConfigurationError):
        construct_code(11)
    with pytest.raises(ConfigurationError):
        construct_code(6)


def test_code_from_parity_check_rejects_rank_deficient():
    h = np.zeros((4, 8), dtype=np.uint8)
    h[0, :6] = 1
    h[1, :6] = 1  # duplicate row: rank 3 < 4
    h[2, 2:8] = 1
    h[3, 1:7] = 1
    with pytest.raises(CodeConstructionError):
        code_from_parity_check(h)


def test_code_from_parity_check_rejects_garbage():
    with pytest.raises(CodeConstructionError):
        code_from_parity_check(np.zeros((3, 6), dtype=np.uint8))
    with pytest.raises(CodeConstructionError):
        code_from_parity_check(np.array([0, 1, 1], dtype=np.uint8))


# ---------------------------------------------------------------------------
# encoding


def test_encode_zero_maps_to_zero(code128):
    cw = encode(code128, np.zeros(code128.k, dtype=np.uint8))
    assert not cw.any()
    assert not syndrome(code128, cw).any()


def test_encode_is_systematic(code128):
    rng = np.random.default_rng(0)
    msg = rng.integers(0, 2, code128.k).astype(np.uint8)
    cw = encode(code128, msg)
    # each message bit i is copied to a column whose generator column is e_i
    unit = np.eye(code128.k, dtype=np.uint8)
    cols = [np.flatnonzero((code128.generator.T == row).all(axis=1))[0] for row in unit]
    np.testing.assert_array_equal(cw[cols], msg)


def test_encode_is_linear(code128):
    rng = np.random.default_rng(1)
    a = rng.integers(0, 2, code128.k).astype(np.uint8)
    b = rng.integers(0, 2, code128.k).astype(np.uint8)
    np.testing.assert_array_equal(
        encode(code128, (a + b) % 2), (encode(code128, a) + encode(code128, b)) % 2
    )


def test_random_codewords_satisfy_syndrome(code672):
    rng = np.random.default_rng(2)
    for _ in range(20):
        msg = rng.integers(0, 2, code672.k).astype(np.uint8)
        assert not syndrome(code672, encode(code672, msg)).any()


def test_encode_shape_checked(code128):
    with pytest.raises(ValueError):
        encode(code128, np.zeros(code128.k + 1, dtype=np.uint8))
    with pytest.raises(ValueError):
        encode(code128, np.zeros((3, code128.k + 1), dtype=np.uint8))
    with pytest.raises(ValueError):
        encode(code128, np.zeros((2, 3, code128.k), dtype=np.uint8))


def test_encode_stack_equals_rows(code672):
    msgs = np.random.default_rng(3).integers(0, 2, size=(4, code672.k))
    stacked = encode(code672, msgs)
    assert stacked.dtype == np.uint8
    np.testing.assert_array_equal(stacked, [encode(code672, m) for m in msgs])


# ---------------------------------------------------------------------------
# belief propagation


def test_bp_accepts_clean_codeword(code128):
    rng = np.random.default_rng(3)
    msg = rng.integers(0, 2, code128.k).astype(np.uint8)
    cw = encode(code128, msg)
    bits, converged = decode_bp(bsc_llrs(cw, 0.05), code128)
    assert converged
    np.testing.assert_array_equal(bits, cw)


def test_bp_zero_llrs_report_failure(code128):
    bits, converged = decode_bp(np.zeros(code128.n), code128)
    assert not converged
    assert not bits.any()


def test_bp_converged_implies_zero_syndrome(code672):
    rng = np.random.default_rng(4)
    for _ in range(10):
        msg = rng.integers(0, 2, code672.k).astype(np.uint8)
        cw = encode(code672, msg)
        noisy = cw ^ (rng.random(code672.n) < 0.03).astype(np.uint8)
        bits, converged = decode_bp(bsc_llrs(noisy, 0.03), code672)
        if converged:
            assert not syndrome(code672, bits).any()


def test_bp_is_deterministic(code128):
    rng = np.random.default_rng(5)
    cw = encode(code128, rng.integers(0, 2, code128.k).astype(np.uint8))
    noisy = cw ^ (rng.random(code128.n) < 0.04).astype(np.uint8)
    llrs = bsc_llrs(noisy, 0.04)
    out1 = decode_bp(llrs, code128)
    out2 = decode_bp(llrs, code128)
    np.testing.assert_array_equal(out1[0], out2[0])
    assert out1[1] == out2[1]


def test_bp_word_error_rate_low_at_two_percent(code672):
    rng = np.random.default_rng(6)
    failures = 0
    n_frames = 200
    for _ in range(n_frames):
        msg = rng.integers(0, 2, code672.k).astype(np.uint8)
        cw = encode(code672, msg)
        noisy = cw ^ (rng.random(code672.n) < 0.02).astype(np.uint8)
        bits, converged = decode_bp(bsc_llrs(noisy, 0.02), code672)
        failures += not (converged and np.array_equal(bits, cw))
    assert failures / n_frames < 1e-2


def test_bp_shape_checked(code128):
    with pytest.raises(ValueError):
        decode_bp(np.zeros(code128.n - 1), code128)


# ---------------------------------------------------------------------------
# bit flipping


def test_bit_flipping_keeps_valid_codewords(code128):
    rng = np.random.default_rng(7)
    cw = encode(code128, rng.integers(0, 2, code128.k).astype(np.uint8))
    bits, converged = decode_bit_flipping(cw.copy(), code128)
    assert converged
    np.testing.assert_array_equal(bits, cw)


def test_bit_flipping_corrects_every_single_error(code128):
    # girth >= 6 makes all three checks of a lone flipped bit fail at once,
    # while any other bit sees at most one failing check
    rng = np.random.default_rng(8)
    cw = encode(code128, rng.integers(0, 2, code128.k).astype(np.uint8))
    for pos in range(code128.n):
        noisy = cw.copy()
        noisy[pos] ^= 1
        bits, converged = decode_bit_flipping(noisy, code128)
        assert converged
        np.testing.assert_array_equal(bits, cw)


def test_bit_flipping_weaker_than_bp(code672):
    code = code672
    rng = np.random.default_rng(9)
    p = 0.03
    bf_fail = bp_fail = 0
    n_frames = 120
    for _ in range(n_frames):
        msg = rng.integers(0, 2, code.k).astype(np.uint8)
        cw = encode(code, msg)
        noisy = cw ^ (rng.random(code.n) < p).astype(np.uint8)
        bf_bits, _ = decode_bit_flipping(noisy, code)
        bp_bits, _ = decode_bp(bsc_llrs(noisy, p), code)
        bf_fail += not np.array_equal(bf_bits, cw)
        bp_fail += not np.array_equal(bp_bits, cw)
    assert bp_fail < bf_fail


# ---------------------------------------------------------------------------
# alist I/O


def test_alist_round_trip(code128, tmp_path):
    text = write_alist(code128.h)
    np.testing.assert_array_equal(parse_alist(text), code128.h)
    path = tmp_path / "code.alist"
    save_alist(code128.h, path)
    np.testing.assert_array_equal(load_alist(path), code128.h)


def test_alist_round_trip_irregular(tmp_path):
    h = np.array([[1, 1, 0, 1, 0], [0, 1, 1, 0, 1], [1, 0, 1, 1, 1]], dtype=np.uint8)
    np.testing.assert_array_equal(parse_alist(write_alist(h)), h)


def test_alist_malformed_rejected():
    with pytest.raises(ConfigurationError):
        parse_alist("not an alist\n")
    with pytest.raises(ConfigurationError):
        parse_alist("4 2\n")  # truncated header
    good = write_alist(np.eye(4, dtype=np.uint8))
    lines = good.splitlines()
    lines[0] = "5 4"  # header contradicts the data
    with pytest.raises(ConfigurationError):
        parse_alist("\n".join(lines))


def test_alist_row_side_checked_against_the_columns():
    lines = write_alist(np.array([[1, 1, 0], [0, 1, 1]])).splitlines()
    assert lines[3] == "2 2" and lines[-1] == "2 3"
    for row_degrees, last_row in (("5 5", "1 2"), ("5 5", "2 3"), ("2 2", "1 2"), ("2", "2 3")):
        bad = lines[:3] + [row_degrees] + lines[4:-1] + [last_row]
        with pytest.raises(ConfigurationError, match="row"):
            parse_alist("\n".join(bad))
    # zero padding and the order within a row list do not matter
    padded = lines[:-1] + ["3 2 0"]
    np.testing.assert_array_equal(parse_alist("\n".join(padded)), [[1, 1, 0], [0, 1, 1]])


def test_loaded_alist_builds_working_code(code128, tmp_path):
    path = tmp_path / "c.alist"
    save_alist(code128.h, path)
    rebuilt = code_from_parity_check(load_alist(path))
    rng = np.random.default_rng(10)
    msg = rng.integers(0, 2, rebuilt.k).astype(np.uint8)
    assert not syndrome(rebuilt, encode(rebuilt, msg)).any()
