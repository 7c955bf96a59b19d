"""Partition parameters, Hamming k-means, tree construction and pruning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onebit_mimo.config import SimConfig
from onebit_mimo.errors import ConfigurationError
from onebit_mimo.partition import (
    KMEANS_MAX_ITER,
    PartitionParams,
    build_partition_tree,
    estimate_complexity,
    kmeans_hamming,
    preprocess,
    require_valid_params,
    tree_stats,
    validate_params,
)
from onebit_mimo.spatial_code import MismatchScore, SpatialCode

from conftest import centroid_weights, oracle_node_levels, random_code


def pattern_code(codewords, m, K):
    """SpatialCode wrapper around explicit bit patterns (unit weights)."""
    cw = np.asarray(codewords, dtype=np.uint8)
    w = np.ones_like(cw, dtype=np.float64)
    return SpatialCode(m=m, K=K, codewords=cw, crossover=np.exp(-w), weights=w)


# ---------------------------------------------------------------------------
# parameters


def test_label_is_comma_free():
    p = PartitionParams((8, 8), (4, 16))
    assert p.label() == "k8x8-q4x16"
    assert "," not in p.label()


def _levels(violations) -> list:
    """The level L of each ``level L: message`` violation."""
    return [int(v.split(":")[0].removeprefix("level ")) for v in violations]


def test_validate_accepts_known_good_chains():
    assert validate_params(PartitionParams((32, 4, 4), (8, 8, 8))) == []
    assert validate_params(PartitionParams((2, 2), (2, 4))) == []
    assert validate_params(PartitionParams((32,), (8,))) == []


def test_validate_flags_first_level_overflow():
    # level 1 starts from a single root so q_1 can be at most k_1
    violations = validate_params(PartitionParams((4,), (8,)))
    assert _levels(violations) == [1]


def test_validate_flags_chain_overflow():
    # q_2 = 9 > q_1 * k_2 = 2 * 4
    violations = validate_params(PartitionParams((2, 4), (2, 9)))
    assert _levels(violations) == [2]


def test_validate_flags_shape_and_positivity():
    assert _levels(validate_params(PartitionParams((2, 2), (2,)))) == [0]
    assert _levels(validate_params(PartitionParams((), ()))) == [0]
    assert _levels(validate_params(PartitionParams((0, 2), (1, 2)))) == [1]


def test_validate_flags_non_integer_entries():
    # entries are kept as given, so a fractional or boolean one is an error, not truncated
    assert PartitionParams((4.7,), (1.9,)).k == (4.7,)
    assert _levels(validate_params(PartitionParams((4.7,), (1.9,)))) == [1]
    assert _levels(validate_params(PartitionParams((4, 4.0), (2, 2)))) == [2]
    assert _levels(validate_params(PartitionParams((True,), (1,)))) == [1]
    assert validate_params(PartitionParams((np.int64(4),), (np.int64(2),))) == []
    with pytest.raises(ConfigurationError, match="integers"):
        SimConfig(partition=PartitionParams((4.7,), (1.9,)))


def test_require_valid_params_raises():
    with pytest.raises(ConfigurationError):
        require_valid_params(PartitionParams((4,), (8,)))
    require_valid_params(PartitionParams((4,), (4,)))  # no error


@given(
    k=st.lists(st.integers(1, 9), min_size=1, max_size=4),
)
def test_maximal_q_chain_is_always_valid(k):
    q, prev = [], 1
    for k_l in k:
        prev *= k_l
        q.append(prev)
    assert validate_params(PartitionParams(tuple(k), tuple(q))) == []


# ---------------------------------------------------------------------------
# k-means under the Hamming metric


def test_kmeans_singleton():
    code = random_code(K=2, n_r=4, seed=0)
    res = kmeans_hamming(np.array([7]), code, k=3, rng=np.random.default_rng(0))
    assert len(res.clusters) == 1
    np.testing.assert_array_equal(res.clusters[0], [7])
    np.testing.assert_array_equal(res.centroids[0], code.codewords[7])


def test_kmeans_is_a_partition():
    code = random_code(K=3, n_r=8, seed=1)
    members = np.arange(code.size)
    res = kmeans_hamming(members, code, k=5, rng=np.random.default_rng(1))
    merged = np.sort(np.concatenate(res.clusters))
    np.testing.assert_array_equal(merged, members)  # disjoint cover
    assert all(len(c) for c in res.clusters)


def test_kmeans_recovers_planted_groups():
    # two tight balls of patterns around 0...0 and 1...1
    rng = np.random.default_rng(3)
    n = 24
    low = np.zeros((8, n), dtype=np.uint8)
    high = np.ones((8, n), dtype=np.uint8)
    for i in range(8):
        low[i, rng.choice(n, 2, replace=False)] = 1
        high[i, rng.choice(n, 2, replace=False)] = 0
    code = pattern_code(np.vstack([low, high]), m=4, K=2)
    res = kmeans_hamming(np.arange(16), code, k=2, rng=np.random.default_rng(0))
    groups = {frozenset(c.tolist()) for c in res.clusters}
    assert groups == {frozenset(range(8)), frozenset(range(8, 16))}


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), k=st.integers(2, 6))
def test_kmeans_objective_never_increases(seed, k):
    code = random_code(K=2, n_r=6, seed=seed % 17)
    res = kmeans_hamming(
        np.arange(code.size), code, k=k, rng=np.random.default_rng(seed)
    )
    obj = res.objective
    assert all(a >= b - 1e-9 for a, b in zip(obj, obj[1:]))


def test_kmeans_deterministic_given_rng():
    code = random_code(K=3, n_r=6, seed=4)
    a = kmeans_hamming(np.arange(code.size), code, 4, np.random.default_rng(42))
    b = kmeans_hamming(np.arange(code.size), code, 4, np.random.default_rng(42))
    assert len(a.clusters) == len(b.clusters)
    for ca, cb in zip(a.clusters, b.clusters):
        np.testing.assert_array_equal(ca, cb)
    np.testing.assert_array_equal(a.centroids, b.centroids)


def test_kmeans_rejects_empty_members():
    code = random_code(K=2, n_r=4, seed=0)
    with pytest.raises(ValueError):
        kmeans_hamming(np.array([], dtype=int), code, 2, np.random.default_rng(0))


@pytest.mark.parametrize("k", [0, -1])
def test_kmeans_rejects_fewer_than_one_cluster(k):
    # k = 0 used to fail deep inside with an IndexError
    code = random_code(K=2, n_r=4, seed=0)
    with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
        kmeans_hamming(np.arange(code.size), code, k, np.random.default_rng(0))


def oracle_pairwise_hamming(points, centroids):
    p = points.astype(np.float64)
    c = centroids.astype(np.float64)
    return p.sum(axis=1)[:, None] + c.sum(axis=1)[None, :] - 2.0 * (p @ c.T)


def oracle_kmeans(members, code, k, rng, max_iter=KMEANS_MAX_ITER, moves=None):
    """Reference Lloyd loop: per-cluster emptiness checks and majority votes.

    ``moves``, when a list, records each re-seed as (empty cluster, member).
    """
    members = np.asarray(members, dtype=np.int64)
    points = code.codewords[members]
    n = len(members)
    k_eff = min(k, n)
    seeds = [int(rng.integers(n))]
    d_min = oracle_pairwise_hamming(points, points[seeds[-1]][None, :])[:, 0]
    while len(seeds) < k_eff:
        total = d_min.sum()
        if total == 0:
            seeds.append(int(rng.integers(n)))
        else:
            seeds.append(int(rng.choice(n, p=d_min / total)))
        d_min = np.minimum(d_min, oracle_pairwise_hamming(points, points[seeds[-1]][None, :])[:, 0])
    centroids = points[seeds].copy()
    assign = np.full(n, -1)
    objective = []
    for _ in range(max_iter):
        dist = oracle_pairwise_hamming(points, centroids)
        new_assign = np.argmin(dist, axis=1)
        own = dist[np.arange(n), new_assign].copy()
        for c in range(k_eff):
            if np.any(new_assign == c):
                continue
            far = int(np.argmax(own))
            if own[far] == 0:
                break
            if moves is not None:
                moves.append((c, far))
            new_assign[far] = c
            own[far] = 0.0
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k_eff):
            sel = points[assign == c]
            if len(sel):
                centroids[c] = (2 * sel.sum(axis=0) > len(sel)).astype(np.uint8)
        objective.append(
            float(oracle_pairwise_hamming(points, centroids)[np.arange(n), assign].sum())
        )
    clusters = [members[assign == c] for c in range(k_eff)]
    keep = [i for i, cl in enumerate(clusters) if len(cl)]
    return [clusters[i] for i in keep], centroids[keep], objective


@st.composite
def kmeans_cases(draw):
    """(code, members, k, max_iter, rng seed) over codes with twins, up to 80 bits long."""
    m = draw(st.sampled_from((4, 16)))
    K = draw(st.integers(1, 4 if m == 4 else 3))
    code = random_code(
        K=K,
        n_r=draw(st.integers(1, 40)),  # codewords of 2 to 80 bits: one or two words
        m=m,
        snr_db=draw(st.sampled_from((0.0, 10.0))),
        seed=draw(st.integers(0, 2**16)),
    )
    if draw(st.booleans()):
        members = np.arange(code.size)
    else:
        picked = draw(st.sets(st.integers(0, code.size - 1), min_size=1, max_size=code.size))
        members = np.array(sorted(picked), dtype=np.int64)
        if draw(st.booleans()):
            members = np.random.default_rng(len(picked)).permutation(members)
    k = draw(st.integers(1, 20))
    max_iter = draw(st.sampled_from((1, 2, KMEANS_MAX_ITER)))
    return code, members, k, max_iter, draw(st.integers(0, 2**16))


@settings(max_examples=300, deadline=None)
@given(case=kmeans_cases())
def test_kmeans_matches_per_cluster_oracle(case):
    code, members, k, max_iter, seed = case
    got = kmeans_hamming(members, code, k, np.random.default_rng(seed), max_iter=max_iter)
    clusters, centroids, objective = oracle_kmeans(
        members, code, k, np.random.default_rng(seed), max_iter
    )
    assert len(got.clusters) == len(clusters)
    for a, b in zip(got.clusters, clusters):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(got.centroids, centroids)
    assert got.centroids.dtype == np.uint8
    assert got.objective == objective
    assert got.weights.shape == centroids.shape
    for cluster, centroid, beta in zip(clusters, centroids, got.weights):
        np.testing.assert_array_equal(beta, centroid_weights(cluster, centroid, code))


@pytest.mark.parametrize(
    "patterns, k, seed",
    [
        ("01101 10111 00110 10000 10000 00110 01111 01010 10001 01000", 3, 678),
        ("001000 010011 001001 101000 001111 110100 000010 011110", 6, 7634),
    ],
)
def test_kmeans_reseeds_a_cluster_emptied_by_the_update(patterns, k, seed):
    # Two centroids meet after a majority vote, so the higher one loses every
    # member and takes the farthest member instead.  Such draws are rare
    # (about 1 in 6000 random 5- and 6-bit sets); these two were found by
    # search.  No search found a move that empties a lower cluster.
    rows = [[int(b) for b in word] for word in patterns.split()]
    cw = np.zeros((16, len(rows[0])), dtype=np.uint8)
    cw[: len(rows)] = rows
    code = pattern_code(cw, m=4, K=2)
    members = np.arange(len(rows))
    moves = []
    clusters, centroids, objective = oracle_kmeans(
        members, code, k, np.random.default_rng(seed), moves=moves
    )
    assert moves
    got = kmeans_hamming(members, code, k, np.random.default_rng(seed))
    assert [c.tolist() for c in got.clusters] == [c.tolist() for c in clusters]
    np.testing.assert_array_equal(got.centroids, centroids)
    assert got.objective == objective


def test_kmeans_reseeds_empty_clusters_of_twins():
    # eight codewords, four distinct patterns: k=6 leaves clusters empty that
    # can only be re-seeded until every member sits on a centroid
    cw = np.repeat(np.array([[0, 0, 0], [1, 1, 1], [0, 1, 1], [1, 0, 0]]), 4, axis=0)
    code = pattern_code(cw, m=4, K=2)
    for seed in range(20):
        got = kmeans_hamming(np.arange(16), code, 6, np.random.default_rng(seed))
        clusters, centroids, objective = oracle_kmeans(
            np.arange(16), code, 6, np.random.default_rng(seed)
        )
        assert [c.tolist() for c in got.clusters] == [c.tolist() for c in clusters]
        np.testing.assert_array_equal(got.centroids, centroids)
        assert got.objective == objective


# ---------------------------------------------------------------------------
# centroid weights


def test_centroid_weights_values():
    cw = np.array([[0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 1]])
    code = pattern_code(cw, m=4, K=1)
    centroid = np.array([0, 0, 0, 1], dtype=np.uint8)
    beta = centroid_weights(np.arange(4), centroid, code)
    # unanimous columns clamp at half the minimum observable fraction 1/(2*4)
    assert beta[0] == pytest.approx(-np.log(1 / 8))
    assert beta[3] == pytest.approx(-np.log(1 / 8))
    # half the members disagree in columns 1 and 2
    assert beta[1] == pytest.approx(np.log(2.0))
    assert beta[2] == pytest.approx(np.log(2.0))
    # rarer disagreement earns a larger weight
    assert beta[0] > beta[1]


def test_centroid_weights_empty_cluster_rejected():
    code = random_code(K=2, n_r=4, seed=0)
    with pytest.raises(ValueError):
        centroid_weights(np.array([], dtype=int), code.codewords[0], code)


# ---------------------------------------------------------------------------
# tree construction


def check_level_partitions(tree, size):
    for nodes in tree.levels:
        merged = np.sort(np.concatenate([n.members for n in nodes]))
        np.testing.assert_array_equal(merged, np.arange(size))


def test_tree_levels_partition_the_codebook():
    code = random_code(K=3, n_r=8, seed=2)
    params = PartitionParams((8, 8), (4, 8))
    tree = build_partition_tree(code, params, np.random.default_rng(0))
    assert len(tree.levels) == 2
    check_level_partitions(tree, code.size)
    # children split exactly their parent's member set
    parent = tree.arrays[1][0]
    for row, node in enumerate(tree.levels[0]):
        children = [tree.levels[1][j].members for j in np.flatnonzero(parent == row)]
        np.testing.assert_array_equal(np.sort(np.concatenate(children)), np.sort(node.members))


def test_tree_nodes_have_weights_and_paths():
    code = random_code(K=2, n_r=6, seed=5)
    tree = build_partition_tree(
        code, PartitionParams((4, 2), (2, 4)), np.random.default_rng(1)
    )
    n_prev = 1  # the root
    assert any(node.members.size == 1 for node in tree.levels[-1])
    oracle = oracle_node_levels(code, tree)
    for nodes, (parent, score, tol), (centroids, weights) in zip(tree.levels, tree.arrays, oracle):
        n = len(nodes)
        assert score.base.shape == (n,) and score.gain.shape == (n, code.length)
        # |gain| is each node's weights and its sign the centroid: what ``_smallest``
        # reads as the reference, which holds since every weight is at least log 2
        assert np.abs(score.gain).tobytes() == weights.tobytes()
        assert np.all(weights >= np.log(2.0))
        np.testing.assert_array_equal(score.gain < 0, centroids == 1)
        assert np.isfinite(tol) and tol > 0
        # rows in path order: every node of the previous level has children,
        # and siblings are contiguous in their parent's order
        np.testing.assert_array_equal(np.unique(parent), np.arange(n_prev))
        assert np.all(np.diff(parent) >= 0)
        n_prev = n


def test_tree_invariants_over_many_random_codes():
    for seed in range(20):
        code = random_code(K=2, n_r=5, seed=seed)
        tree = build_partition_tree(
            code, PartitionParams((4, 4), (2, 4)), np.random.default_rng(seed)
        )
        check_level_partitions(tree, code.size)


def oracle_tree_arrays(code, params, rng):
    """Per-level (parent, centroids, weights) and leaf_of, built with the oracles."""
    frontier = [np.arange(code.size)]
    levels = []
    for k_l in params.k:
        parents, centroids, weights, next_frontier = [], [], [], []
        for row, members in enumerate(frontier):
            clusters, cents, _ = oracle_kmeans(members, code, k_l, rng)
            for cluster, centroid in zip(clusters, cents):
                parents.append(row)
                centroids.append(centroid)
                weights.append(centroid_weights(cluster, centroid, code))
                next_frontier.append(cluster)
        frontier = next_frontier
        levels.append((np.array(parents), np.array(centroids), np.array(weights)))
    leaf_of = np.empty(code.size, dtype=np.int64)
    for row, members in enumerate(frontier):
        leaf_of[members] = row
    return levels, leaf_of


@settings(max_examples=60, deadline=None)
@given(
    m=st.sampled_from((4, 16)),
    K=st.integers(1, 3),
    n_r=st.integers(1, 40),
    k=st.lists(st.integers(1, 12), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_tree_arrays_match_oracle_build(m, K, n_r, k, seed):
    code = random_code(K=K, n_r=n_r, m=m, seed=seed)
    params = PartitionParams(tuple(k), tuple([1] * len(k)))
    tree = build_partition_tree(code, params, np.random.default_rng(seed))
    levels, leaf_of = oracle_tree_arrays(code, params, np.random.default_rng(seed))
    assert len(tree.arrays) == len(levels)
    eps = np.finfo(np.float64).eps
    for (parent, score, tol), (o_parent, o_centroids, o_weights) in zip(tree.arrays, levels):
        np.testing.assert_array_equal(parent, o_parent)
        assert np.abs(score.gain).tobytes() == o_weights.tobytes()
        assert np.all(o_weights >= np.log(2.0))
        np.testing.assert_array_equal(score.gain < 0, o_centroids == 1)
        want = MismatchScore(o_centroids, o_weights)
        assert score.base.tobytes() == want.base.tobytes()
        assert score.gain.tobytes() == want.gain.tobytes()
        scale = np.abs(o_weights).sum(axis=1).max()
        assert tol == 8.0 * o_weights.shape[1] * eps * float(scale)
    np.testing.assert_array_equal(tree.leaf_of, leaf_of)


def test_tree_rejects_invalid_params():
    code = random_code(K=2, n_r=4, seed=0)
    with pytest.raises(ConfigurationError):
        build_partition_tree(code, PartitionParams((4,), (8,)), np.random.default_rng(0))


def test_tree_stats_mentions_every_level():
    code = random_code(K=2, n_r=4, seed=0)
    tree = build_partition_tree(
        code, PartitionParams((4, 2), (2, 4)), np.random.default_rng(0)
    )
    text = tree_stats(tree)
    assert "level 1" in text and "level 2" in text
    assert str(code.size) in text


# ---------------------------------------------------------------------------
# pre-processing (candidate pruning)


def test_preprocess_without_pruning_returns_everything():
    code = random_code(K=2, n_r=6, seed=6)
    params = PartitionParams((4, 4), (4, 16))  # q_l = q_{l-1} * k_l everywhere
    tree = build_partition_tree(code, params, np.random.default_rng(2))
    r = np.random.default_rng(0).integers(0, 2, code.length).astype(np.uint8)
    np.testing.assert_array_equal(preprocess(r, tree), np.arange(code.size))


def test_preprocess_output_is_sorted_unique_subset():
    code = random_code(K=3, n_r=8, seed=7)
    tree = build_partition_tree(
        code, PartitionParams((8, 8), (4, 8)), np.random.default_rng(3)
    )
    rng = np.random.default_rng(4)
    for _ in range(50):
        r = rng.integers(0, 2, code.length).astype(np.uint8)
        cand = preprocess(r, tree)
        assert len(cand) > 0
        assert np.all(np.diff(cand) > 0)  # sorted strictly => unique
        assert cand[0] >= 0 and cand[-1] < code.size


def test_preprocess_keeps_clean_codewords():
    # a noiseless observation's own index survives pruning on this fixture
    code = random_code(K=3, n_r=8, seed=1)
    tree = build_partition_tree(
        code, PartitionParams((8, 8), (4, 8)), np.random.default_rng(0)
    )
    for ell in range(code.size):
        assert ell in preprocess(code.codewords[ell], tree)


def test_preprocess_mean_candidates_tracks_prediction():
    code = random_code(K=3, n_r=8, seed=0)
    params = PartitionParams((8, 8), (4, 8))
    tree = build_partition_tree(code, params, np.random.default_rng(0))
    rng = np.random.default_rng(100)
    sizes = [
        len(preprocess(rng.integers(0, 2, code.length).astype(np.uint8), tree))
        for _ in range(300)
    ]
    _, n_wmd, _ = estimate_complexity(params, code.m, code.K)
    assert n_wmd / 2 <= np.mean(sizes) <= 2 * n_wmd


def test_preprocess_last_level_budget_nests():
    code = random_code(K=3, n_r=8, seed=8)
    tree = build_partition_tree(
        code, PartitionParams((8, 8), (4, 8)), np.random.default_rng(5)
    )
    rng = np.random.default_rng(6)
    for _ in range(20):
        r = rng.integers(0, 2, code.length).astype(np.uint8)
        small = preprocess(r, tree, q=(4, 4))
        large = preprocess(r, tree, q=(4, 16))
        assert set(small) <= set(large)


def test_preprocess_override_validation():
    code = random_code(K=2, n_r=4, seed=0)
    tree = build_partition_tree(
        code, PartitionParams((4, 4), (2, 4)), np.random.default_rng(0)
    )
    r = code.codewords[0]
    with pytest.raises(ConfigurationError):
        preprocess(r, tree, q=(2,))  # wrong number of levels
    with pytest.raises(ConfigurationError):
        preprocess(r, tree, q=(2, 64))  # violates the q-chain
    with pytest.raises(ConfigurationError, match="integers"):
        preprocess(r, tree, q=(2, 2.9))  # not truncated to 2


def node_walk(r, code, tree, survivors_q):
    """Reference pruning: sort each level's racing rows by (score, row).

    Each score is the weighted Hamming distance to the node's centroid under
    its weights, both from the oracle (``oracle_node_levels``), not from the
    level's score.  A level's rows are in path order
    (``test_tree_arrays_match_oracle_build`` pins that), so the row breaks
    ties toward the smaller path.
    """
    survivors = {0}  # the root
    oracle = oracle_node_levels(code, tree)
    for (parent, _, _), (centroids, weights), q_l in zip(tree.arrays, oracle, survivors_q):
        racing = [j for j in range(len(parent)) if parent[j] in survivors]
        ranked = sorted(
            racing,
            key=lambda j: (float(weights[j][centroids[j] != r].sum()), j),
        )
        survivors = set(ranked[:q_l])
    return np.sort(np.concatenate([tree.levels[-1][j].members for j in survivors]))


@st.composite
def q_chains(draw, k):
    """A valid survivor chain for children counts k."""
    q, prev = [], 1
    for k_l in k:
        prev = draw(st.integers(1, prev * k_l))
        q.append(prev)
    return tuple(q)


@st.composite
def pruning_cases(draw):
    """(code, tree, survivor override or None, survivor counts it implies).

    Codebooks hold at most 4096 codewords (m=16 stops at K=3); k up to 9 on
    short codes leaves deep levels with fewer members than k, so k-means
    drops empty clusters.
    """
    m = draw(st.sampled_from((4, 16)))
    K = draw(st.integers(1, 4 if m == 4 else 3))
    code = random_code(
        K=K,
        n_r=draw(st.integers(1, 6)),
        m=m,
        snr_db=draw(st.sampled_from((0.0, 10.0))),
        seed=draw(st.integers(0, 2**16)),
    )
    k = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=3)))
    params = PartitionParams(k, draw(q_chains(k)))
    tree = build_partition_tree(code, params, np.random.default_rng(draw(st.integers(0, 2**16))))
    if draw(st.booleans()):
        return code, tree, None, params.q
    q = draw(q_chains(k))
    return code, tree, q, q


@settings(max_examples=150, deadline=None)
@given(case=pruning_cases(), obs_seed=st.integers(0, 2**16))
def test_preprocess_matches_node_walk(case, obs_seed):
    code, tree, override, survivors_q = case
    rng = np.random.default_rng(obs_seed)
    noisy = [rng.integers(0, 2, code.length).astype(np.uint8) for _ in range(8)]
    clean = [code.codewords[ell] for ell in rng.integers(0, code.size, 8)]
    for r in noisy + clean:
        np.testing.assert_array_equal(
            preprocess(r, tree, q=override), node_walk(r, code, tree, survivors_q)
        )


def test_preprocess_exact_tie_goes_to_smaller_path():
    # Singleton clusters all weigh log 2 per bit, so leaves a and b, both at
    # Hamming distance 4 from r, tie exactly; q=2 keeps r's own leaf and one
    # of them.  Their linear scores differ by rounding in the order that
    # would pick the wrong one, which the tolerance band must catch.
    r = np.array([1, 1, 1, 0, 0, 1, 0, 0], dtype=np.uint8)
    a = np.array([0, 0, 0, 0, 0, 0, 0, 1], dtype=np.uint8)
    b = np.array([1, 1, 0, 0, 1, 0, 1, 1], dtype=np.uint8)
    code = pattern_code([r, a, b, 1 - r], m=4, K=1)
    tree = build_partition_tree(code, PartitionParams((4,), (2,)), np.random.default_rng(0))
    _, level_score, _ = tree.arrays[0]
    [(rows, weights)] = oracle_node_levels(code, tree)
    leaf = {int(nd.members[0]): row for row, nd in enumerate(tree.levels[0])}
    score = {i: float(weights[leaf[i]][rows[leaf[i]] != r].sum()) for i in (1, 2)}
    assert score[1] == score[2]
    winner, loser = sorted((1, 2), key=leaf.get)  # rows are in path order
    f = level_score(r)
    assert f[leaf[loser]] < f[leaf[winner]]
    np.testing.assert_array_equal(preprocess(r, tree), sorted([0, winner]))


def test_preprocess_rejects_wrong_observation_length():
    code = random_code(K=2, n_r=8, seed=0)
    tree = build_partition_tree(
        code, PartitionParams((4, 4), (2, 4)), np.random.default_rng(0)
    )
    with pytest.raises(ValueError, match=r"\(1,\).*length 16"):
        preprocess(np.zeros(1, dtype=np.uint8), tree)


# ---------------------------------------------------------------------------
# complexity model


def test_complexity_reference_values():
    # K=8 4-QAM: full search and two pruned operating points
    assert estimate_complexity(None, 4, 8) == (0, 65536, 65536)
    assert estimate_complexity(PartitionParams((32,), (8,)), 4, 8) == (
        32,
        16384,
        16416,
    )
    assert estimate_complexity(PartitionParams((32, 4, 4), (8, 8, 8)), 4, 8) == (
        96,
        1024,
        1120,
    )


def test_complexity_formula_structure():
    # n_pre counts q_{l-1} * k_l scored children per level, starting at q_0 = 1
    params = PartitionParams((8, 8), (4, 16))
    n_pre, n_wmd, n_total = estimate_complexity(params, 4, 8)
    assert n_pre == 1 * 8 + 4 * 8
    assert n_wmd == 4**8 * 16 // 64
    assert n_total == n_pre + n_wmd


def test_complexity_rejects_bad_params():
    with pytest.raises(ConfigurationError):
        estimate_complexity(PartitionParams((4,), (8,)), 4, 8)
