"""Hierarchical code partitioning: Hamming-metric k-means over the codebook,
per-node centroid weights, observation-driven candidate pruning, and the
analytic complexity model.

The tree is built once per coherence block from the active spatial code and
is immutable afterwards.  It is one set of per-level arrays in path order:
each level holds its clusters' member codewords, a parent index array, one
``MismatchScore`` over the clusters' centroids and weights, and the bound
``tol`` on that score's rounding.  A codeword-to-leaf map completes it.
Pruning one observation thus costs one matrix-vector product per level: it
keeps the q_l best-scoring nodes per level (``_smallest``, which resolves
the rounding band within ``tol`` exactly) and returns the codewords of the
surviving leaves as a sorted candidate index array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import ConfigurationError
from .spatial_code import MismatchScore, SpatialCode, weighted_hamming

KMEANS_MAX_ITER = 100
EPS = np.finfo(np.float64).eps


def is_int(value) -> bool:
    """The one integer rule of configs and partitions: any Integral, numpy's too, but no bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class PartitionParams:
    """Per-level children counts k and survivor counts q; integer entries are
    stored as Python ints, the rest kept for ``validate_params`` to reject."""

    k: tuple
    q: tuple

    def __post_init__(self):
        for name in ("k", "q"):
            values = tuple(int(v) if is_int(v) else v for v in getattr(self, name))
            object.__setattr__(self, name, values)

    def label(self) -> str:
        """Comma-free form safe for CSV fields, e.g. k8x8-q4x16."""
        return "k" + "x".join(map(str, self.k)) + "-q" + "x".join(map(str, self.q))


def validate_params(params: PartitionParams) -> list:
    """Empty list when valid, else one ``level L: message`` string per offending level."""
    if len(params.k) != len(params.q) or len(params.k) == 0:
        return [f"level 0: k and q must be equal-length and nonempty, got {params.k} / {params.q}"]
    violations = []
    prev_q = 1
    for lvl, (k, q) in enumerate(zip(params.k, params.q), start=1):
        if not (is_int(k) and is_int(q)):
            violations.append(f"level {lvl}: k_{lvl}={k!r}, q_{lvl}={q!r} must be integers")
            continue
        if k < 1 or q < 1:
            violations.append(f"level {lvl}: k_{lvl}={k}, q_{lvl}={q} must be >= 1")
            continue
        if q > prev_q * k:
            violations.append(f"level {lvl}: q_{lvl}={q} exceeds q_{lvl - 1}*k_{lvl}={prev_q * k}")
        prev_q = q
    return violations


def require_valid_params(params: PartitionParams) -> None:
    violations = validate_params(params)
    if violations:
        raise ConfigurationError(f"invalid partition parameters: {'; '.join(violations)}")


@dataclass
class KmeansResult:
    clusters: list  # member index arrays (absolute codeword indices)
    centroids: np.ndarray  # (n_clusters, N) uint8
    weights: np.ndarray  # (n_clusters, N) -log max(mismatch fraction, 1/(2*size)) per cluster
    objective: list  # within-cluster Hamming distance sum per iteration


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """0/1 rows (n, N) as (n, W) uint64 words, zero-padded to whole words.

    A padding bit is 0 in every row, so it never adds to a mismatch count.
    """
    n, length = bits.shape
    if length % 64:
        padded = np.zeros((n, length + (-length % 64)), dtype=np.uint8)
        padded[:, :length] = bits
        bits = padded
    return np.packbits(bits, axis=1).view(np.uint64)


def _hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mismatch counts between packed rows, broadcast over the leading axes."""
    counts = np.bitwise_count(a ^ b)
    return counts[..., 0] if counts.shape[-1] == 1 else counts.sum(axis=-1)


def _seed_centroids(pw: np.ndarray, k: int, rng: np.random.Generator) -> list:
    """Distance-weighted (farthest-point flavored) seeding under Hamming.

    Returns the row index of each seed.  The distances are exact integers,
    so ``d_min / total`` is the same float64 vector whatever their dtype.
    A weighted seed is the index ``rng.choice(n, p=d_min / total)`` returns,
    drawn as ``choice`` draws it once its checks of ``p`` pass (``p`` is
    nonnegative, finite and sums to 1 here): one ``rng.random()`` searched
    in the normalised cumulative sum, so the stream and seeds are the same.
    """
    n = len(pw)
    seeds = [int(rng.integers(n))]
    d_min = _hamming(pw, pw[seeds[-1]])
    while len(seeds) < k:
        total = d_min.sum()
        if total == 0:
            seeds.append(int(rng.integers(n)))
        else:
            cdf = (d_min / total).cumsum()
            cdf /= cdf[-1]
            seeds.append(int(cdf.searchsorted(rng.random(), side="right")))
        d_min = np.minimum(d_min, _hamming(pw, pw[seeds[-1]]))
    return seeds


def _mismatch_weights(
    centroids: np.ndarray, ones: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """Every cluster's per-position weights from its member and one-bit counts.

    A position's weight is ``-log(max(f, 1 / (2 * size)))``, with f the
    fraction of members that disagree with the centroid there: the floor
    keeps a unanimous position finite and still the largest.  The mismatch
    count is exact and divided once, so f is bitwise the mean of the
    members' boolean mismatches.
    """
    size = sizes[:, None].astype(np.float64)
    mismatches = np.where(centroids == 1, size - ones, ones)
    return -np.log(np.maximum(mismatches / size, 1.0 / (2.0 * size)))


def kmeans_hamming(
    members: np.ndarray,
    code: SpatialCode,
    k: int,
    rng: np.random.Generator,
    max_iter: int = KMEANS_MAX_ITER,
) -> KmeansResult:
    """Lloyd iterations with Hamming assignment and majority-vote centroids.

    Deterministic given the rng: assignment ties go to the lowest centroid
    index, coordinate majority ties resolve to 0, and empty clusters are
    re-seeded in index order with the member farthest from its current
    centroid (a cluster emptied by an earlier move is not revisited).
    Surplus clusters (k > number of members) are dropped from the result.

    Each step is whole-array: distances are popcounts of XORed bit-packed
    rows, cluster sizes one bincount, the per-cluster one-bit counts one
    one-hot matrix product, and the distances after the centroid update
    serve both as the iteration's objective and as the next assignment
    step.  Every distance and count is a small exact integer, so neither
    the distances' integer type nor the counts' float32 changes a result.
    """
    members = np.asarray(members, dtype=np.int64)
    if members.size == 0:
        raise ValueError("members must be nonempty")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    bits = code.codewords[members]
    pw = _pack_rows(bits)
    n = len(members)
    k_eff = min(k, n)
    rows = np.arange(n)
    seeds = _seed_centroids(pw, k_eff, rng)
    centroids = bits[seeds]
    dist = _hamming(pw[:, None], pw[seeds])

    # the one-hot product's counts are exact integers in float32 below 2**24 members
    p = bits.astype(np.float32 if n < 2**24 else np.float64)
    assign = np.full(n, -1)
    sizes = np.zeros(k_eff, dtype=np.int64)
    ones = np.zeros(centroids.shape)
    objective = []
    for _ in range(max_iter):
        new_assign = dist.argmin(axis=1)
        own = dist[rows, new_assign]
        counts = np.bincount(new_assign, minlength=k_eff).tolist()
        # re-seed empty clusters with the worst-placed member
        for c in range(k_eff):
            if counts[c]:
                continue
            far = int(own.argmax())
            if own[far] == 0:
                break  # every member already coincides with a centroid
            counts[new_assign[far]] -= 1
            counts[c] += 1
            new_assign[far] = c
            own[far] = 0
        if (new_assign == assign).all():
            break
        assign = new_assign
        sizes = np.array(counts)
        onehot = np.zeros((k_eff, n), dtype=p.dtype)
        onehot[assign, rows] = 1.0
        ones = onehot @ p
        np.copyto(centroids, 2.0 * ones > sizes[:, None], where=sizes[:, None] > 0)
        dist = _hamming(pw[:, None], _pack_rows(centroids))
        objective.append(float(dist[rows, assign].sum()))

    keep = np.flatnonzero(sizes)
    grouped = members[np.argsort(assign, kind="stable")]
    ends = np.cumsum(sizes).tolist()
    return KmeansResult(
        clusters=[grouped[ends[c] - sizes[c] : ends[c]] for c in keep],
        centroids=centroids[keep],
        weights=_mismatch_weights(centroids[keep], ones[keep], sizes[keep]),
        objective=objective,
    )


@dataclass(frozen=True, eq=False)
class Cluster:
    """One subcode of a partition level: its codeword indices."""

    members: np.ndarray


@dataclass(eq=False)
class PartitionTree:
    params: PartitionParams
    # levels[l][j] is the cluster of path rank j at depth l+1, and arrays[l]
    # = (parent, score, tol) the same level: parent[j] is row j's row in the
    # previous level (0 under the root), score the MismatchScore of the
    # centroids under their weights, and tol the bound of ``_smallest``
    levels: list
    arrays: list
    leaf_of: np.ndarray  # (M,) row in arrays[-1] of each codeword's leaf


def build_partition_tree(
    code: SpatialCode, params: PartitionParams, rng: np.random.Generator
) -> PartitionTree:
    """Cluster the codebook into one tier of subcodes per entry of params.k, rows in path order."""
    require_valid_params(params)
    frontier = [np.arange(code.size)]
    levels, arrays = [], []
    for k_l in params.k:
        results = [kmeans_hamming(members, code, k_l, rng) for members in frontier]
        frontier = [cluster for res in results for cluster in res.clusters]
        parent = np.repeat(np.arange(len(results)), [len(res.clusters) for res in results])
        weights = np.concatenate([res.weights for res in results])
        score = MismatchScore(np.concatenate([res.centroids for res in results]), weights)
        tol = 8.0 * weights.shape[1] * EPS * float(np.abs(weights).sum(axis=1).max(initial=0.0))
        levels.append([Cluster(members) for members in frontier])
        arrays.append((parent, score, tol))
    leaf_of = np.empty(code.size, dtype=np.int64)
    for row, members in enumerate(frontier):
        leaf_of[members] = row
    return PartitionTree(params=params, levels=levels, arrays=arrays, leaf_of=leaf_of)


def _smallest(
    r: np.ndarray, f: np.ndarray, q: int, score: MismatchScore, tol: float
) -> np.ndarray:
    """Boolean mask of the q entries of f ranked first by (reference, row).

    ``f`` holds the linear scores of every row of a tree level, +inf for rows
    outside the race.  Entries farther than ``tol`` from the q-th smallest
    score c are decided by f alone; when the band within tol of c holds more
    entries than places left, the band is ranked by the reference and then
    by row, so exact ties go to the lowest row, which is path order.

    The reference of row j is ``weighted_hamming(r, g < 0, |g|)`` over its
    gain g = w * (1-2c): every centroid weight w is at least log 2 > 0 (a
    centroid is its members' majority, so a position's mismatch fraction,
    and its floor 1/(2*size), are at most 1/2), so |g| is w and g < 0 is c,
    bit for bit, and the reference is ``weighted_hamming(r, c, w)``.

    Rounding bound: for one row let A = sum_i |w_i|, u = eps/2 and
    G = (N-1)u/(1-(N-1)u).  Any summation order of n <= N terms errs by at
    most G times the sum of their magnitudes.  So base errs from its exact
    value by at most G*A + u*(A + G*A), gain @ r by at most G*A, and the
    final addition by at most u*(A + 2G*A) + u^2*(A + G*A); the reference
    errs from the exact score by at most G*A + u*(A + G*A).  A linear score
    and the reference thus differ by at most (3G + 3u)(1 + 2u)*A <= e =
    2*N*eps*A when N*u <= 0.01.  The q-th smallest linear score c is then
    within max e of the q-th smallest reference s_q, so with
    ``tol = 8*N*eps*max A >= 2 max e`` a row scoring below c - tol has a
    reference below s_q and one scoring above c + tol a reference above s_q.
    """
    # an argmin costs less than a partial sort (or ``min``) for q = 1
    if q == 1:
        c = f[f.argmin()]
    else:
        part = f.copy()
        part.partition(q - 1)
        c = part[q - 1]
    keep = f <= c + tol
    if np.count_nonzero(keep) > q:
        band = np.flatnonzero(keep & (f >= c - tol))
        keep[band] = False
        need = q - np.count_nonzero(keep)
        exact = [weighted_hamming(r, g < 0, np.abs(g)) for g in score.gain[band]]
        keep[band[np.lexsort((band, exact))[:need]]] = True
    return keep


def preprocess(r: np.ndarray, tree: PartitionTree, q=None) -> np.ndarray:
    """Sorted candidate indices surviving the per-level centroid pruning.

    At each level the children of surviving nodes are scored by the weighted
    Hamming distance between their centroid and the 0/1 observation (each
    with its own weight vector); the q_l best survive, ties resolved toward
    the lexicographically smallest path.  ``q`` optionally overrides the
    per-level survivor counts, so one tree serves several pruning budgets.

    Centroid scores are not on the code scores' grid, so they keep their
    rounding: ``_smallest`` resolves the band within each level's ``tol``
    by the reference score and then by row, which is path order.  The
    observation reaches every product uncast: a 0/1 r of any dtype casts to
    float64 exactly inside it.
    """
    if q is None:
        q = tree.params.q
    else:
        require_valid_params(PartitionParams(k=tree.params.k, q=q))
    r = np.asarray(r)
    length = tree.arrays[0][1].gain.shape[1]
    if r.shape != (length,):
        raise ValueError(f"observation has shape {r.shape}, but the code has length {length}")
    levels = zip(tree.arrays, q)
    (_, score, tol), q_l = next(levels)
    n = score.base.size  # every child of the root races
    alive = _smallest(r, score(r), q_l, score, tol) if q_l < n else np.ones(n, dtype=bool)
    for (parent, score, tol), q_l in levels:
        racing = alive[parent]
        n_racing = np.count_nonzero(racing)
        if q_l >= n_racing:
            alive = racing
            continue
        f = score(r)
        if n_racing < racing.size:
            f[~racing] = np.inf
        alive = _smallest(r, f, q_l, score, tol)
    return alive[tree.leaf_of].nonzero()[0]


def estimate_complexity(params: PartitionParams | None, m: int, K: int):
    """(n_pre, n_wmd, n_total) distance-comparison counts per time slot."""
    full = m**K
    if params is None:
        return 0, full, full
    require_valid_params(params)
    n_pre = 0
    prev_q = 1
    for k_l, q_l in zip(params.k, params.q):
        n_pre += prev_q * k_l
        prev_q = q_l
    denom = math.prod(params.k)
    numer = full * params.q[-1]
    n_wmd = numer // denom if numer % denom == 0 else numer / denom
    return n_pre, n_wmd, n_pre + n_wmd


def tree_stats(tree: PartitionTree) -> str:
    """Plain-text report: per-level node count and member-size spread."""
    lines = [f"codewords: {tree.leaf_of.size}"]
    for depth, nodes in enumerate(tree.levels, start=1):
        sizes = np.array([n.members.size for n in nodes])
        lines.append(
            f"level {depth}: nodes={len(nodes)} members min={sizes.min()} "
            f"mean={sizes.mean():.2f} max={sizes.max()}"
        )
    return "\n".join(lines) + "\n"
