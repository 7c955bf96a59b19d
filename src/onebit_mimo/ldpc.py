"""Regular LDPC code construction and decoding.

Codes are (3,6)-regular by default, built by random stub pairing followed by
edge swaps that remove parallel edges and 4-cycles, so the Tanner graph has
girth at least 6.  The parity-check matrix is reduced over GF(2) to obtain a
systematic-form generator; constructions that come out rank deficient are
retried with a fresh pairing.

Decoders: sum-product belief propagation on log-likelihood ratios (positive
LLR favors bit 0) and hard-input majority bit flipping.  Both are iteration
capped and report whether they converged to a valid codeword.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CodeConstructionError, ConfigurationError

VAR_DEGREE = 3
CHECK_DEGREE = 6
MAX_CONSTRUCTION_ATTEMPTS = 30
MAX_REPAIR_ROUNDS = 2000  # bad edges swapped away per attempt
_TANH_LIM = 1.0 - 1e-12

# Largest LDPC code dimension, constructed (ldpc_n) or loaded (an alist's n
# and n_checks): code_from_parity_check builds a dense n_checks x n matrix and
# float64 copies of it and of the generator (64 MiB each for a rate-1/2 code
# at the bound), and its GF(2) reduction grows as n**3.
MAX_LDPC_N = 4096


@dataclass(eq=False)
class LdpcCode:
    h: np.ndarray  # (n_checks, n) uint8 parity-check matrix
    generator: np.ndarray  # (k, n) uint8, g @ h.T == 0 over GF(2)
    edge_var: np.ndarray  # (n_edges,) variable index, grouped by check
    edge_check: np.ndarray  # (n_edges,) check index, non-decreasing
    check_start: np.ndarray  # (n_checks,) reduceat offsets into the edge arrays
    col_degree: np.ndarray  # (n,) variable node degrees

    @property
    def n(self) -> int:
        return self.h.shape[1]

    @property
    def k(self) -> int:
        return self.generator.shape[0]


def _pair_stubs(n: int, n_checks: int, rng: np.random.Generator):
    ev = np.repeat(np.arange(n), VAR_DEGREE)
    ec = np.repeat(np.arange(n_checks), CHECK_DEGREE)[rng.permutation(n * VAR_DEGREE)]
    return ev, ec


def _first_repeat(keys: np.ndarray):
    """Position of the first entry equal to an earlier one, or None."""
    order = np.argsort(keys, kind="stable")
    repeats = order[1:][np.diff(keys[order]) == 0]
    return int(repeats.min()) if repeats.size else None


def _find_bad_edge(ev: np.ndarray, ec: np.ndarray):
    """Index of an edge participating in a parallel pair or a 4-cycle.

    The first repeated (variable, check) key in edge order; else the second
    edge of the first repeated (v_i, v_j) pair over each check's
    variable-sorted edges (CHECK_DEGREE each), in ``triu_indices`` order.
    """
    n_checks, n = int(ec.max()) + 1, int(ev.max()) + 1
    bad = _first_repeat(ev * n_checks + ec)
    if bad is not None:
        return bad
    rows = np.lexsort((ev, ec)).reshape(n_checks, CHECK_DEGREE)
    i, j = np.triu_indices(CHECK_DEGREE, 1)
    first, second = rows[:, i].ravel(), rows[:, j].ravel()
    pair = _first_repeat(ev[first] * n + ev[second])
    return None if pair is None else int(second[pair])


def _repair_graph(ev, ec, rng):
    """Swap check endpoints until no parallel edges or 4-cycles remain."""
    n_edges = len(ev)
    # Goes stale once one copy of a parallel edge swaps away (its key leaves,
    # the other copy stays); exact lookups would draw differently.
    present = set(zip(ev.tolist(), ec.tolist()))
    for _ in range(MAX_REPAIR_ROUNDS):
        bad = _find_bad_edge(ev, ec)
        if bad is None:
            return True
        v1, c1 = int(ev[bad]), int(ec[bad])
        for _ in range(200):
            other = int(rng.integers(n_edges))
            v2, c2 = int(ev[other]), int(ec[other])
            if v1 == v2 or c1 == c2 or (v1, c2) in present or (v2, c1) in present:
                continue
            present -= {(v1, c1), (v2, c2)}
            present |= {(v1, c2), (v2, c1)}
            ec[bad], ec[other] = c2, c1
            break
        else:
            return False
    return False


def _gf2_systematic(h: np.ndarray):
    """Row-reduce h over GF(2) to (reduced, pivot_cols); reject a rank-deficient h."""
    hw = h.copy()
    n_checks, n = hw.shape
    pivots = []
    row = 0
    for col in range(n):
        pool = np.nonzero(hw[row:, col])[0]
        if pool.size == 0:
            continue
        pr = row + int(pool[0])
        if pr != row:
            hw[[row, pr]] = hw[[pr, row]]
        others = np.nonzero(hw[:, col])[0]
        others = others[others != row]
        if others.size:
            hw[others] ^= hw[row]
        pivots.append(col)
        row += 1
        if row == n_checks:
            break
    if row < n_checks:
        raise CodeConstructionError("parity-check matrix is rank deficient")
    return hw, np.array(pivots)


def code_from_parity_check(h: np.ndarray) -> LdpcCode:
    """Build the full decoder/encoder structure from a parity-check matrix.

    Raises CodeConstructionError when h is rank deficient (no systematic
    generator exists for the full check set).
    """
    h = np.asarray(h, dtype=np.uint8) % 2
    if h.ndim != 2 or not h.any():
        raise CodeConstructionError("parity-check matrix must be a nonzero 2-D binary array")
    hw, pivots = _gf2_systematic(h)
    n_checks, n = h.shape
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)  # not np.setdiff1d, which imports numpy.ma
    k = n - n_checks
    gen = np.zeros((k, n), dtype=np.uint8)
    gen[np.arange(k), free] = 1
    gen[:, pivots] = hw[:, free].T
    # float64 sums of at most n ones are exact, and BLAS makes them fast
    if np.any((gen.astype(np.float64) @ h.T.astype(np.float64)) % 2):
        raise CodeConstructionError("generator does not satisfy the parity checks")

    ec, ev = np.nonzero(h)
    check_start = np.searchsorted(ec, np.arange(n_checks))
    return LdpcCode(
        h=h,
        generator=gen,
        edge_var=ev.astype(np.int64),
        edge_check=ec.astype(np.int64),
        check_start=check_start.astype(np.int64),
        col_degree=h.sum(axis=0).astype(np.int64),
    )


def require_constructible(n: int, rate: float) -> None:
    """Reject a rate or blocklength that no (3,6)-regular code has.

    The degree pair fixes the design rate at 1/2, and the construction needs
    an even n of at least 2 * CHECK_DEGREE.
    """
    if not abs(rate - 0.5) <= 1e-12:  # true for nan too
        raise ConfigurationError(f"(3,6)-regular construction fixes rate=0.5, got {rate}")
    if n < 2 * CHECK_DEGREE or n % 2:
        raise ConfigurationError(f"blocklength must be even and >= {2 * CHECK_DEGREE}, got {n}")


def construct_code(n: int, rate: float = 0.5, seed: int = 0) -> LdpcCode:
    """Random (3,6)-regular code of blocklength n with girth >= 6 (see require_constructible)."""
    require_constructible(n, rate)
    n_checks = n * VAR_DEGREE // CHECK_DEGREE
    for attempt in range(MAX_CONSTRUCTION_ATTEMPTS):
        rng = np.random.default_rng([seed, attempt])
        ev, ec = _pair_stubs(n, n_checks, rng)
        if not _repair_graph(ev, ec, rng):
            continue
        h = np.zeros((n_checks, n), dtype=np.uint8)
        h[ec, ev] = 1
        try:
            return code_from_parity_check(h)
        except CodeConstructionError:
            continue
    raise CodeConstructionError(
        f"no full-rank girth-6 construction found for n={n} after "
        f"{MAX_CONSTRUCTION_ATTEMPTS} attempts"
    )


def encode(code: LdpcCode, message: np.ndarray) -> np.ndarray:
    """Codeword of one message (k,), or codeword rows of a message stack (K, k)."""
    message = np.asarray(message, dtype=np.uint8)
    if message.ndim not in (1, 2) or message.shape[-1] != code.k:
        raise ValueError(
            f"message must have shape ({code.k},) or (K, {code.k}), got {message.shape}"
        )
    return (message @ code.generator) % 2


def syndrome(code: LdpcCode, bits: np.ndarray) -> np.ndarray:
    """Per-check parities of a 0/1 word (all zero iff a codeword), in the word's dtype."""
    return np.bitwise_xor.reduceat(np.asarray(bits)[code.edge_var], code.check_start)


def decode_bp(llrs: np.ndarray, code: LdpcCode, max_iter: int = 50):
    """Sum-product decoding; returns (hard_bits, converged).

    An all-zero LLR vector carries no channel information, so it is rejected
    immediately (all-zero word, converged False) rather than reported as a
    trivially satisfied codeword.
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.shape != (code.n,):
        raise ValueError(f"llrs must have shape ({code.n},), got {llrs.shape}")
    if not llrs.any():
        return np.zeros(code.n, dtype=np.uint8), False

    ev, ec, start = code.edge_var, code.edge_check, code.check_start
    msg_cv = np.zeros(len(ev))
    hard = llrs < 0
    if not np.count_nonzero(syndrome(code, hard)):
        return hard.view(np.uint8), True

    total = llrs
    for _ in range(max_iter):
        t = total[ev]
        t -= msg_cv
        t *= 0.5
        np.tanh(t, out=t)
        neg = t < 0.0
        mag = np.abs(t, out=t)
        # leave-one-out products per edge via the check totals: the log
        # magnitudes sum, and the signs' parity is a xor of bools
        odd = np.bitwise_xor.reduceat(neg, start)[ec]
        odd ^= neg
        if mag.min() < 1e-300:
            is_zero = mag < 1e-300
            logm = np.where(is_zero, 0.0, np.log(np.maximum(mag, 1e-300)))
            prod = np.exp(np.add.reduceat(logm, start)[ec] - logm)
            # another zero on the check makes the product +0.0
            dead = np.add.reduceat(is_zero.astype(np.int64), start)[ec] > is_zero
            prod[dead] = 0.0
            odd[dead] = False
        else:
            logm = np.log(mag, out=mag)
            prod = np.add.reduceat(logm, start)[ec]
            prod -= logm
            np.exp(prod, out=prod)
        np.putmask(prod, odd, -prod)
        np.maximum(prod, -_TANH_LIM, out=prod)
        np.minimum(prod, _TANH_LIM, out=prod)
        msg_cv = np.arctanh(prod, out=prod)
        msg_cv *= 2.0
        total = llrs.copy()
        np.add.at(total, ev, msg_cv)
        hard = total < 0
        if not np.count_nonzero(syndrome(code, hard)):
            return hard.view(np.uint8), True
    return hard.view(np.uint8), False


def decode_bit_flipping(bits: np.ndarray, code: LdpcCode, max_iter: int = 50):
    """Majority bit flipping on hard decisions; returns (bits, converged).

    Each round flips every bit whose unsatisfied-check count strictly exceeds
    half its degree; a round with nothing to flip stalls the decoder.
    """
    bits = np.array(bits, dtype=np.uint8)
    if bits.shape != (code.n,):
        raise ValueError(f"bits must have shape ({code.n},), got {bits.shape}")
    for _ in range(max_iter):
        synd = syndrome(code, bits)
        if not synd.any():
            return bits, True
        unsat = np.bincount(code.edge_var[synd[code.edge_check].view(bool)], minlength=code.n)
        flip = 2 * unsat > code.col_degree
        if not flip.any():
            return bits, False
        bits[flip] ^= 1
    return bits, not syndrome(code, bits).any()


def parse_alist(text: str) -> np.ndarray:
    """The parity-check matrix of standard alist text; zero padding entries are ignored.

    The header's n and n_checks are bounded by MAX_LDPC_N before any matrix
    is allocated.  The line count is checked against the header, and both
    degree lines and every row list against the matrix the column lists
    build, so truncated or internally inconsistent files are rejected.
    """
    rows = [line.split() for line in text.splitlines() if line.strip()]
    try:
        n, n_checks = int(rows[0][0]), int(rows[0][1])
        if not (1 <= n <= MAX_LDPC_N and 1 <= n_checks <= MAX_LDPC_N):
            raise ValueError(f"n={n} and n_checks={n_checks} must be in 1..{MAX_LDPC_N}")
        if len(rows) != 4 + n + n_checks:
            raise ValueError(f"expected {4 + n + n_checks} lines, got {len(rows)}")
        col_deg = [int(t) for t in rows[2]]
        if len(col_deg) != n:
            raise ValueError("column degree count disagrees with the header")
        h = np.zeros((n_checks, n), dtype=np.uint8)
        for j, line in enumerate(rows[4 : 4 + n]):
            for tok in line:
                i = int(tok)
                if i < 0 or i > n_checks:
                    raise ValueError(f"check index {i} out of range")
                if i:
                    h[i - 1, j] = 1
            if int(h[:, j].sum()) != col_deg[j]:
                raise ValueError(f"column {j} degree disagrees with the header")
        row_deg = [int(t) for t in rows[3]]
        if len(row_deg) != n_checks:
            raise ValueError("row degree count disagrees with the header")
        for i, line in enumerate(rows[4 + n :]):
            ones = sorted(v for v in map(int, line) if v)
            if ones != (np.flatnonzero(h[i]) + 1).tolist():
                raise ValueError(f"row {i} list disagrees with the column lists")
            if row_deg[i] != len(ones):
                raise ValueError(f"row {i} degree disagrees with its list")
    except (IndexError, ValueError) as exc:
        raise ConfigurationError(f"malformed alist data: {exc}") from exc
    return h


def load_alist(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        return parse_alist(fh.read())
