import ast
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

import onebit_mimo
import onebit_mimo.core
import onebit_mimo.ldpc
import onebit_mimo.partition
from onebit_mimo.config import DETECTORS
from onebit_mimo.core import (
    all_message_digits,
    bit_table,
    modulate,
    q_function,
    qam_constellation,
    real_channel_matrix,
    real_stack,
)


def m_ary_expansion(k: int, m: int, length: int) -> np.ndarray:
    """Oracle: digits [b_0, ..., b_{length-1}] with k = sum_i b_i * m**i (LSD first)."""
    if not 0 <= k < m**length:
        raise ValueError(f"index {k} outside [0, {m}**{length})")
    digits = np.empty(length, dtype=np.int64)
    for i in range(length):
        k, digits[i] = divmod(k, m)
    return digits


def message_to_bits(w: int, q: int) -> np.ndarray:
    """Oracle: MSB-first bits of a symbol in [0, 2**q)."""
    if not 0 <= w < 2**q:
        raise ValueError(f"symbol {w} outside [0, 2**{q})")
    return (w >> np.arange(q - 1, -1, -1)) & 1


def imported_names(source: str) -> dict:
    """{module: names} of the ``from <module> import`` statements in source."""
    out = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            out.setdefault(node.module, set()).update(alias.name for alias in node.names)
    return out


def test_oracles_are_not_public():
    # used only as the oracles above, so the package no longer exports them
    for name in ("m_ary_expansion", "message_to_bits"):
        assert name not in onebit_mimo.__all__
        assert not hasattr(onebit_mimo.core, name)
    # tests/test_partition.py keeps it as the oracle of the k-means weights
    assert "centroid_weights" not in onebit_mimo.__all__
    assert not hasattr(onebit_mimo.partition, "centroid_weights")
    # conftest.py keeps it as the writer of the alist files tests load
    assert not hasattr(onebit_mimo.ldpc, "write_alist")
    # the root exports exactly what the programs built on the package import
    root = Path(__file__).resolve().parents[1]
    (library,) = re.findall(r"```python\n(.*?)```", (root / "README.md").read_text("utf-8"), re.S)
    programs = [(root / "bench" / "workloads.py").read_text("utf-8"), library]
    programs += [path.read_text("utf-8") for path in sorted((root / "scripts").glob("*.py"))]
    imported = set()
    for source in programs:
        imported |= imported_names(source).get("onebit_mimo", set())
    # acceptance imports from the modules; the CLI's main is not part of the library
    acceptance = (root / "tests" / "test_acceptance.py").read_text("utf-8")
    for module, names in imported_names(acceptance).items():
        if module.startswith("onebit_mimo.") and module != "onebit_mimo.cli":
            imported |= names
    assert len(onebit_mimo.__all__) == len(set(onebit_mimo.__all__))
    assert set(onebit_mimo.__all__) == imported


def detector_name_comparisons(source: str) -> list:
    """Sorted (line, name) of each comparison or match case against a detector's name literal."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.MatchValue):
            operands = [node.value]
        else:
            continue
        for operand in operands:
            many = isinstance(operand, (ast.Tuple, ast.List, ast.Set))
            found += [
                (node.lineno, leaf.value)
                for leaf in (operand.elts if many else [operand])
                if isinstance(leaf, ast.Constant) and leaf.value in DETECTORS
            ]
    return sorted(found)


def test_no_detector_name_is_compared_outside_the_declaration():
    # each detector's kind is declared once, in config.DETECTORS, and every site reads the kind
    sample = 'd == "zf"\nif "ml" != d or d not in ("wmd", "x"): pass\nmatch d:\n case "md": pass\n'
    assert detector_name_comparisons(sample) == [(1, "zf"), (2, "ml"), (2, "wmd"), (4, "md")]
    package = Path(onebit_mimo.__file__).parent
    found = {path.name: detector_name_comparisons(path.read_text("utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def unused_imports(source: str) -> list:
    """Names source imports (``__future__`` aside) but never reads or lists in ``__all__``."""
    tree = ast.parse(source)
    bound, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(bound - used)


def test_no_unused_imports():
    # removing a branch can leave its import behind
    sample = "import os, sys\nfrom a import b as c, d\n__all__ = ['d']\nsys"
    assert unused_imports(sample) == ["c", "os"]
    root = Path(__file__).resolve().parents[1]
    folders = ("src/onebit_mimo", "scripts", "tests", "bench")
    paths = [path for folder in folders for path in (root / folder).glob("*.py")]
    # the acceptance tests are kept as they were written, imports of bit_table and pytest they
    # never use included
    paths.remove(root / "tests" / "test_acceptance.py")
    found = {path.relative_to(root).as_posix(): unused_imports(path.read_text("utf-8"))
             for path in paths}
    assert {name: names for name, names in found.items() if names} == {}


class TestMaryExpansion:
    def test_zero(self):
        assert m_ary_expansion(0, 4, 2).tolist() == [0, 0]

    def test_definition_arithmetic(self):
        # 6 = 2*1 + 1*4, least significant digit first
        assert m_ary_expansion(6, 4, 2).tolist() == [2, 1]

    def test_maximal(self):
        assert m_ary_expansion(15, 4, 2).tolist() == [3, 3]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            m_ary_expansion(16, 4, 2)
        with pytest.raises(ValueError):
            m_ary_expansion(-1, 4, 2)

    @pytest.mark.parametrize("m", [2, 4, 16])
    @pytest.mark.parametrize("K", range(1, 9))
    def test_round_trip(self, m, K):
        total = m**K
        ks = np.arange(total) if total <= 4096 else np.linspace(0, total - 1, 512, dtype=np.int64)
        for k in ks:
            digits = m_ary_expansion(int(k), m, K)
            assert np.all((0 <= digits) & (digits < m))
            assert int(digits @ m ** np.arange(K, dtype=np.int64)) == k

    def test_table_matches_scalar(self):
        table = all_message_digits(4, 3)
        assert table.shape == (64, 3)
        for ell in range(64):
            assert np.array_equal(table[ell], m_ary_expansion(ell, 4, 3))


class TestBitLabels:
    @pytest.mark.parametrize("bits,expected", [((1, 0), 2), ((0, 0), 0), ((1, 1), 3)])
    def test_examples(self, bits, expected):
        assert message_to_bits(expected, 2).tolist() == list(bits)

    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_round_trip(self, m):
        # MSB first: bit i carries weight 2**(q-1-i)
        q = int(np.log2(m))
        for w in range(m):
            assert int(message_to_bits(w, q) @ 2 ** np.arange(q - 1, -1, -1)) == w

    def test_bit_table_rows(self):
        table = bit_table(16)
        for w in range(16):
            assert np.array_equal(table[w], message_to_bits(w, 4))

    def test_bits_per_symbol_is_log2(self):
        # the one formula for q, exact at every power of two the config can reach
        for q in range(1, 25):
            for m in (2**q, np.int64(2**q)):
                assert onebit_mimo.core.bits_per_symbol(m) == q
        assert bit_table(64).shape == (64, 6)


class TestConstellation:
    def test_qpsk_point_zero(self):
        const = qam_constellation(4, 2.0)
        assert modulate(0, const) == pytest.approx(1 + 1j)

    def test_qpsk_point_three(self):
        const = qam_constellation(4, 2.0)
        assert modulate(3, const) == pytest.approx(-1 - 1j)

    def test_qpsk_sign_mapping(self):
        # first label bit flips the real axis, second the imaginary axis
        const = qam_constellation(4, 2.0)
        assert modulate(2, const) == pytest.approx(-1 + 1j)
        assert modulate(1, const) == pytest.approx(1 - 1j)

    @pytest.mark.parametrize("m", [4, 16, 64])
    @pytest.mark.parametrize("snr", [0.5, 1.0, 10.0])
    def test_power_constraint_exact(self, m, snr):
        const = qam_constellation(m, snr)
        power = np.mean(np.abs(const.points) ** 2)
        assert power == pytest.approx(snr, rel=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            qam_constellation(8, 1.0)
        with pytest.raises(ValueError):
            qam_constellation(2, 1.0)

    @pytest.mark.parametrize("snr", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_a_snr_that_is_not_positive_and_finite(self, snr):
        # a nan or +inf SNR would scale every point to nan or inf
        with pytest.raises(ValueError, match="snr must be positive and finite"):
            qam_constellation(4, snr)

    def test_16qam_levels(self):
        const = qam_constellation(16, 10.0)
        re_levels = np.unique(np.round(const.points.real, 9))
        assert len(re_levels) == 4  # +-1, +-3 scaled

    def test_shared_and_read_only(self):
        # built once per (m, snr) and shared by every caller, so nothing may write to it
        const = qam_constellation(16, 3.0)
        assert qam_constellation(16, 3.0) is const
        for table in (const.points, const.xy):
            with pytest.raises(ValueError):
                table[0] = 0
        assert np.array_equal(const.xy, [const.points.real, const.points.imag])

    def test_float_order_is_not_served_from_cache(self):
        # the cache is typed: 4.0 fails as it does uncached, even once 4 is cached
        assert qam_constellation(4, 7.0).m == 4
        with pytest.raises(TypeError):
            qam_constellation(4.0, 7.0)


class TestRealDecomposition:
    def test_identity_case(self):
        h = real_channel_matrix(np.array([[1 + 0j]]))
        assert np.array_equal(h, np.eye(2))

    def test_rotation_case(self):
        h = real_channel_matrix(np.array([[0 + 1j]]))
        assert np.array_equal(h, np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_matches_block_form(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        h[0, 0] = 1.0  # a zero imaginary part, negated to -0.0
        expected = np.block([[h.real, -h.imag], [h.imag, h.real]])
        got = real_channel_matrix(h)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            real_channel_matrix(np.ones(3, dtype=complex))  # not a matrix

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**31 - 1))
    def test_preserves_complex_multiplication(self, n_r, k, seed):
        rng = np.random.default_rng(seed)
        h_c = rng.standard_normal((n_r, k)) + 1j * rng.standard_normal((n_r, k))
        x_c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        h, x = real_channel_matrix(h_c), real_stack(x_c)
        direct = h_c @ x_c
        assert np.allclose(h @ x, np.concatenate([direct.real, direct.imag]), atol=1e-12)

    def test_real_stack_order(self):
        x = np.array([1 + 2j, 3 + 4j])
        assert real_stack(x).tolist() == [1, 3, 2, 4]

    def test_matrix_shape(self):
        h = real_channel_matrix(np.ones((3, 2), dtype=complex))
        assert h.shape == (6, 4)


class TestQFunction:
    def test_at_zero(self):
        assert q_function(0.0) == pytest.approx(0.5)

    def test_tail_bound(self):
        assert q_function(10.0) < 1e-20

    def test_reference_value(self):
        assert q_function(1.0) == pytest.approx(0.15865525393145707, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-8, 8))
    def test_symmetry(self, x):
        assert q_function(x) + q_function(-x) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_decreasing(self):
        xs = np.linspace(-6, 6, 200)
        vals = q_function(xs)
        assert np.all(np.diff(vals) < 0)


def scipy_q(x):
    """Oracle: the Q-function through scipy's erfc, which evaluates the same Cephes pieces."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def assert_close_to(q, ref, rtol):
    """|q - ref| <= rtol * ref, or two of the smallest subnormal steps where ref is subnormal.

    Below the smallest normal double the spacing of doubles is fixed, so one
    rounding of a subnormal result differs by more than any relative bound.
    """
    assert np.all(np.abs(q - ref) <= np.maximum(rtol * ref, 2 * 2.0**-1074))


# step 1e-4 from the bulk to past the point where Q underflows to 0 (near 37.68)
Q_GRID = np.linspace(-38.0, 38.0, 760_001)


class TestQFunctionMatchesCephes:
    def test_bitwise_equal_to_scipy_on_the_erf_piece(self):
        x = Q_GRID[np.abs(Q_GRID) / np.sqrt(2.0) < 1.0]
        assert x.size > onebit_mimo.core._ERFC_CHUNK  # spans two chunks
        assert q_function(x).tobytes() == scipy_q(x).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-np.sqrt(2.0), np.sqrt(2.0), exclude_min=True, exclude_max=True))
    def test_bitwise_equal_to_scipy_on_the_erf_piece_at_any_float(self, x):
        assert q_function(x).tobytes() == scipy_q(x).tobytes()

    def test_within_1e_14_of_scipy_on_the_tail_pieces(self):
        # the tails differ from scipy's only through numpy's exp against libm's
        assert_close_to(q_function(Q_GRID), scipy_q(Q_GRID), 1e-14)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-38.0, 38.0))
    def test_within_1e_14_of_scipy_at_any_float(self, x):
        assert_close_to(q_function(x), scipy_q(x), 1e-14)

    def test_zero_at_the_same_inputs_as_scipy(self):
        q, ref = q_function(Q_GRID), scipy_q(Q_GRID)
        assert np.array_equal(q == 0.0, ref == 0.0)
        assert (ref == 0.0).any() and not (q[Q_GRID < 37.0] == 0.0).any()

    def test_within_1e_13_of_libm(self):
        x = Q_GRID[::20]
        libm = np.array([0.5 * math.erfc(v / math.sqrt(2.0)) for v in x])
        normal = libm >= np.finfo(float).tiny  # Cephes returns 0 once exp(-x*x/2) underflows
        assert_close_to(q_function(x[normal]), libm[normal], 1e-13)

    def test_special_values_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert q_function(0.0) == 0.5 and q_function(-0.0) == 0.5
            got = q_function(np.array([np.inf, -np.inf, 1e300, -1e300, np.nan, 8.0, -8.0]))
        assert got[:4].tolist() == [0.0, 1.0, 0.0, 1.0]
        assert np.isnan(got[4])
        assert got[5:].tobytes() == scipy_q([8.0, -8.0]).tobytes()

    def test_scalar_in_scalar_out_and_shape_kept(self):
        assert isinstance(q_function(1.5), np.float64)
        assert q_function(np.ones((3, 0))).shape == (3, 0)
        x = Q_GRID[::1000].reshape(-1, 1, 1)
        assert q_function(x).shape == x.shape

    def test_value_does_not_depend_on_position(self):
        # build_code's antipodal symmetry needs each entry computed alone, chunks included
        x = np.random.default_rng(3).normal(scale=8.0, size=40_000)
        q = q_function(x)
        assert q_function(x[::-1])[::-1].tobytes() == q.tobytes()
        assert q_function(x[::-1][:777])[::-1].tobytes() == q[-777:].tobytes()
