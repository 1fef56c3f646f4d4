"""Kernel evaluation, Gram matrices, bandwidth rules, and centering."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

import hsicreg
from hsicreg import (
    BootstrapConfig,
    Dataset,
    DegenerateDataError,
    DesignSpec,
    KernelSpec,
    MemoryLimitError,
    gram_matrix,
    median_heuristic,
    permutation_pvalue,
    resolve_bandwidth,
)
from hsicreg.hsic import prepare_stat
from hsicreg.kernels import _TILE, MEDIAN, _difference_operands, _gram_tile, _memory_limits, as_points


def gaussian_kernel(u, v, bandwidth: float) -> float:
    """Pointwise oracle: exp(-||u - v||^2 / bandwidth^2) for a single pair of points."""
    bw = float(bandwidth)
    if not np.isfinite(bw) or bw <= 0.0:
        raise ValueError(f"bandwidth must be a positive finite number, got {bandwidth!r}")
    a = np.atleast_1d(np.asarray(u, dtype=float))
    b = np.atleast_1d(np.asarray(v, dtype=float))
    if a.shape != b.shape:
        raise ValueError(f"point shapes differ: {a.shape} vs {b.shape}")
    d = a - b
    return float(np.exp(-float(d @ d) / (bw * bw)))


def test_gaussian_kernel_known_value():
    # exp(-|0-1|^2 / 1^2) = e^-1, no factor of 2 anywhere in the exponent
    assert gaussian_kernel(0.0, 1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=0, abs=1e-15)
    assert gaussian_kernel(0.0, 1.0, 1.0) == pytest.approx(0.36787944117144233, abs=1e-16)


def test_gaussian_kernel_bandwidth_scales_squared():
    """Doubling the bandwidth divides the exponent by four."""
    d = 1.7
    k2 = gaussian_kernel(0.0, d, 2.0)
    assert k2 == pytest.approx(math.exp(-(d * d) / 4.0), rel=1e-15)


def test_gaussian_kernel_vector_points():
    u = np.array([1.0, 2.0, 3.0])
    v = np.array([1.0, 0.0, 0.0])
    assert gaussian_kernel(u, v, 2.0) == pytest.approx(math.exp(-13.0 / 4.0), rel=1e-15)


def test_gaussian_kernel_identical_points_is_one():
    assert gaussian_kernel(3.25, 3.25, 0.4) == 1.0


def test_gaussian_kernel_symmetric_in_arguments():
    rng = np.random.default_rng(5)
    for _ in range(20):
        u, v = rng.normal(size=(2, 3))
        assert gaussian_kernel(u, v, 1.3) == gaussian_kernel(v, u, 1.3)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_gaussian_kernel_rejects_bad_bandwidth(bad):
    with pytest.raises(ValueError):
        gaussian_kernel(0.0, 1.0, bad)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(bandwidth=-2.0)
    with pytest.raises(ValueError, match="'widest'"):
        KernelSpec("widest")
    # a median spec keeps the rule's name until resolution
    assert KernelSpec(MEDIAN).bandwidth == MEDIAN


@pytest.mark.parametrize("bad", [True, "2.0", -1, 0, float("nan"), float("inf"), None],
                         ids=["True", "str-number", "-1", "0", "nan", "inf", "None"])
def test_kernel_spec_rejects_bad_bandwidth_when_built(bad):
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        KernelSpec(bad)


@pytest.mark.parametrize("given, stored", [(2, 2.0), (np.float32(1.5), 1.5), (MEDIAN, MEDIAN)])
def test_kernel_spec_stores_a_float_or_median(given, stored):
    bandwidth = KernelSpec(given).bandwidth
    assert bandwidth == stored
    assert type(bandwidth) is type(stored)


def test_kernel_spec_is_the_bandwidth_alone():
    assert [f.name for f in dataclasses.fields(KernelSpec)] == ["bandwidth"]
    with pytest.raises(TypeError):
        KernelSpec(rule="median")


def test_median_heuristic_three_point_line():
    # pairwise distances of {0, 1, 2} are {1, 1, 2}; median 1
    assert median_heuristic([0.0, 1.0, 2.0]) == 1.0


def test_median_heuristic_counts_tied_pairs():
    # {0, 0, 1}: distances {0, 1, 1} -> median 1; {0, 0, 0, 1}: {0,0,0,1,1,1} -> median 0.5
    assert median_heuristic([0.0, 0.0, 1.0]) == 1.0
    assert median_heuristic([0.0, 0.0, 0.0, 1.0]) == 0.5


def test_median_heuristic_degenerate_sample():
    with pytest.raises(DegenerateDataError):
        median_heuristic(np.zeros(6))
    with pytest.raises(DegenerateDataError):
        median_heuristic([4.0])


def test_resolve_bandwidth_fixed_passthrough():
    spec = KernelSpec(bandwidth=0.7)
    assert resolve_bandwidth(spec, np.arange(5.0)) is spec


def test_resolve_bandwidth_median_becomes_fixed():
    resolved = resolve_bandwidth(KernelSpec(MEDIAN), [0.0, 1.0, 2.0])
    assert type(resolved.bandwidth) is float
    assert resolved.bandwidth == 1.0


def test_gram_matrix_exact_symmetry_and_unit_diagonal():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(40, 3))
    K = gram_matrix(pts, KernelSpec(bandwidth=1.3))
    assert np.array_equal(K, K.T), "Gram matrix must be exactly symmetric"
    assert np.array_equal(np.diag(K), np.ones(40)), "diagonal must be exactly one"
    assert K.min() > 0.0 and K.max() <= 1.0


def test_gram_matrix_matches_pairwise_kernel():
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(9, 2))
    K = gram_matrix(pts, KernelSpec(bandwidth=0.9))
    for i in range(9):
        for j in range(9):
            want = gaussian_kernel(pts[i], pts[j], 0.9)
            assert K[i, j] == pytest.approx(want, rel=1e-12), (i, j)


def test_gram_matrix_one_dimensional_input():
    x = np.array([0.0, 1.0, 3.0])
    K = gram_matrix(x, KernelSpec())
    assert K.shape == (3, 3)
    assert K[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert K[0, 2] == pytest.approx(math.exp(-9.0), rel=1e-13)


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("n", [2, 57, 1000])
def test_gram_matrix_bits_match_pairwise_distance_construction(n, p):
    """Points divided by the bandwidth once, then per-coordinate differences summed in
    pdist's order, give the bits of pdist on the prescaled points: exactly symmetric,
    with a unit diagonal."""
    rng = np.random.default_rng(13 + n + p)
    pts = rng.normal(size=(n, p)) * 3.0
    bw = 1.7
    want = np.exp(-squareform(pdist(pts / bw, "sqeuclidean")))
    got = gram_matrix(pts, KernelSpec(bandwidth=bw))
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() == got.T.copy().tobytes()
    assert np.array_equal(np.diag(got), np.ones(n))


def _one_tile(pts: np.ndarray, bandwidth: float) -> np.ndarray:
    """One ``_gram_tile`` over every pair of ``pts``."""
    left, right = _difference_operands(pts / bandwidth)
    return _gram_tile(left, right, np.empty((len(pts), len(pts))))


@pytest.mark.parametrize("p", [1, 2, 4, 7])
@pytest.mark.parametrize("n", [1, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 1, 1000])
def test_strip_build_equals_one_tile_over_all_pairs(n, p):
    """Strips of _TILE rows give the bits of one _gram_tile over every pair."""
    pts = np.random.default_rng(17 + n + p).normal(size=(n, p))
    assert np.array_equal(gram_matrix(pts, KernelSpec(bandwidth=1.3)), _one_tile(pts, 1.3))


def _rank2_difference(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x_i - y_j through the operands a Gram tile multiplies."""
    left, _ = _difference_operands(x[:, None])
    _, right = _difference_operands(y[:, None])
    return np.matmul(left[0], right[0])


_EXTREMES = np.array([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e-300, -1e-300, 1.0, -1.5,
    np.nextafter(1.0, 2.0), 1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308,
])


class TestRank2Difference:
    """The difference block is a product whose terms multiply by +-1, so each entry is
    the one correctly rounded difference, bit for bit, whatever BLAS does."""

    @staticmethod
    def assert_bits_equal_to_subtract_outer(x, y):
        with np.errstate(over="ignore"):
            got, want = _rank2_difference(x, y), np.subtract.outer(x, y)
        same = got.view(np.int64) == want.view(np.int64)
        # The one pair a product cannot reproduce: (-0) - (+0) is -0, and a sum of
        # products started from +0 gives +0.  A Gram tile squares it next.
        zero_pair = np.signbit(x)[:, None] & ~np.signbit(y)[None, :] & (x[:, None] == 0) & (y[None, :] == 0)
        assert np.array_equal(same, ~zero_pair)
        assert np.all(got[zero_pair] == 0.0) and not np.signbit(got[zero_pair]).any()

    def test_extremes_signed_zeros_and_subnormals(self):
        self.assert_bits_equal_to_subtract_outer(_EXTREMES, _EXTREMES[::-1].copy())

    @pytest.mark.parametrize("shape", [(1, 1), (1, 15), (15, 1)])
    def test_one_row_and_one_column_shapes(self, shape):
        self.assert_bits_equal_to_subtract_outer(_EXTREMES[: shape[0]], _EXTREMES[::-1][: shape[1]].copy())

    def test_magnitudes_from_1e_minus_300_to_1e300(self):
        rng = np.random.default_rng(19)
        x, y = (rng.normal(size=size) * 10.0 ** rng.integers(-300, 301, size=size) for size in (200, 300))
        self.assert_bits_equal_to_subtract_outer(x, y)

    def test_strided_column_slices(self):
        """The operands of a strided column of a point array, and tiles sliced from them."""
        pts = np.random.default_rng(20).normal(size=(300, 3)) * 1e3
        left, right = _difference_operands(pts)
        for j in range(3):
            for rows, cols in ((slice(0, 128), slice(128, 256)), (slice(256, 300), slice(0, 300))):
                assert np.matmul(left[j, rows], right[j][:, cols]).tobytes() == \
                    np.subtract.outer(pts[rows, j], pts[cols, j]).tobytes()


def test_bits_do_not_depend_on_blas_threads():
    """The Gram and the statistic kernel are the same bytes under one and two BLAS threads."""
    script = (
        "import hashlib, numpy as np\n"
        "from hsicreg import KernelSpec, gram_matrix\n"
        "from hsicreg.hsic import _residual_stat\n"
        "rng = np.random.default_rng(21)\n"
        "K = gram_matrix(rng.normal(size=(1000, 4)), KernelSpec(4.0))\n"
        "idx = np.sort(rng.integers(0, 1000, size=1000))\n"
        "value = _residual_stat(K, idx, rng.normal(size=1000), 2**0.5).value\n"
        "print(hashlib.sha256(K.tobytes() + np.float64(value).tobytes()).hexdigest())\n"
    )
    src = os.path.dirname(os.path.dirname(hsicreg.__file__))
    digests = {
        subprocess.run([sys.executable, "-c", script], check=True, capture_output=True, text=True, timeout=300,
                       env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}).stdout
        for threads in ("1", "2")
    }
    assert len(digests) == 1


def test_strip_build_resolves_the_median_rule_once(monkeypatch):
    pts = np.random.default_rng(18).normal(size=(300, 3))
    bandwidth = median_heuristic(pts)
    calls = []

    def counted(points):
        calls.append(1)
        return median_heuristic(points)

    monkeypatch.setattr("hsicreg.kernels.median_heuristic", counted)
    got = gram_matrix(pts, KernelSpec(MEDIAN))
    assert calls == [1]
    assert np.array_equal(got, _one_tile(pts, bandwidth))


class TestMemoryGuard:
    """The limit is always patched down: no test allocates a real huge Gram."""

    @pytest.fixture
    def one_megabyte(self, monkeypatch):
        monkeypatch.setattr("hsicreg.kernels._memory_limits", lambda: ((1_000_000, "a patched limit"),))

    def test_raises_before_the_gram_is_allocated(self, one_megabyte):
        n = 400
        pts = np.random.default_rng(19).normal(size=(n, 2))
        tracemalloc.start()
        try:
            with pytest.raises(MemoryLimitError) as info:
                gram_matrix(pts, KernelSpec())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n, f"traced peak {peak} bytes"
        needed = 8 * n * n + 8 * _TILE * n
        message = str(info.value)
        for part in ("n = 400", f"{needed} bytes", "1000000 bytes", "a patched limit"):
            assert part in message, message
        assert isinstance(info.value, MemoryError)

    def test_median_rule_checks_the_limit_before_its_distances(self, one_megabyte, monkeypatch):
        def no_pdist(*args, **kwargs):
            raise AssertionError("pdist ran before the memory check")

        monkeypatch.setattr("scipy.spatial.distance.pdist", no_pdist)
        rng = np.random.default_rng(23)
        X, y = rng.normal(size=(400, 2)), rng.normal(size=400)
        with pytest.raises(MemoryLimitError, match="n = 400"):
            median_heuristic(X)
        with pytest.raises(MemoryLimitError, match="n = 400"):
            prepare_stat(Dataset(X, y), DesignSpec.main_effects(2),
                         KernelSpec(MEDIAN), KernelSpec(MEDIAN))

    def test_permutation_baseline_checks_both_grams_before_building_either(self, monkeypatch):
        n = 400
        limit = 12 * n * n + 8 * _TILE * n  # one and a half Grams: one fits, two do not
        monkeypatch.setattr("hsicreg.kernels._memory_limits", lambda: ((limit, "a patched limit"),))
        rng = np.random.default_rng(29)
        u, v = rng.normal(size=(n, 2)), rng.normal(size=n)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryLimitError) as info:
                permutation_pvalue(u, v, KernelSpec(), KernelSpec(), BootstrapConfig(replicates=9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n, f"traced peak {peak} bytes"
        assert f"2 n x n Gram matrix(es) at n = 400 need {16 * n * n + 8 * _TILE * n} bytes" in str(info.value)

    def test_a_gram_under_the_limit_is_built(self, one_megabyte):
        assert gram_matrix(np.arange(200.0), KernelSpec()).shape == (200, 200)

    def test_limit_is_the_smallest_readable_source_and_read_once(self, monkeypatch):
        calls = []

        def sysconf(name):
            calls.append(name)
            return {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1000}[name]

        def unreadable(name):
            raise ValueError(name)

        _memory_limits.cache_clear()
        try:
            # No cgroup or address-space limit is below 4 MB in a running interpreter.
            monkeypatch.setattr(os, "sysconf", sysconf)
            assert _memory_limits()[0] == (4_096_000, "physical memory")
            assert _memory_limits()[0] == (4_096_000, "physical memory")
            assert len(calls) == 2
            _memory_limits.cache_clear()
            monkeypatch.setattr(os, "sysconf", unreadable)
            assert all(source != "physical memory" for _, source in _memory_limits())
        finally:
            _memory_limits.cache_clear()


def test_as_points_validation():
    assert as_points([1.0, 2.0]).shape == (2, 1)
    with pytest.raises(ValueError):
        as_points(np.empty((0, 2)))
    with pytest.raises(ValueError):
        as_points([[1.0, np.nan]])
    with pytest.raises(ValueError):
        as_points(np.zeros((2, 2, 2)))
