"""Kernel evaluation, Gram matrices, bandwidth rules, and centering."""

import math

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from hsicreg import (
    DegenerateDataError,
    KernelSpec,
    center_gram,
    gaussian_kernel,
    gram_matrix,
    median_heuristic,
    resolve_bandwidth,
)
from hsicreg.kernels import FIXED, MEDIAN, as_points


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
    with pytest.raises(ValueError):
        KernelSpec(rule="widest")
    # median rule ignores the bandwidth field until resolution
    spec = KernelSpec(rule=MEDIAN)
    assert spec.rule == MEDIAN


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
    resolved = resolve_bandwidth(KernelSpec(rule=MEDIAN), [0.0, 1.0, 2.0])
    assert resolved.rule == FIXED
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
    """Per-coordinate differences summed in pdist's order give the same bits."""
    rng = np.random.default_rng(13 + n + p)
    pts = rng.normal(size=(n, p)) * 3.0
    bw = 1.7
    want = np.exp(-squareform(pdist(pts, "sqeuclidean")) / bw**2)
    assert np.array_equal(gram_matrix(pts, KernelSpec(bandwidth=bw)), want)


@pytest.mark.parametrize("p", [1, 4])
def test_gram_matrix_into_buffer(p):
    rng = np.random.default_rng(14)
    pts = rng.normal(size=(33, p))
    spec = KernelSpec(bandwidth=0.8)
    buf = np.full((33, 33), np.nan)
    got = gram_matrix(pts, spec, out=buf)
    assert got is buf
    assert np.array_equal(buf, gram_matrix(pts, spec))


def test_as_points_validation():
    assert as_points([1.0, 2.0]).shape == (2, 1)
    with pytest.raises(ValueError):
        as_points(np.empty((0, 2)))
    with pytest.raises(ValueError):
        as_points([[1.0, np.nan]])
    with pytest.raises(ValueError):
        as_points(np.zeros((2, 2, 2)))


class TestCenterGram:
    def test_row_and_column_sums_vanish(self):
        rng = np.random.default_rng(21)
        K = gram_matrix(rng.normal(size=(30, 2)), KernelSpec())
        C = center_gram(K)
        assert np.abs(C.sum(axis=0)).max() < 1e-12
        assert np.abs(C.sum(axis=1)).max() < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(22)
        K = gram_matrix(rng.normal(size=(25, 2)), KernelSpec())
        C = center_gram(K)
        np.testing.assert_allclose(center_gram(C), C, atol=1e-13)

    def test_matches_explicit_projection(self):
        """H K H with H = I - 11'/n, materialized, at small and at large n."""
        rng = np.random.default_rng(23)
        for n in (7, 1000):
            K = gram_matrix(rng.normal(size=(n, 3)), KernelSpec(bandwidth=1.4))
            H = np.eye(n) - np.ones((n, n)) / n
            np.testing.assert_allclose(center_gram(K), H @ K @ H, atol=1e-14, err_msg=f"n={n}")

    def test_in_place_equals_allocating(self):
        """``out`` may alias the input: the means are taken before any write."""
        rng = np.random.default_rng(24)
        for n in (5, 300):
            K = gram_matrix(rng.normal(size=(n, 2)), KernelSpec(bandwidth=1.1))
            want = center_gram(K)
            got = center_gram(K, out=K)
            assert got is K
            assert np.array_equal(K, want), f"n={n}"

    def test_operation_order(self):
        """((K - row) - col) + grand, the means taken from the uncentered K."""
        rng = np.random.default_rng(25)
        K = gram_matrix(rng.normal(size=(64, 3)), KernelSpec())
        row = K.mean(axis=1)
        want = K - row[:, None] - K.mean(axis=0)[None, :] + row.mean()
        assert np.array_equal(center_gram(K), want)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            center_gram(np.zeros((3, 4)))
