"""The two estimator routes, their oracles, and the prepared statistic."""

import math

import numpy as np
import pytest

from hsicreg import (
    Dataset,
    DesignSpec,
    HsicValue,
    KernelSpec,
    gram_matrix,
    hsic_pairs_stat,
    hsic_sums,
    hsic_vstat,
    residual_hsic_stat,
)
from hsicreg.hsic import prepare_stat, vstat_in_place
from hsicreg.kernels import MEDIAN


def literal_sums(K, L):
    """The defining three-sum expression evaluated with bare nested loops.

    Deliberately naive: four levels of Python loops for the middle term, no
    vectorization, no shortcuts.  Only usable at tiny n.
    """
    n = K.shape[0]
    pair = 0.0
    for i in range(n):
        for j in range(n):
            pair += K[i, j] * L[i, j]
    full = 0.0
    for i in range(n):
        for j in range(n):
            for q in range(n):
                for r in range(n):
                    full += K[i, j] * L[q, r]
    linked = 0.0
    for i in range(n):
        row_k = 0.0
        row_l = 0.0
        for j in range(n):
            row_k += K[i, j]
        for q in range(n):
            row_l += L[i, q]
        linked += row_k * row_l
    return pair / n**2 + full / n**4 - 2.0 * linked / n**3


def fsum_hsic(K, L):
    """Exactly rounded three-sum evaluation, order-independent by construction.

    Each sum is one ``math.fsum`` over the entries (products rounded once, as
    in a per-element loop), so the oracle stays usable at n in the thousands.
    """
    n = K.shape[0]
    pair = math.fsum((K * L).ravel().tolist())
    total_k = math.fsum(K.ravel().tolist())
    total_l = math.fsum(L.ravel().tolist())
    rows_k = [math.fsum(row) for row in K.tolist()]
    rows_l = [math.fsum(row) for row in L.tolist()]
    linked = math.fsum(rk * rl for rk, rl in zip(rows_k, rows_l))
    return pair / n**2 + total_k * total_l / n**4 - 2.0 * linked / n**3


def random_gram_pair(rng, n):
    K = gram_matrix(rng.normal(size=(n, 2)), KernelSpec(bandwidth=rng.uniform(0.5, 2.0)))
    L = gram_matrix(rng.normal(size=n), KernelSpec(bandwidth=rng.uniform(0.5, 2.0)))
    return K, L


def test_both_routes_match_literal_loops_at_tiny_n():
    rng = np.random.default_rng(51)
    for n in (2, 3, 4, 5, 6):
        for _ in range(5):
            K, L = random_gram_pair(rng, n)
            want = literal_sums(K, L)
            assert hsic_vstat(K, L).value == pytest.approx(want, rel=1e-12, abs=1e-15), n
            assert hsic_sums(K, L).value == pytest.approx(want, rel=1e-12, abs=1e-15), n


def test_routes_agree_on_random_instances():
    rng = np.random.default_rng(52)
    for _ in range(60):
        n = int(rng.integers(2, 51))
        K, L = random_gram_pair(rng, n)
        a = hsic_vstat(K, L).value
        b = hsic_sums(K, L).value
        assert a == pytest.approx(b, rel=1e-10, abs=1e-14)


def test_two_point_closed_form():
    """For n = 2 Gram pairs [[1,a],[a,1]], [[1,b],[b,1]] the value is (1-a)(1-b)/4."""
    rng = np.random.default_rng(53)
    for _ in range(20):
        a, b = rng.uniform(0.0, 1.0, size=2)
        K = np.array([[1.0, a], [a, 1.0]])
        L = np.array([[1.0, b], [b, 1.0]])
        want = (1.0 - a) * (1.0 - b) / 4.0
        assert hsic_vstat(K, L).value == pytest.approx(want, abs=1e-12)
        assert hsic_sums(K, L).value == pytest.approx(want, abs=1e-12)


def test_exchange_symmetry_is_exact():
    rng = np.random.default_rng(54)
    K, L = random_gram_pair(rng, 23)
    assert hsic_vstat(K, L).value == hsic_vstat(L, K).value
    assert hsic_sums(K, L).value == hsic_sums(L, K).value


def test_constant_gram_gives_exact_zero():
    rng = np.random.default_rng(55)
    K, _ = random_gram_pair(rng, 17)
    ones = np.ones((17, 17))
    assert hsic_vstat(K, ones).value == 0.0
    assert hsic_vstat(ones, K).value == 0.0


def test_relabeling_invariance():
    """Permuting both samples by the same relabeling never changes the value.

    The fsum oracle is exactly invariant (its sums are over permutation-stable
    multisets); the production path is tied to the oracle within 1e-12.
    """
    rng = np.random.default_rng(56)
    K, L = random_gram_pair(rng, 15)
    perm = rng.permutation(15)
    Kp = K[np.ix_(perm, perm)]
    Lp = L[np.ix_(perm, perm)]
    assert fsum_hsic(Kp, Lp) == fsum_hsic(K, L)
    assert hsic_vstat(Kp, Lp).value == pytest.approx(fsum_hsic(K, L), rel=1e-12)
    assert hsic_vstat(K, L).value == pytest.approx(fsum_hsic(K, L), rel=1e-12)


@pytest.mark.parametrize("n", [1000, 2000])
def test_both_routes_match_fsum_oracle_at_large_n(n):
    """Plain float64 sums stay within 1e-10 of the exactly rounded oracle at large n."""
    rng = np.random.default_rng(59 + n)
    K, L = random_gram_pair(rng, n)
    want = fsum_hsic(K, L)
    assert hsic_vstat(K, L).value == pytest.approx(want, rel=1e-10)
    assert hsic_sums(K, L).value == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("n", [2, 31, 400])
def test_in_place_kernel_equals_hsic_vstat(n):
    rng = np.random.default_rng(60 + n)
    K, L = random_gram_pair(rng, n)
    assert vstat_in_place(K.copy(), L.copy()).value == hsic_vstat(K, L).value


def test_hsic_vstat_leaves_inputs_unchanged():
    rng = np.random.default_rng(61)
    K, L = random_gram_pair(rng, 29)
    K0, L0 = K.copy(), L.copy()
    hsic_vstat(K, L)
    assert np.array_equal(K, K0) and np.array_equal(L, L0)


def test_in_place_kernel_rejects_shared_buffers():
    K = np.ones((4, 4))
    with pytest.raises(ValueError):
        vstat_in_place(K, K)


def test_value_is_nonnegative():
    rng = np.random.default_rng(57)
    for _ in range(25):
        K, L = random_gram_pair(rng, int(rng.integers(2, 40)))
        assert hsic_vstat(K, L).value >= -1e-15


def test_scaled_property():
    v = HsicValue(value=0.25, n=8)
    assert v.scaled == 2.0


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        hsic_vstat(np.ones((3, 3)), np.ones((4, 4)))
    with pytest.raises(ValueError):
        hsic_sums(np.ones((3, 4)), np.ones((3, 4)))


def test_pairs_stat_equals_manual_grams():
    rng = np.random.default_rng(58)
    u = rng.normal(size=(30, 2))
    v = rng.normal(size=30)
    spec_u = KernelSpec(bandwidth=1.2)
    spec_v = KernelSpec(bandwidth=0.8)
    want = hsic_vstat(gram_matrix(u, spec_u), gram_matrix(v, spec_v))
    got = hsic_pairs_stat(u, v, spec_u, spec_v)
    assert got.value == want.value
    assert got.n == 30


def test_pairs_stat_size_mismatch():
    with pytest.raises(ValueError):
        hsic_pairs_stat(np.zeros(5), np.zeros(6), KernelSpec(), KernelSpec())


class TestPreparedStat:
    def test_statistic_between_raw_predictors_and_residuals(self):
        """The predictor kernel sees raw rows, never the design expansion."""
        rng = np.random.default_rng(61)
        X = rng.normal(size=(40, 2))
        y = 1.0 + X[:, 0] + 0.5 * X[:, 1] ** 2 + rng.normal(size=40)
        data = Dataset(X, y)
        prep = prepare_stat(data, DesignSpec.main_effects(2), KernelSpec(), KernelSpec())
        assert prep.gram_x.shape == (40, 40)
        assert prep.design.shape == (40, 3)
        # gram_x must equal the Gram of the standardized predictors, which have
        # two columns even though the design has three
        from hsicreg.linreg import standardize_dataset

        std = standardize_dataset(data)[0]
        np.testing.assert_array_equal(prep.gram_x, gram_matrix(std.predictors, KernelSpec()))

    def test_no_standardize_flag(self):
        rng = np.random.default_rng(62)
        X = rng.normal(size=(25, 2))
        data = Dataset(X, rng.normal(size=25))
        prep = prepare_stat(data, DesignSpec.main_effects(2), KernelSpec(), KernelSpec(), standardize=False)
        np.testing.assert_array_equal(prep.data.predictors, data.predictors)
        assert prep.standardized is False

    def test_median_bandwidths_resolved_once(self):
        rng = np.random.default_rng(63)
        data = Dataset(rng.normal(size=(30, 2)), rng.normal(size=30))
        prep = prepare_stat(data, DesignSpec.main_effects(2), KernelSpec(rule=MEDIAN), KernelSpec(rule=MEDIAN))
        assert prep.kernel_x.rule == "fixed"
        assert prep.kernel_e.rule == "fixed"
        assert prep.kernel_x.bandwidth > 0
        assert prep.kernel_e.bandwidth > 0

    def test_residual_stat_returns_fit(self):
        rng = np.random.default_rng(64)
        X = rng.normal(size=(30, 2))
        data = Dataset(X, X[:, 0] + rng.normal(size=30))
        value, fit = residual_hsic_stat(data, DesignSpec.main_effects(2), KernelSpec(), KernelSpec())
        assert value.n == 30
        assert fit.beta_hat.shape == (3,)
        assert value.scaled == pytest.approx(30 * value.value)

    def test_near_perfect_fit_gives_near_zero_statistic(self):
        rng = np.random.default_rng(65)
        X = rng.normal(size=(20, 1))
        data = Dataset(X, 2.0 + 3.0 * X[:, 0])
        value, fit = residual_hsic_stat(
            data, DesignSpec.main_effects(1), KernelSpec(), KernelSpec(), standardize=False
        )
        assert np.abs(fit.residuals).max() < 1e-12
        assert abs(value.value) < 1e-12
