"""The two estimator routes, their oracles, and the prepared statistic."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hsicreg import (
    Dataset,
    DesignSpec,
    HsicValue,
    KernelSpec,
    ModelSpec,
    draw_model,
    gram_matrix,
    hsic_sums,
    hsic_vstat,
    standardize,
    working_design,
)
from hsicreg._rng import substream
from hsicreg.hsic import _TILE, _residual_stat, _tiled_stat, prepare_stat
from hsicreg.kernels import MEDIAN, _gram_tile


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
    The three rounded sums still cancel when they are combined: with wide
    bandwidths (model1, n = 100, bandwidth 4 on both kernels) this oracle errs
    by up to 1.4e-11 relative, more than the paths it checks, so those are
    held to :func:`exact_hsic` instead.
    """
    n = K.shape[0]
    pair = math.fsum((K * L).ravel().tolist())
    total_k = math.fsum(K.ravel().tolist())
    total_l = math.fsum(L.ravel().tolist())
    rows_k = [math.fsum(row) for row in K.tolist()]
    rows_l = [math.fsum(row) for row in L.tolist()]
    linked = math.fsum(rk * rl for rk, rl in zip(rows_k, rows_l))
    return pair / n**2 + total_k * total_l / n**4 - 2.0 * linked / n**3


def exact_hsic(K, L):
    """The three-sum form in exact rational arithmetic, with no rounding at all.

    Every entry is converted to a ``Fraction`` exactly; usable at n ~ 100.
    """
    n = K.shape[0]
    pair = sum(Fraction(k) * Fraction(l) for k, l in zip(K.ravel().tolist(), L.ravel().tolist()))
    rows_k = [sum(map(Fraction, row)) for row in K.tolist()]
    rows_l = [sum(map(Fraction, row)) for row in L.tolist()]
    linked = sum(rk * rl for rk, rl in zip(rows_k, rows_l))
    return pair / n**2 + sum(rows_k) * sum(rows_l) / n**4 - 2 * linked / n**3


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


def test_exchange_symmetry_matches_oracle():
    """hsic_vstat centers only its second argument, so swapping the arguments
    moves rounding, not value: both orders stay on the (symmetric) oracle."""
    rng = np.random.default_rng(54)
    K, L = random_gram_pair(rng, 23)
    want = fsum_hsic(K, L)
    assert hsic_vstat(K, L).value == pytest.approx(want, rel=1e-12)
    assert hsic_vstat(L, K).value == pytest.approx(want, rel=1e-12)
    assert hsic_sums(K, L).value == hsic_sums(L, K).value


def test_constant_gram_gives_exact_zero():
    """A constant Gram centers to exact zeros in the centered (second) slot;
    in the first slot the sum of a centered Gram's entries is rounding only."""
    rng = np.random.default_rng(55)
    K, _ = random_gram_pair(rng, 17)
    ones = np.ones((17, 17))
    assert hsic_vstat(K, ones).value == 0.0
    assert abs(hsic_vstat(ones, K).value) <= 1e-15


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


@pytest.mark.parametrize("t", range(10))
def test_both_paths_match_exact_arithmetic_at_wide_bandwidths(t):
    """Where the sums cancel most (bandwidth 4 on both kernels, as in the
    rate-separation check), ``hsic_vstat`` and the tiled kernel behind
    ``prepare_stat`` stay within rel 4e-12 of exact rational arithmetic."""
    wide = KernelSpec(bandwidth=4.0)
    spec = ModelSpec("model1", n=100)
    prep = prepare_stat(draw_model(spec, substream(0, 0, t)).data, working_design(spec), wide, wide)
    K, L = prep.gram_x, gram_matrix(prep.model.residuals, prep.kernel_e)
    want = exact_hsic(K, L)
    for name, got in (("hsic_vstat", hsic_vstat(K, L).value), ("tiled", prep.observed.value)):
        assert float(abs(Fraction(got) - want) / abs(want)) <= 4e-12, name


def test_hsic_vstat_leaves_inputs_unchanged():
    rng = np.random.default_rng(61)
    K, L = random_gram_pair(rng, 29)
    K0, L0 = K.copy(), L.copy()
    hsic_vstat(K, L)
    assert np.array_equal(K, K0) and np.array_equal(L, L0)


def test_hsic_vstat_holds_no_n_by_n_copy():
    """The two-Gram form centers L inside the tiled kernel and reads K in
    slices, so its work memory is a few tiles, not a centered copy of L."""
    n = 2000
    K, L = random_gram_pair(np.random.default_rng(70), n)
    tracemalloc.start()
    try:
        hsic_vstat(K, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.2 * 8 * n * n, f"traced peak {peak / (8 * n * n):.2f} n x n arrays"


@pytest.mark.parametrize(("broken", "form"), [("_tiled_stat", hsic_sums), ("hsic_sums", hsic_vstat)],
                         ids=["sums-without-kernel", "vstat-without-sums"])
def test_neither_form_is_defined_through_the_other(monkeypatch, broken, form):
    """With one form's machinery made to raise, the other form still returns."""
    def fail(*args, **kwargs):
        raise AssertionError(f"{broken} was called")

    monkeypatch.setattr(f"hsicreg.hsic.{broken}", fail)
    K, L = random_gram_pair(np.random.default_rng(71), 12)
    assert form(K, L).value == pytest.approx(fsum_hsic(K, L), rel=1e-10)


def _index_sets(rng, n):
    """Identity, a sorted bootstrap draw with repeats, and one value repeated n times."""
    return {
        "identity": np.arange(n),
        "bootstrap": np.sort(rng.integers(0, n, size=n)),
        "one value": np.full(n, n // 2),
    }


class TestTiledStat:
    """The replicate kernel against the fsum oracle on the gathered Grams."""

    @pytest.mark.parametrize("n", [_TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 1, 1000])
    def test_matches_fsum_oracle_on_the_gathered_grams(self, n):
        rng = np.random.default_rng(67 + n)
        K = gram_matrix(rng.normal(size=(n, 3)), KernelSpec(bandwidth=2.0))
        points = rng.normal(size=n)
        kernel = KernelSpec(bandwidth=1.3)
        for name, idx in _index_sets(rng, n).items():
            got = _residual_stat(K, idx, points, kernel.bandwidth)
            want = fsum_hsic(K[np.ix_(idx, idx)], gram_matrix(points, kernel))
            assert got.n == n
            assert got.value == pytest.approx(want, rel=1e-10, abs=1e-15), name

    def test_forms_upper_tiles_bit_equal_to_gram_matrix(self, monkeypatch):
        """Only tiles with J >= I are built, once each, and each equals its
        block of ``gram_matrix`` bit for bit."""
        n = 2 * _TILE + 1
        rng = np.random.default_rng(68)
        points = rng.normal(size=n)
        kernel = KernelSpec(bandwidth=0.9)
        tiles = []

        def recorded(left, right, out):
            tile = _gram_tile(left, right, out)
            tiles.append((left[0, :, 0].copy(), right[0, 1].copy(), tile.copy()))
            return tile

        monkeypatch.setattr("hsicreg.hsic._gram_tile", recorded)
        K = gram_matrix(rng.normal(size=(n, 2)), KernelSpec())
        _residual_stat(K, np.arange(n), points, kernel.bandwidth)
        L = gram_matrix(points, kernel)
        starts = range(0, n, _TILE)
        want = [(top, left) for top in starts for left in starts if left >= top]
        assert len(tiles) == len(want)
        for (top, left), (rows, cols, tile) in zip(want, tiles):
            block = (slice(top, top + _TILE), slice(left, left + _TILE))
            # The operands hold the points divided by the bandwidth.
            scaled = points / kernel.bandwidth
            assert np.array_equal(rows, scaled[block[0]]) and np.array_equal(cols, scaled[block[1]])
            assert np.array_equal(tile, L[block]), (top, left)


@pytest.mark.parametrize("n", [2, 31, 400])
def test_tiled_kernel_matches_fsum_oracle(n):
    """The replicate's kernel, which writes only its own work memory, equals the
    fsum oracle on the gathered Grams up to rounding (``hsic_vstat`` runs on
    the same kernel, so it cannot serve as this check's reference)."""
    rng = np.random.default_rng(60 + n)
    K = gram_matrix(rng.normal(size=(n, 2)), KernelSpec(bandwidth=1.5))
    points = rng.normal(size=n)
    idx = np.sort(rng.integers(0, n, size=n))
    got = _residual_stat(K, idx, points, KernelSpec().bandwidth).value
    assert got == pytest.approx(fsum_hsic(K[np.ix_(idx, idx)], gram_matrix(points, KernelSpec())),
                                rel=1e-10, abs=1e-15)


def test_tiled_kernel_writes_neither_input():
    """The replicate's kernel reads the predictor Gram and the points, never writes them."""
    rng = np.random.default_rng(69)
    n = _TILE + 5
    K = gram_matrix(rng.normal(size=(n, 2)), KernelSpec())
    points = rng.normal(size=n)
    K0, points0 = K.copy(), points.copy()
    _residual_stat(K, np.sort(rng.integers(0, n, size=n)), points, KernelSpec().bandwidth)
    assert np.array_equal(K, K0) and np.array_equal(points, points0)


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


def test_empty_and_asymmetric_grams_rejected():
    """Both forms name the problem: an empty pair has no statistic, and the
    kernel reads upper tiles only, so each Gram must equal its transpose,
    inside a diagonal tile and across tiles."""
    for form in (hsic_vstat, hsic_sums):
        with pytest.raises(ValueError, match="empty"):
            form(np.zeros((0, 0)), np.zeros((0, 0)))
        for n, entry in ((6, (0, 1)), (2 * _TILE + 5, (2 * _TILE + 2, 3))):
            K, L = random_gram_pair(np.random.default_rng(72), n)
            skewed = K.copy()
            skewed[entry] += 1e-9
            with pytest.raises(ValueError, match="first Gram matrix is not exactly symmetric"):
                form(skewed, L)
            with pytest.raises(ValueError, match="second Gram matrix is not exactly symmetric"):
                form(K, skewed)


def test_non_finite_grams_rejected():
    """Both forms reject a Gram holding inf or NaN, in the upper or the lower triangle,
    with a message that says so (an inf gave -inf or nan, a NaN "not exactly symmetric")."""
    for form in (hsic_vstat, hsic_sums):
        for n, entry in ((6, (0, 1)), (2 * _TILE + 5, (3, 2 * _TILE + 2))):
            K, L = random_gram_pair(np.random.default_rng(73), n)
            for value in (np.inf, -np.inf, np.nan):
                for cells in ((entry, entry[::-1]), (entry,), (entry[::-1],), ((n - 1, n - 1),)):
                    bad = K.copy()
                    for cell in cells:
                        bad[cell] = value
                    with pytest.raises(ValueError, match="first Gram matrix has non-finite entries"):
                        form(bad, L)
                    with pytest.raises(ValueError, match="second Gram matrix has non-finite entries"):
                        form(K, bad)


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
        np.testing.assert_array_equal(prep.gram_x, gram_matrix(standardize(X)[0], KernelSpec()))

    def test_standardizes_predictors_and_response(self):
        """Standardizing is linreg.standardize on the predictors and on the response;
        the response's sample sd is kept, since the contrast's error arm divides by it."""
        rng = np.random.default_rng(42)
        data = Dataset(rng.normal(size=(30, 2)), 3.0 + 2.0 * rng.normal(size=30), ("a", "b"))
        design = DesignSpec.main_effects(2)
        prep = prepare_stat(data, design, KernelSpec(), KernelSpec())
        ys, _, ysd = standardize(data.response[:, None])
        plain = prepare_stat(Dataset(standardize(data.predictors)[0], ys[:, 0]), design, KernelSpec(), KernelSpec(),
                             standardize=False)
        assert prep.response_sd == float(ysd[0]) == pytest.approx(data.response.std(ddof=1), rel=1e-12)
        np.testing.assert_array_equal(prep.design, plain.design)
        np.testing.assert_array_equal(prep.model.residuals, plain.model.residuals)
        assert prep.observed == plain.observed

    def test_peak_memory_is_one_gram(self):
        """One call holds the predictor Gram, and no other n x n array."""
        n = 1000
        rng = np.random.default_rng(66)
        data = Dataset(rng.normal(size=(n, 4)), rng.normal(size=n))
        tracemalloc.start()
        try:
            prepare_stat(data, DesignSpec.main_effects(4), KernelSpec(bandwidth=4.0), KernelSpec(bandwidth=1.4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * 8 * n * n, f"traced peak {peak / (8 * n * n):.2f} n x n arrays"

    @pytest.mark.parametrize("call", ["gram_matrix", "prepare_stat"])
    def test_peak_memory_is_one_gram_and_a_strip(self, call):
        """The Gram is built in strips of _TILE rows, so with p = 4 its build
        temporary is one strip, not a second n x n array."""
        n = 2000
        rng = np.random.default_rng(67)
        X, y = rng.normal(size=(n, 4)), rng.normal(size=n)
        calls = {
            "gram_matrix": lambda: gram_matrix(X, KernelSpec(bandwidth=4.0)),
            "prepare_stat": lambda: prepare_stat(Dataset(X, y), DesignSpec.main_effects(4),
                                                 KernelSpec(bandwidth=4.0), KernelSpec(bandwidth=1.4)),
        }
        tracemalloc.start()
        try:
            calls[call]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * 8 * n * n, f"traced peak {peak / (8 * n * n):.3f} n x n arrays"

    def test_no_standardize_flag(self):
        rng = np.random.default_rng(62)
        X = rng.normal(size=(25, 2))
        data = Dataset(X, rng.normal(size=25))
        prep = prepare_stat(data, DesignSpec.main_effects(2), KernelSpec(), KernelSpec(), standardize=False)
        assert prep.response_sd == 1.0
        assert np.array_equal(prep.gram_x, gram_matrix(X, KernelSpec()))
        assert np.array_equal(prep.design[:, 1:], X)

    def test_median_bandwidths_resolved_once(self):
        rng = np.random.default_rng(63)
        data = Dataset(rng.normal(size=(30, 2)), rng.normal(size=30))
        prep = prepare_stat(data, DesignSpec.main_effects(2), KernelSpec(MEDIAN), KernelSpec(MEDIAN))
        assert type(prep.kernel_x.bandwidth) is float
        assert type(prep.kernel_e.bandwidth) is float
        assert prep.kernel_x.bandwidth > 0
        assert prep.kernel_e.bandwidth > 0

    def test_residual_stat_returns_fit(self):
        rng = np.random.default_rng(64)
        X = rng.normal(size=(30, 2))
        data = Dataset(X, X[:, 0] + rng.normal(size=30))
        prep = prepare_stat(data, DesignSpec.main_effects(2), KernelSpec(), KernelSpec())
        value, fit = prep.observed, prep.model
        assert value.n == 30
        assert fit.beta_hat.shape == (3,)
        assert value.scaled == pytest.approx(30 * value.value)

    def test_near_perfect_fit_gives_near_zero_statistic(self):
        rng = np.random.default_rng(65)
        X = rng.normal(size=(20, 1))
        data = Dataset(X, 2.0 + 3.0 * X[:, 0])
        prep = prepare_stat(data, DesignSpec.main_effects(1), KernelSpec(), KernelSpec(), standardize=False)
        value, fit = prep.observed, prep.model
        assert np.abs(fit.residuals).max() < 1e-12
        assert abs(value.value) < 1e-12
