"""Null calibration: resampling streams, the bootstrap loop, and baselines."""

import tracemalloc

import numpy as np
import pytest

from hsicreg import (
    BootstrapAbortError,
    BootstrapConfig,
    Dataset,
    DesignSpec,
    KernelSpec,
    bootstrap_null_draws,
    null_distribution_contrast,
    permutation_pvalue,
    pvalue_from_draws,
    replicate_indices,
    run_test,
)
from hsicreg.bootstrap import _NullSnapshot, _null_draw, parallel_map
from hsicreg._rng import substream
from hsicreg.hsic import hsic_vstat, prepare_stat
from hsicreg.kernels import MEDIAN, gram_matrix
from hsicreg.linreg import fit_ols


def toy_data(seed, n=40, d0=2):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d0))
    y = 1.0 + X @ np.arange(1.0, d0 + 1.0) + rng.normal(size=n)
    return Dataset(X, y)


class TestReplicateIndices:
    def test_deterministic_and_in_range(self):
        a_x, a_e = replicate_indices(7, 3, 50)
        b_x, b_e = replicate_indices(7, 3, 50)
        np.testing.assert_array_equal(a_x, b_x)
        np.testing.assert_array_equal(a_e, b_e)
        assert a_x.min() >= 0 and a_x.max() < 50
        assert a_x.shape == a_e.shape == (50,)

    def test_two_streams_differ(self):
        """Predictor and residual indices must come out unpaired."""
        idx_x, idx_e = replicate_indices(0, 0, 100)
        assert not np.array_equal(idx_x, idx_e)

    def test_replicates_and_redraws_are_distinct_streams(self):
        base = replicate_indices(5, 1, 30)[0]
        assert not np.array_equal(base, replicate_indices(5, 2, 30)[0])
        assert not np.array_equal(base, replicate_indices(5, 1, 30, redraw=1)[0])
        assert not np.array_equal(base, replicate_indices(6, 1, 30)[0])


class TestPvalueFromDraws:
    def test_counting_rule(self):
        draws = np.array([0.1, 0.2, 0.3, 0.4])
        assert pvalue_from_draws(draws, 0.25) == (1 + 2) / 5
        assert pvalue_from_draws(draws, 0.05) == 1.0
        assert pvalue_from_draws(draws, 0.5) == 1 / 5

    def test_ties_count_as_exceedances(self):
        draws = np.array([0.2, 0.2, 0.2])
        assert pvalue_from_draws(draws, 0.2) == 1.0

    def test_never_zero(self):
        assert pvalue_from_draws(np.zeros(999), 5.0) == 1 / 1000


def test_null_draws_reproducible_and_worker_invariant():
    data = toy_data(71)
    design = DesignSpec.main_effects(2)
    kx = ke = KernelSpec()
    one = bootstrap_null_draws(data, design, kx, ke, BootstrapConfig(replicates=40, seed=9, workers=1))
    again = bootstrap_null_draws(data, design, kx, ke, BootstrapConfig(replicates=40, seed=9, workers=1))
    two = bootstrap_null_draws(data, design, kx, ke, BootstrapConfig(replicates=40, seed=9, workers=2))
    np.testing.assert_array_equal(one, again)
    np.testing.assert_array_equal(one, two)
    assert one.shape == (40,)
    assert np.isfinite(one).all() and (one >= -1e-12).all()


def _snapshot_for(data, design, seed):
    prep = prepare_stat(data, design, KernelSpec(bandwidth=2.0), KernelSpec(bandwidth=1.4))
    return _NullSnapshot(
        design=prep.design,
        gram_x=prep.gram_x,
        beta_hat=prep.model.beta_hat,
        centered_residuals=prep.model.centered_residuals,
        kernel_e=prep.kernel_e,
        seed=seed,
    )


def test_replicate_allocates_no_n_by_n_array():
    """After a warm-up replicate, replicates reuse the snapshot's buffers.

    numpy reports its data buffers to tracemalloc, so the traced peak over ten
    replicates must stay below one n x n float64 array.
    """
    n = 300
    snap = _snapshot_for(toy_data(72, n=n, d0=4), DesignSpec.main_effects(4), seed=3)
    _null_draw(snap, 0)
    tracemalloc.start()
    try:
        for b in range(1, 11):
            _null_draw(snap, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n, f"traced peak {peak} bytes = {peak / (8 * n * n):.2f} n x n arrays"


def test_buffered_replicates_equal_allocating_reference():
    """Replicates that reuse one snapshot's buffers match a from-scratch computation, bit for bit."""
    snap = _snapshot_for(toy_data(74, n=60, d0=3), DesignSpec.main_effects(3), seed=5)
    for b in range(6):
        idx_x, idx_e = replicate_indices(5, b, 60)
        refit = fit_ols(snap.design[idx_x], snap.design[idx_x] @ snap.beta_hat + snap.centered_residuals[idx_e])
        gram_x = snap.gram_x[np.ix_(idx_x, idx_x)]
        want = 60 * hsic_vstat(gram_x, gram_matrix(refit.residuals, snap.kernel_e)).value
        assert _null_draw(snap, b) == want, b


_REDUCED = []


class _CountedSquare:
    """Squares an item; counts how often this process pickles it."""

    def __reduce__(self):
        _REDUCED.append(1)
        return (_CountedSquare, ())

    def __call__(self, item):
        return item * item


def test_parallel_map_ships_fn_once_per_worker():
    _REDUCED.clear()
    items = list(range(40))
    assert parallel_map(_CountedSquare(), items, 2) == [i * i for i in items]
    assert len(_REDUCED) <= 2


def test_null_draws_change_with_seed():
    data = toy_data(72)
    design = DesignSpec.main_effects(2)
    a = bootstrap_null_draws(data, design, KernelSpec(), KernelSpec(), BootstrapConfig(replicates=10, seed=0))
    b = bootstrap_null_draws(data, design, KernelSpec(), KernelSpec(), BootstrapConfig(replicates=10, seed=1))
    assert not np.array_equal(a, b)


def test_run_test_result_contract():
    data = toy_data(73)
    res = run_test(data, DesignSpec.main_effects(2), KernelSpec(), KernelSpec(),
                   BootstrapConfig(replicates=99, seed=4))
    assert res.n == 40
    assert res.replicates == 99
    assert res.null_draws.shape == (99,)
    assert res.p_value >= 1 / 100
    assert res.p_value == pvalue_from_draws(res.null_draws, res.statistic)
    assert res.reject == (res.p_value <= res.alpha)
    assert res.design_labels == ("1", "x1", "x2")
    assert res.kernel_x.rule == "fixed"
    assert res.statistic >= 0.0


def test_run_test_bitwise_reproducible():
    data = toy_data(74)
    cfg = BootstrapConfig(replicates=60, seed=12)
    r1 = run_test(data, DesignSpec.main_effects(2), KernelSpec(), KernelSpec(), cfg)
    r2 = run_test(data, DesignSpec.main_effects(2), KernelSpec(), KernelSpec(), cfg)
    assert r1.statistic == r2.statistic
    assert r1.p_value == r2.p_value
    np.testing.assert_array_equal(r1.null_draws, r2.null_draws)


def test_run_test_rejects_on_strong_dependence():
    """Errors with variance driven hard by x1 should be caught at n=150."""
    rng = np.random.default_rng(75)
    X = rng.uniform(size=(150, 2))
    errors = rng.normal(size=150) * (0.2 + 2.5 * X[:, 0])
    data = Dataset(X, 1.0 + 2.0 * X[:, 0] - X[:, 1] + errors)
    res = run_test(data, DesignSpec.main_effects(2), KernelSpec(bandwidth=2.0 * np.sqrt(2)),
                   KernelSpec(bandwidth=np.sqrt(2.0)), BootstrapConfig(replicates=199, seed=7))
    assert res.p_value <= 0.05


def test_run_test_alpha_validation():
    data = toy_data(76)
    with pytest.raises(ValueError):
        run_test(data, DesignSpec.main_effects(2), KernelSpec(), KernelSpec(),
                 BootstrapConfig(replicates=5, seed=0), alpha=1.5)


def test_median_rule_frozen_equals_preresolved():
    """A median-rule run must match a fixed-bandwidth run at the resolved values.

    This pins the freezing behavior: replicates never re-resolve bandwidths
    from resampled data.
    """
    data = toy_data(77)
    design = DesignSpec.main_effects(2)
    cfg = BootstrapConfig(replicates=50, seed=3)
    med = run_test(data, design, KernelSpec(rule=MEDIAN), KernelSpec(rule=MEDIAN), cfg)
    fixed = run_test(
        data,
        design,
        KernelSpec(bandwidth=med.kernel_x.bandwidth),
        KernelSpec(bandwidth=med.kernel_e.bandwidth),
        cfg,
    )
    assert med.statistic == fixed.statistic
    np.testing.assert_array_equal(med.null_draws, fixed.null_draws)


def test_pvalue_stability_across_bootstrap_seeds():
    """Bootstrap noise in the p-value stays well under 15% relative."""
    data = toy_data(78, n=50)
    design = DesignSpec.main_effects(2)
    ps = [
        run_test(data, design, KernelSpec(), KernelSpec(),
                 BootstrapConfig(replicates=300, seed=s)).p_value
        for s in range(12)
    ]
    ps = np.array(ps)
    assert ps.std() / ps.mean() < 0.15, ps


class TestSingularReplicates:
    """Resamples that lose the informative row of a spiky column."""

    def _snapshot(self, seed):
        # x2 is zero except in row 0; resamples without row 0 are singular
        n = 6
        x = np.arange(1.0, n + 1.0)
        spike = np.zeros(n)
        spike[0] = 1.0
        G = np.column_stack([np.ones(n), x, spike])
        y = np.array([2.0, 1.0, 3.0, 2.5, 4.0, 3.5])
        fit = fit_ols(G, y)
        gram_x = gram_matrix(np.column_stack([x, spike]), KernelSpec())
        return _NullSnapshot(
            design=G,
            gram_x=gram_x,
            beta_hat=fit.beta_hat,
            centered_residuals=fit.centered_residuals,
            kernel_e=KernelSpec(),
            seed=seed,
        )

    def _includes_row0(self, seed, b, redraw):
        return 0 in replicate_indices(seed, b, 6, redraw)[0]

    def test_redraw_rescues_single_singular_resample(self):
        seed = 0
        snap = self._snapshot(seed)
        rescued = next(
            b for b in range(500)
            if not self._includes_row0(seed, b, 0) and self._includes_row0(seed, b, 1)
        )
        value = _null_draw(snap, rescued)
        assert np.isfinite(value)

    def test_two_singular_resamples_abort(self):
        seed = 0
        snap = self._snapshot(seed)
        doomed = next(
            b for b in range(500)
            if not self._includes_row0(seed, b, 0) and not self._includes_row0(seed, b, 1)
        )
        with pytest.raises(BootstrapAbortError, match="redraw"):
            _null_draw(snap, doomed)


class TestPermutationBaseline:
    def test_identical_samples_give_smallest_pvalue(self):
        rng = np.random.default_rng(81)
        u = rng.normal(size=60)
        p = permutation_pvalue(u, u, KernelSpec(), KernelSpec(), BootstrapConfig(replicates=99, seed=2))
        assert p == 1 / 100

    def test_independent_samples_give_large_pvalue(self):
        rng = np.random.default_rng(24)
        u = rng.normal(size=80)
        v = rng.normal(size=80)
        p = permutation_pvalue(u, v, KernelSpec(), KernelSpec(), BootstrapConfig(replicates=199, seed=2))
        assert p > 0.05

    def test_matches_allocating_reference(self):
        rng = np.random.default_rng(84)
        u = rng.normal(size=(30, 2))
        v = u[:, 0] + rng.normal(size=30)
        gram_u = gram_matrix(u, KernelSpec())
        gram_v = gram_matrix(v, KernelSpec())
        observed = hsic_vstat(gram_u, gram_v).value
        exceed = 0
        for b in range(49):
            perm = substream(6, b).permutation(30)
            exceed += hsic_vstat(gram_u, gram_v[np.ix_(perm, perm)]).value >= observed
        p = permutation_pvalue(u, v, KernelSpec(), KernelSpec(), BootstrapConfig(replicates=49, seed=6))
        assert p == (1 + exceed) / 50

    def test_worker_invariant(self):
        rng = np.random.default_rng(83)
        u = rng.normal(size=40)
        v = rng.normal(size=40)
        p1 = permutation_pvalue(u, v, KernelSpec(), KernelSpec(), BootstrapConfig(replicates=49, seed=5, workers=1))
        p2 = permutation_pvalue(u, v, KernelSpec(), KernelSpec(), BootstrapConfig(replicates=49, seed=5, workers=2))
        assert p1 == p2


class TestContrast:
    @staticmethod
    def _sampler(n, rng):
        X = rng.standard_normal((n, 1))
        errors = rng.standard_normal(n) * 0.3
        return Dataset(X, 1.0 + X[:, 0] + errors), errors

    def test_shapes_and_determinism(self):
        cfg = BootstrapConfig(replicates=1, seed=6)
        design = DesignSpec.main_effects(1)
        r1 = null_distribution_contrast(self._sampler, design, KernelSpec(), KernelSpec(), 30, 30, cfg)
        r2 = null_distribution_contrast(self._sampler, design, KernelSpec(), KernelSpec(), 30, 30, cfg)
        assert r1.residual_stats.shape == (30,)
        np.testing.assert_array_equal(r1.residual_stats, r2.residual_stats)
        np.testing.assert_array_equal(r1.error_stats, r2.error_stats)
        assert 0.0 <= r1.ks_distance <= 1.0
        assert not r1.undersampled

    def test_same_arm_control_collapses_distance(self):
        cfg = BootstrapConfig(replicates=1, seed=6)
        res = null_distribution_contrast(
            self._sampler, DesignSpec.main_effects(1), KernelSpec(), KernelSpec(), 30, 30, cfg,
            both_arms_use_errors=True,
        )
        np.testing.assert_array_equal(res.residual_stats, res.error_stats)
        assert res.ks_distance == 0.0

    def test_undersampled_warning(self):
        cfg = BootstrapConfig(replicates=1, seed=6)
        with pytest.warns(UserWarning, match="replications per arm"):
            res = null_distribution_contrast(
                self._sampler, DesignSpec.main_effects(1), KernelSpec(), KernelSpec(), 30, 10, cfg
            )
        assert res.undersampled

    def test_sampler_contract_enforced(self):
        cfg = BootstrapConfig(replicates=1, seed=6)

        def bad_n(n, rng):
            X = rng.standard_normal((n + 1, 1))
            e = rng.standard_normal(n + 1)
            return Dataset(X, X[:, 0] + e), e

        with pytest.raises(ValueError, match="rows"):
            null_distribution_contrast(bad_n, DesignSpec.main_effects(1), KernelSpec(), KernelSpec(), 20, 30, cfg)


def test_bootstrap_config_validation():
    with pytest.raises(ValueError):
        BootstrapConfig(replicates=0)
    with pytest.raises(ValueError):
        BootstrapConfig(workers=-1)
    with pytest.raises(ValueError):
        BootstrapConfig(seed=-3)
