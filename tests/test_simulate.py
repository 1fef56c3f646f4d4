"""Generators, the conditional noise law, and the power-study harness."""

import math

import numpy as np
import pytest

import hsicreg.bootstrap
from hsicreg import (
    BootstrapAbortError,
    BootstrapConfig,
    ModelSpec,
    MonotonicityFlag,
    PowerCell,
    PowerTable,
    draw_model,
    monotonicity_report,
    power_study,
    run_test,
    study_kernels,
    working_design,
)
from hsicreg._rng import derive_seed, substream
from hsicreg.simulate import _power_trial


class TestModelSpec:
    def test_defaults_and_dim(self):
        assert ModelSpec("model1", n=100).dim == 4
        assert ModelSpec("model2", n=100).dim == 4
        assert ModelSpec("linear1d", n=100).dim == 1
        assert ModelSpec("model1", n=5).noise_sd == ModelSpec("model2", n=5).noise_sd == 1.0
        assert ModelSpec("linear1d", n=5).noise_sd == math.sqrt(0.1)
        assert ModelSpec("linear1d", n=5, noise_sd=2.0).noise_sd == 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(model="model3", n=50),
            dict(model="model1", n=0),
            dict(model="model1", n=50, lam=-1.0),
            dict(model="model1", n=50, noise_sd=0.0),
            dict(model="custom", n=50),
            dict(model="model1", n=50, noise_sd=float("nan")),
            dict(model="model1", n=50, noise_sd=-1.0),
        ],
    )
    def test_rejects_bad_specs(self, kwargs):
        with pytest.raises(ValueError):
            ModelSpec(**kwargs)

    @pytest.mark.parametrize("knob", ["a", "lam", "noise_sd"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_knob_is_named(self, knob, value):
        with pytest.raises(ValueError, match=f"^{knob} must be finite"):
            ModelSpec("model1", n=50, **{knob: value})

    @pytest.mark.parametrize("n", [20.7, 20.0, True])
    def test_non_integer_n_is_named(self, n):
        """n is a row count: it is never truncated, and a bool is not a count."""
        with pytest.raises(ValueError, match=f"^n must be an integer, got {n!r}$"):
            ModelSpec("model1", n=n)

    def test_numpy_integer_n_is_accepted(self):
        assert draw_model(ModelSpec("model1", n=np.int64(20)), np.random.default_rng(0)).errors.shape == (20,)


class TestGenerators:
    def test_model1_response_is_mean_plus_errors(self):
        spec = ModelSpec("model1", n=200, a=3.0, lam=10.0)
        sim = draw_model(spec, np.random.default_rng(1))
        X = sim.data.predictors
        mean = 2.0 + 5.0 * X[:, 0] - X[:, 1] + spec.a * X[:, 0] * X[:, 1]
        np.testing.assert_array_equal(sim.data.response, mean + sim.errors)
        assert X.shape == (200, 4)
        assert (X > 0).all() and (X < 1).all()

    def test_model2_response_is_mean_plus_errors(self):
        spec = ModelSpec("model2", n=150, a=0.5)
        sim = draw_model(spec, np.random.default_rng(2))
        X = sim.data.predictors
        mean = X[:, 0] + spec.a * X[:, 1] ** 2 + 2.0 * X[:, 3]
        np.testing.assert_array_equal(sim.data.response, mean + sim.errors)

    def test_linear1d_response_is_mean_plus_errors(self):
        sim = draw_model(ModelSpec("linear1d", n=80), np.random.default_rng(3))
        np.testing.assert_array_equal(
            sim.data.response, 1.0 + sim.data.predictors[:, 0] + sim.errors
        )

    def test_model2_predictor_laws(self):
        """x1..x3 equicorrelated at 0.5, x4 Bernoulli(0.4)."""
        spec = ModelSpec("model2", n=60_000)
        sim = draw_model(spec, np.random.default_rng(4))
        X = sim.data.predictors
        corr = np.corrcoef(X[:, :3].T)
        off = corr[np.triu_indices(3, k=1)]
        np.testing.assert_allclose(off, 0.5, atol=0.02)
        np.testing.assert_allclose(X[:, :3].std(axis=0), 1.0, atol=0.02)
        assert set(np.unique(X[:, 3])) == {0.0, 1.0}
        assert abs(X[:, 3].mean() - 0.4) < 0.01

    def test_seeded_draws_reproduce(self):
        spec = ModelSpec("model1", n=50, a=1.0, lam=5.0)
        one = draw_model(spec, substream(9, 0))
        two = draw_model(spec, substream(9, 0))
        np.testing.assert_array_equal(one.data.predictors, two.data.predictors)
        np.testing.assert_array_equal(one.data.response, two.data.response)
        np.testing.assert_array_equal(one.errors, two.errors)

    def test_noise_sd_scales_errors_exactly(self):
        base = draw_model(ModelSpec("model1", n=100, lam=20.0), np.random.default_rng(5))
        wide = draw_model(
            ModelSpec("model1", n=100, lam=20.0, noise_sd=2.0), np.random.default_rng(5)
        )
        np.testing.assert_array_equal(wide.errors, 2.0 * base.errors)


class TestNoiseLaw:
    """Conditional variance is noise_sd^2 * (10 + lam*|x1|)/10."""

    def test_lam_zero_is_homoscedastic(self):
        sim = draw_model(ModelSpec("linear1d", n=400_000, noise_sd=1.0), np.random.default_rng(6))
        assert abs(sim.errors.var() - 1.0) < 0.01

    @pytest.mark.parametrize("model,lam", [("model1", 0.0), ("model1", 50.0), ("linear1d", 25.0)])
    def test_marginal_variance_matches_formula(self, model, lam):
        spec = ModelSpec(model, n=400_000, lam=lam, noise_sd=1.0)
        sim = draw_model(spec, np.random.default_rng(7))
        x1 = sim.data.predictors[:, 0]
        implied = np.mean((10.0 + lam * np.abs(x1)) / 10.0)
        assert sim.errors.var() / implied == pytest.approx(1.0, abs=0.02)

    def test_variance_grows_with_abs_x1(self):
        spec = ModelSpec("linear1d", n=400_000, lam=50.0)
        sim = draw_model(spec, np.random.default_rng(8))
        x1 = np.abs(sim.data.predictors[:, 0])
        lo = x1 <= np.quantile(x1, 0.25)
        hi = x1 >= np.quantile(x1, 0.75)
        ratio = sim.errors[hi].var() / sim.errors[lo].var()
        expected = np.mean(10.0 + 50.0 * x1[hi]) / np.mean(10.0 + 50.0 * x1[lo])
        assert ratio == pytest.approx(expected, rel=0.05)

    def test_edge_bin_variance_ratio(self):
        """Var(errors | x1 in [.9,1]) / Var(errors | x1 in [0,.1]) at lam=50.

        Bin centers 0.95 and 0.05 give (10 + 50*0.95)/(10 + 50*0.05) = 4.6.
        """
        spec = ModelSpec("model1", n=100_000, lam=50.0)
        sim = draw_model(spec, np.random.default_rng(9))
        x1 = sim.data.predictors[:, 0]
        top = sim.errors[x1 >= 0.9].var()
        bottom = sim.errors[x1 <= 0.1].var()
        assert top / bottom == pytest.approx(4.6, rel=0.15)


def test_model1_marginals_are_uniform():
    from scipy.stats import kstest

    sim = draw_model(ModelSpec("model1", n=100_000), np.random.default_rng(10))
    for j in range(4):
        assert kstest(sim.data.predictors[:, j], "uniform").pvalue > 0.01


def test_reference_percent_rows_align():
    from hsicreg.simulate import REFERENCE_REJECTION_PERCENT

    for model, rows in REFERENCE_REJECTION_PERCENT.items():
        width = len(rows["a"])
        for name, row in rows.items():
            assert len(row) == width, (model, name)
        assert all(0 <= v <= 100 for name, row in rows.items() if name != "a" for v in row)
        kernel = rows["kernel"]
        assert all(x <= y for x, y in zip(kernel, kernel[1:]))  # monotone in a


def test_working_design_matches_dim():
    assert working_design(ModelSpec("model1", n=10)).labels == ("1", "x1", "x2", "x3", "x4")
    assert working_design(ModelSpec("linear1d", n=10)).labels == ("1", "x1")


def test_study_kernels_values():
    kx, ke = study_kernels(4)
    assert kx.bandwidth == 4.0
    assert ke.bandwidth == pytest.approx(np.sqrt(2.0), abs=0)
    assert type(kx.bandwidth) is float and type(ke.bandwidth) is float
    kx1, _ = study_kernels(1)
    assert kx1.bandwidth == 2.0
    with pytest.raises(ValueError):
        study_kernels(0)


STUDY_GRID = [
    ModelSpec("linear1d", n=40, lam=0.0),
    ModelSpec("linear1d", n=40, lam=60.0),
]
STUDY_REPS = 50


def _study(workers):
    return power_study(
        STUDY_GRID,
        alpha=0.05,
        config=BootstrapConfig(replicates=60, seed=0, workers=workers),
        reps=STUDY_REPS,
    )


@pytest.fixture(scope="module")
def study_table():
    return _study(workers=1)


class TestPowerStudy:
    def test_table_shape_and_counts(self, study_table):
        assert isinstance(study_table, PowerTable)
        assert len(study_table.cells) == 2
        for cell, spec in zip(study_table.cells, STUDY_GRID):
            assert isinstance(cell, PowerCell)
            assert (cell.model, cell.n, cell.lam) == (spec.model, spec.n, spec.lam)
            assert cell.reps == STUDY_REPS
            assert 0 <= cell.rejections <= STUDY_REPS - cell.aborts
            assert cell.rate == cell.rejections / (STUDY_REPS - cell.aborts)
            expected_se = np.sqrt(cell.rate * (1 - cell.rate) / (STUDY_REPS - cell.aborts))
            assert cell.se == pytest.approx(expected_se, abs=1e-15)

    def test_worker_count_does_not_change_the_table(self, study_table):
        assert _study(workers=2) == study_table

    def test_trials_decide_as_the_full_bootstrap_does(self, study_table):
        """Each trial stops once settled; rebuilding every trial with run_test gives the same table."""
        for c, (spec, cell) in enumerate(zip(STUDY_GRID, study_table.cells)):
            rejections = 0
            for trial in range(STUDY_REPS):
                sim = draw_model(spec, substream(0, c, trial, 0))
                config = BootstrapConfig(replicates=60, seed=derive_seed(0, c, trial, 1))
                rejections += run_test(sim.data, working_design(spec), *study_kernels(spec.dim), config).reject
            assert (cell.rejections, cell.aborts) == (rejections, 0)

    @pytest.mark.parametrize("abort_at, aborts", [(1, 0), (0, 3)], ids=["after-stop", "before-stop"])
    def test_abort_counts_only_before_the_decision_is_settled(self, monkeypatch, abort_at, aborts):
        """With B = 19 the first draw at or above the statistic settles a trial (it accepts)."""
        def draw(prep, seed, replicate, *member):
            if replicate == abort_at:
                raise BootstrapAbortError(f"replicate {replicate}: singular twice")
            return np.inf

        monkeypatch.setattr(hsicreg.bootstrap, "_replicate_stat", draw)
        table = power_study([ModelSpec("linear1d", n=20)], 0.05, BootstrapConfig(replicates=19, seed=0), reps=3)
        assert (table.cells[0].aborts, table.cells[0].rejections) == (aborts, 0)

    def test_untestable_draw_counts_as_an_abort(self):
        """A draw whose Bernoulli x4 is constant cannot be standardized: its trial aborts,
        and the study goes on to test the others."""
        spec, config = ModelSpec("model2", n=10), BootstrapConfig(replicates=19, seed=0)
        x4 = [draw_model(spec, substream(0, 0, trial, 0)).data.predictors[:, 3] for trial in range(20)]
        constant = [trial for trial, column in enumerate(x4) if np.ptp(column) == 0]
        assert constant == [12]
        assert _power_trial((0, 12), [spec], 0.05, config) == (False, True)
        assert power_study([spec], 0.05, config, reps=20).cells[0].aborts >= 1

    def test_too_few_rows_for_the_design_still_raises(self):
        with pytest.raises(ValueError, match=r"need at least as many rows as design columns \(4 < 5\)"):
            power_study([ModelSpec("model1", n=4)], 0.05, BootstrapConfig(replicates=19, seed=0), reps=2)

    def test_dependence_cell_rejects_more(self, study_table):
        assert study_table.cells[1].rate > study_table.cells[0].rate + 0.1

    def test_validation(self):
        cfg = BootstrapConfig(replicates=10, seed=0)
        with pytest.raises(ValueError, match="grid"):
            power_study([], alpha=0.05, config=cfg, reps=5)
        with pytest.raises(ValueError, match="reps"):
            power_study(STUDY_GRID, alpha=0.05, config=cfg, reps=0)
        with pytest.raises(ValueError, match="alpha"):
            power_study(STUDY_GRID, alpha=0.0, config=cfg, reps=5)

    @pytest.mark.parametrize("reps", [2.5, True])
    def test_non_integer_reps_is_named(self, reps):
        cfg = BootstrapConfig(replicates=10, seed=0)
        with pytest.raises(ValueError, match=f"^reps must be an integer, got {reps!r}$"):
            power_study(STUDY_GRID, alpha=0.05, config=cfg, reps=reps)

    def test_numpy_integer_reps_is_accepted(self):
        cfg = BootstrapConfig(replicates=10, seed=0)
        table = power_study(STUDY_GRID, alpha=0.05, config=cfg, reps=np.int64(3))
        assert table == power_study(STUDY_GRID, alpha=0.05, config=cfg, reps=3)
        assert all(type(cell.reps) is int and type(cell.n) is int for cell in table.cells)


class TestMonotonicityReport:
    @staticmethod
    def _cell(lam, rate, n=100, a=0.0, reps=400):
        se = float(np.sqrt(rate * (1 - rate) / reps)) if 0 < rate < 1 else 0.01
        return PowerCell(
            model="model1", n=n, a=a, lam=lam, reps=reps,
            rejections=int(rate * reps), aborts=0, rate=rate, se=se,
        )

    def test_monotone_table_is_clean(self):
        table = PowerTable(
            cells=(self._cell(0, 0.05), self._cell(10, 0.30), self._cell(20, 0.60)),
            alpha=0.05, replicates=500, seed=0,
        )
        assert monotonicity_report(table) == []

    def test_real_drop_is_flagged(self):
        table = PowerTable(
            cells=(self._cell(0, 0.05), self._cell(10, 0.60), self._cell(20, 0.30)),
            alpha=0.05, replicates=500, seed=0,
        )
        flags = monotonicity_report(table)
        assert len(flags) == 1
        flag = flags[0]
        assert isinstance(flag, MonotonicityFlag)
        assert (flag.varying, flag.left_value, flag.right_value) == ("lam", 10.0, 20.0)
        assert flag.drop == pytest.approx(0.30, abs=1e-12)
        assert flag.drop > flag.threshold

    def test_noise_sized_dip_is_not_flagged(self):
        # 0.30 -> 0.28 at reps=400 is inside two combined standard errors
        table = PowerTable(
            cells=(self._cell(0, 0.30), self._cell(10, 0.28)),
            alpha=0.05, replicates=500, seed=0,
        )
        assert monotonicity_report(table) == []

    def test_slices_do_not_mix_across_fixed_parameter(self):
        # the drop from (a=0, lam=20) to (a=1, lam=0) must not be compared
        table = PowerTable(
            cells=(
                self._cell(0, 0.05, a=0.0), self._cell(20, 0.70, a=0.0),
                self._cell(0, 0.10, a=1.0), self._cell(20, 0.80, a=1.0),
            ),
            alpha=0.05, replicates=500, seed=0,
        )
        assert monotonicity_report(table) == []
