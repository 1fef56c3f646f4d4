"""Datasets, design construction, OLS fitting, and standardization."""

import numpy as np
import pytest

from hsicreg import (
    BasisTerm,
    Dataset,
    DegenerateDataError,
    DesignSpec,
    SingularDesignError,
    fit_ols,
    standardize,
)
from hsicreg.linreg import MAX_GRAM_CONDITION, _refit_residuals, evaluate_design


def test_dataset_coercion_and_names():
    d = Dataset([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert d.predictors.shape == (3, 1)
    assert d.n == 3 and d.d0 == 1
    assert d.names() == ("x1",)
    named = Dataset(np.ones((3, 2)), np.zeros(3), ("u", "v"))
    assert named.names() == ("u", "v")


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.ones((3, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0, np.inf]]), np.zeros(1))
    with pytest.raises(ValueError):
        Dataset(np.ones((3, 2)), np.zeros(3), ("only_one",))
    with pytest.raises(ValueError):
        Dataset(np.empty((0, 1)), np.empty(0))


def test_design_labels_and_dimensions():
    spec = DesignSpec.parse("1 + x1 + x2 + x1*x2 + x2^2", ("x1", "x2"))
    assert spec.d == 5
    assert spec.labels == ("1", "x1", "x2", "x1*x2", "x2^2")
    assert [t.indices for t in spec.terms] == [(), (0,), (1,), (0, 1), (1, 1)]
    assert DesignSpec.main_effects(3) == DesignSpec.parse("1 + x1 + x2 + x3", ("x1", "x2", "x3"))
    assert DesignSpec((BasisTerm((0,), "x1"), BasisTerm((1,), "x2"))).labels == ("x1", "x2")


def test_evaluate_design_columns():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    spec = DesignSpec.parse("1 + x2 + x1*x2 + x1^2", ("x1", "x2"))
    G = evaluate_design(X, spec)
    np.testing.assert_array_equal(G[:, 0], [1.0, 1.0])
    np.testing.assert_array_equal(G[:, 1], [2.0, 4.0])
    np.testing.assert_array_equal(G[:, 2], [2.0, 12.0])
    np.testing.assert_array_equal(G[:, 3], [1.0, 9.0])
    # Random floats with signed zeros and subnormals: each column is bit-equal to
    # its elementwise form.
    rng = np.random.default_rng(3)
    X = rng.normal(size=(200, 2)) * 10.0 ** rng.integers(-160, 150, size=(200, 2))
    X[:4] = [[0.0, -0.0], [-0.0, 5e-324], [-5e-324, 2.5], [1e-160, -1e-160]]
    G = evaluate_design(X, spec)
    expected = np.column_stack([np.ones(200), X[:, 1], X[:, 0] * X[:, 1], X[:, 0] ** 2])
    np.testing.assert_array_equal(G.view(np.uint64), expected.view(np.uint64))


def test_evaluate_design_out_of_range_column():
    with pytest.raises(ValueError, match="references predictor"):
        evaluate_design(np.ones((3, 1)), DesignSpec((BasisTerm((2,), "x3"),)))


def test_design_needs_terms():
    with pytest.raises(ValueError):
        DesignSpec(())


def test_fit_ols_hand_computed():
    """Straight line through (0,0), (1,1), (2,3): beta = (-1/6, 3/2)."""
    G = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
    y = np.array([0.0, 1.0, 3.0])
    fit = fit_ols(G, y)
    np.testing.assert_allclose(fit.beta_hat, [-1.0 / 6.0, 1.5], rtol=1e-14)
    np.testing.assert_allclose(fit.residuals, [1.0 / 6.0, -1.0 / 3.0, 1.0 / 6.0], atol=1e-14)
    assert fit.residuals.mean() == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(G @ fit.beta_hat + fit.residuals, y, atol=1e-14)


def test_fit_ols_residuals_orthogonal_to_design():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(50, 3))
    data = Dataset(X, rng.normal(size=50))
    G = evaluate_design(data.predictors, DesignSpec.main_effects(3))
    fit = fit_ols(G, data.response)
    assert np.abs(G.T @ fit.residuals).max() < 1e-10
    # with an intercept column the residuals are centered already
    assert abs(fit.residuals.mean()) < 1e-12
    np.testing.assert_allclose(fit.centered_residuals, fit.residuals - fit.residuals.mean(), rtol=0, atol=0)


def test_fit_ols_exact_fit_zero_residuals():
    rng = np.random.default_rng(32)
    G = np.column_stack([np.ones(10), rng.normal(size=10)])
    beta = np.array([2.0, -0.5])
    fit = fit_ols(G, G @ beta)
    np.testing.assert_allclose(fit.beta_hat, beta, rtol=1e-12)
    assert np.abs(fit.residuals).max() < 1e-12


def test_fit_ols_duplicate_column_is_singular():
    rng = np.random.default_rng(33)
    x = rng.normal(size=20)
    G = np.column_stack([np.ones(20), x, x])
    with pytest.raises(SingularDesignError) as err:
        fit_ols(G, rng.normal(size=20))
    assert "singular" in str(err.value)


def test_fit_ols_near_dependence_tripped_by_condition_limit():
    rng = np.random.default_rng(34)
    x = rng.normal(size=40)
    # second column differs from the first by ~1e-9: rank is technically 2 but
    # the scaled Gram condition blows far past the supported limit
    G = np.column_stack([x, x + 1e-9 * rng.normal(size=40)])
    with pytest.raises(SingularDesignError):
        fit_ols(G, rng.normal(size=40))
    assert MAX_GRAM_CONDITION == 1e12


def test_fit_ols_more_columns_than_rows():
    with pytest.raises(ValueError):
        fit_ols(np.ones((2, 3)), np.zeros(2))


def test_fit_ols_condition_number_of_known_design():
    """Singular values of [[1,0],[1,1],[1,2]] give cond((G'G)) = (smax/smin)^2."""
    G = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
    fit = fit_ols(G, np.array([0.0, 1.0, 3.0]))
    s = np.linalg.svd(G, compute_uv=False)
    assert fit.gram_condition == pytest.approx((s[0] / s[-1]) ** 2, rel=1e-12)


@pytest.mark.parametrize("n", [100, 200, 1000])
def test_refit_residuals_bit_equal_to_fit_ols(n):
    """Every member of a stacked replicate refit gives ``fit_ols``'s residuals bit for bit on
    its resampled rows, in a stack of 16 as in a stack of one."""
    rng = np.random.default_rng(40 + n)
    G = np.column_stack([np.ones(n), rng.uniform(size=(n, 4))])
    e = rng.normal(size=n)
    rows, errs = rng.integers(0, n, size=(2, 50, n))
    for first, count in ((0, 16), (16, 16), (32, 1), (33, 16), (49, 1)):
        stack = slice(first, first + count)
        resid, singular = _refit_residuals(G[rows[stack]], e[errs[stack]])
        assert resid.shape == (count, n) and not singular.any()
        for i in range(count):
            assert np.array_equal(resid[i], fit_ols(G[rows[first + i]], e[errs[first + i]]).residuals)


def test_refit_residuals_keeps_the_singularity_rule_without_the_note():
    """Rank deficiency and the condition limit flag a refit that ``fit_ols`` rejects;
    only ``fit_ols`` builds the message, with the note naming the dependent columns."""
    rng = np.random.default_rng(35)
    x = rng.normal(size=40)
    y = rng.normal(size=40)
    notes = []
    for G in (np.column_stack([np.ones(40), x, x]), np.column_stack([x, x + 1e-9 * rng.normal(size=40)])):
        _, singular = _refit_residuals(G[None], y[None])
        assert singular.tolist() == [True]
        with pytest.raises(SingularDesignError) as fit:
            fit_ols(G, y)
        notes.append(str(fit.value).partition(")")[2])
    assert notes == ["; columns [2] look linearly dependent on the others", ""]


def test_standardize_columns():
    rng = np.random.default_rng(41)
    M = rng.normal(loc=3.0, scale=2.5, size=(60, 3))
    S, means, sds = standardize(M)
    np.testing.assert_allclose(S.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(S.std(axis=0, ddof=1), 1.0, rtol=1e-12)
    np.testing.assert_allclose(S * sds + means, M, rtol=1e-12)


def test_standardize_flags_dead_column():
    M = np.column_stack([np.ones(10), np.arange(10.0)])
    with pytest.raises(DegenerateDataError, match=r"\[0\]"):
        standardize(M)

