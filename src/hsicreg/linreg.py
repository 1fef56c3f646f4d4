"""Datasets, design matrices, and ordinary least squares.

The regression model is linear in a user-chosen basis of the raw predictor
coordinates: intercept, single coordinates, pairwise products and squares,
each evaluated as one vectorized column operation.  Fitting goes through a
stable orthogonal decomposition (SVD); the scaled normal-equations matrix is
never inverted explicitly, but its condition number is estimated and
reported.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DegenerateDataError, SingularDesignError

#: Designs whose scaled Gram condition estimate exceeds this are treated as singular.
MAX_GRAM_CONDITION = 1e12


@dataclass(frozen=True)
class Dataset:
    """Predictor rows ``(n, d0)`` paired with a response vector ``(n,)``."""

    predictors: np.ndarray
    response: np.ndarray
    predictor_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        X = np.asarray(self.predictors, dtype=float)
        y = np.asarray(self.response, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        if X.ndim != 2:
            raise ValueError(f"predictors must be a 2-D array, got shape {X.shape}")
        if y.ndim != 1:
            raise ValueError(f"response must be a 1-D array, got shape {y.shape}")
        if X.shape[0] != y.shape[0]:
            raise ValueError(f"predictors have {X.shape[0]} rows but response has {y.shape[0]}")
        if X.shape[0] == 0:
            raise ValueError("dataset is empty")
        if not np.isfinite(X).all():
            raise ValueError("predictors contain non-finite values")
        if not np.isfinite(y).all():
            raise ValueError("response contains non-finite values")
        if self.predictor_names is not None:
            names = tuple(str(s) for s in self.predictor_names)
            if len(names) != X.shape[1]:
                raise ValueError(f"{len(names)} predictor names for {X.shape[1]} columns")
            object.__setattr__(self, "predictor_names", names)
        object.__setattr__(self, "predictors", X)
        object.__setattr__(self, "response", y)

    @property
    def n(self) -> int:
        return self.predictors.shape[0]

    @property
    def d0(self) -> int:
        return self.predictors.shape[1]

    def names(self) -> tuple[str, ...]:
        """Predictor column names, defaulting to x1..x{d0}."""
        if self.predictor_names is not None:
            return self.predictor_names
        return tuple(f"x{j + 1}" for j in range(self.d0))


@dataclass(frozen=True)
class BasisTerm:
    """One named column of the regression design."""

    kind: str  # "intercept" | "coordinate" | "square" | "product"
    indices: tuple[int, ...] = ()
    label: str = ""


def intercept() -> BasisTerm:
    return BasisTerm("intercept", (), "1")


def coordinate(j: int, label: str | None = None) -> BasisTerm:
    return BasisTerm("coordinate", (int(j),), label or f"x{j + 1}")


def square(j: int, label: str | None = None) -> BasisTerm:
    return BasisTerm("square", (int(j),), label or f"x{j + 1}^2")


def product(i: int, j: int, label: str | None = None) -> BasisTerm:
    return BasisTerm("product", (int(i), int(j)), label or f"x{i + 1}*x{j + 1}")


@dataclass(frozen=True)
class DesignSpec:
    """An ordered basis of named predictor functions."""

    terms: tuple[BasisTerm, ...]

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("a design needs at least one basis term")
        object.__setattr__(self, "terms", terms)

    @property
    def d(self) -> int:
        return len(self.terms)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(t.label for t in self.terms)

    @classmethod
    def main_effects(cls, d0: int, with_intercept: bool = True) -> "DesignSpec":
        """Intercept (optional) plus every raw coordinate."""
        terms: list[BasisTerm] = [intercept()] if with_intercept else []
        terms.extend(coordinate(j) for j in range(d0))
        return cls(tuple(terms))


def evaluate_design(X: np.ndarray, spec: DesignSpec) -> np.ndarray:
    """Evaluate the basis on raw predictor rows, returning the (n, d) design matrix."""
    X = np.asarray(X, dtype=float)
    n, d0 = X.shape
    cols = np.empty((n, spec.d), dtype=float)
    for c, term in enumerate(spec.terms):
        for j in term.indices:
            if not 0 <= j < d0:
                raise ValueError(
                    f"design term {term.label!r} references predictor {j}, but data has {d0} columns"
                )
        if term.kind == "intercept":
            cols[:, c] = 1.0
        elif term.kind == "coordinate":
            cols[:, c] = X[:, term.indices[0]]
        elif term.kind == "square":
            cols[:, c] = X[:, term.indices[0]] ** 2
        elif term.kind == "product":
            cols[:, c] = X[:, term.indices[0]] * X[:, term.indices[1]]
        else:
            raise ValueError(f"unknown basis term kind {term.kind!r}")
    if not np.isfinite(cols).all():
        raise ValueError("design matrix contains non-finite values")
    return cols


@dataclass(frozen=True)
class FittedModel:
    """A least-squares fit: coefficients, residual vectors, and conditioning."""

    beta_hat: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    centered_residuals: np.ndarray
    residual_mean: float
    gram_condition: float


def fit_ols(design: np.ndarray, response: np.ndarray) -> FittedModel:
    """Least squares via SVD, with a singularity guard on the scaled Gram matrix.

    Raises :class:`SingularDesignError` when the design is rank deficient or
    the condition number of (1/n) G'G exceeds :data:`MAX_GRAM_CONDITION`,
    naming the offending columns when they can be identified.
    """
    G = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    if G.ndim != 2:
        raise ValueError(f"design must be a 2-D matrix, got shape {G.shape}")
    if y.ndim != 1 or y.shape[0] != G.shape[0]:
        raise ValueError(f"response shape {y.shape} does not match design {G.shape}")
    n, d = G.shape
    if d < 1:
        raise ValueError("design has no columns")
    if n < d:
        raise ValueError(f"need at least as many rows as design columns ({n} < {d})")
    if not (np.isfinite(G).all() and np.isfinite(y).all()):
        raise ValueError("design or response contains non-finite values")

    beta, _, rank, svals = np.linalg.lstsq(G, y, rcond=None)
    smin = float(svals[-1]) if svals.size else 0.0
    smax = float(svals[0]) if svals.size else 0.0
    cond = np.inf if smin == 0.0 else (smax / smin) ** 2
    if rank < d or not cond <= MAX_GRAM_CONDITION:
        raise SingularDesignError(
            f"design matrix is numerically singular "
            f"(rank {rank} of {d}, scaled Gram condition {cond:.3e})"
            + _dependent_columns_note(G, rank)
        )
    fitted = G @ beta
    resid = y - fitted
    rmean = float(resid.mean())
    return FittedModel(
        beta_hat=beta,
        fitted=fitted,
        residuals=resid,
        centered_residuals=resid - rmean,
        residual_mean=rmean,
        gram_condition=float(cond),
    )


def _dependent_columns_note(G: np.ndarray, rank: int) -> str:
    """Best-effort identification of linearly dependent design columns."""
    try:
        _, _, piv = scipy.linalg.qr(G, mode="economic", pivoting=True)
    except Exception:  # pragma: no cover - diagnostic only
        return ""
    suspects = sorted(int(j) for j in piv[max(rank, 1):])
    if not suspects:
        return ""
    return f"; columns {suspects} look linearly dependent on the others"


def standardize(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-standardize with the (n-1)-divisor sample standard deviation.

    Returns ``(standardized, means, sds)``.  A zero-variance column raises
    :class:`DegenerateDataError` naming the column index; intercept columns
    are the caller's to exempt (a design intercept is added after
    standardization, never standardized).
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {M.shape}")
    if M.shape[0] < 2:
        raise ValueError("standardization needs at least two rows")
    if not np.isfinite(M).all():
        raise ValueError("matrix contains non-finite values")
    means = M.mean(axis=0)
    sds = M.std(axis=0, ddof=1)
    dead = np.flatnonzero(sds == 0.0)
    if dead.size:
        raise DegenerateDataError(f"zero-variance column(s) {dead.tolist()} cannot be standardized")
    return (M - means) / sds, means, sds


@dataclass(frozen=True)
class StandardizeInfo:
    """Per-column centering/scale used to standardize a dataset."""

    predictor_means: np.ndarray
    predictor_sds: np.ndarray
    response_mean: float
    response_sd: float


def standardize_dataset(data: Dataset) -> tuple[Dataset, StandardizeInfo]:
    """Standardize predictors and response together; returns the new dataset and the scales."""
    Xs, xm, xs = standardize(data.predictors)
    ys, ym, ysd = standardize(data.response[:, None])
    info = StandardizeInfo(xm, xs, float(ym[0]), float(ysd[0]))
    return Dataset(Xs, ys[:, 0], data.predictor_names), info
