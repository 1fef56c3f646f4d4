"""Datasets, design matrices, and ordinary least squares.

The regression model is linear in a user-chosen basis of the raw predictor
coordinates: intercept, single coordinates, pairwise products and squares,
each evaluated as one vectorized column operation.  Every fit goes through
one solver, :func:`_solve`: a Householder QR of the design with the response
as one more column, taken for a whole stack of fits at once, so the
normal-equations matrix is never formed; its condition number is read from
the singular values of the R factor and reported.  :func:`fit_ols` solves a
stack of one, and bootstrap replicates refit a block of resamples in one
stack through :func:`_refit_residuals`, each member bit-equal to
:func:`fit_ols` on its rows.  A singular fit's message names the columns
that look dependent, from a pivoted QR in ``scipy.linalg``, which is
imported only to build that message; replicate refits never build it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """One named column of the regression design: the product of the predictor
    coordinates at ``indices`` (none for the intercept, one repeated for a square)."""

    indices: tuple[int, ...] = ()
    label: str = ""


def intercept() -> BasisTerm:
    return BasisTerm((), "1")


def coordinate(j: int, label: str | None = None) -> BasisTerm:
    return BasisTerm((int(j),), label or f"x{j + 1}")


def square(j: int, label: str | None = None) -> BasisTerm:
    return BasisTerm((int(j), int(j)), label or f"x{j + 1}^2")


def product(i: int, j: int, label: str | None = None) -> BasisTerm:
    return BasisTerm((int(i), int(j)), label or f"x{i + 1}*x{j + 1}")


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
    def main_effects(cls, d0: int) -> "DesignSpec":
        """Intercept plus every raw coordinate."""
        return cls((intercept(), *(coordinate(j) for j in range(d0))))


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
        cols[:, c] = np.prod(X[:, list(term.indices)], axis=1)
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
    """Least squares through a Householder QR, with a singularity guard on the scaled Gram matrix.

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

    (beta,), (fitted,), (cond,), (error,) = _solve(G[None], y[None], explain=True)
    if error is not None:
        raise error
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


def _refit_residuals(designs: np.ndarray, responses: np.ndarray) -> tuple[np.ndarray, list]:
    """Row i of the (k, n) result is ``fit_ols(designs[i], responses[i]).residuals``.

    For (k, n, d) and (k, n) stacks of rows gathered from arrays ``fit_ols``
    accepted, so nothing is re-validated.  Also returns, per member, ``None``
    or the :class:`SingularDesignError` its fit raises, unraised and without
    the dependent-column note, which a caller that redraws a singular
    resample would discard; such a member's residuals are not to be read.
    """
    _, fitted, _, errors = _solve(designs, responses, explain=False)
    return responses - fitted, errors


def _solve(G: np.ndarray, y: np.ndarray, explain: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Least squares of each (n, d) design in the stack ``G`` against its response in ``y``.

    One ``numpy.linalg.qr`` call, a Householder QR with one LAPACK call per
    member, factors each [G | y]: the leading d x d block of its R factor is
    G's, and the column beside it is Q'y, so beta solves R beta = Q'y and Q
    is never formed.  R has G's singular values: a member is singular when
    fewer than d exceed eps * max(n, d) times the largest, or when the
    condition number (s_max / s_min)^2 of (1/n) G'G exceeds
    :data:`MAX_GRAM_CONDITION`.  Each member's LAPACK and BLAS calls see
    only its own rows, so its results do not depend on the rest of the stack.

    Returns the coefficients (k, d), fitted values (k, n), condition numbers
    (k,) and, per member, ``None`` or an unraised
    :class:`SingularDesignError`, whose message names the columns that look
    dependent with ``explain``; a singular member's fit is not to be read.
    """
    k, n, d = G.shape
    factors = np.linalg.qr(np.concatenate((G, y[..., None]), axis=2), mode="r")
    r, qty = factors[:, :d, :d], factors[:, :d, d]
    svals = np.linalg.svd(r, compute_uv=False)
    ranks = np.count_nonzero(svals > np.finfo(float).eps * max(n, d) * svals[:, :1], axis=1)
    smin = svals[:, -1]
    cond = np.divide(svals[:, 0], smin, out=np.full(k, np.inf), where=smin > 0) ** 2
    errors = [
        None if rank == d and c <= MAX_GRAM_CONDITION else SingularDesignError(
            f"design matrix is numerically singular (rank {rank} of {d}, scaled Gram condition {c:.3e})"
            + (_dependent_columns_note(G[i], rank) if explain else "")
        )
        for i, (rank, c) in enumerate(zip(ranks.tolist(), cond.tolist()))
    ]
    # An identity in place of each singular R keeps the stacked solve from failing on it.
    singular = np.array([error is not None for error in errors])
    r = np.where(singular[:, None, None], np.eye(d), r)
    beta = np.linalg.solve(r, qty[..., None])
    return beta[..., 0], np.matmul(G, beta)[..., 0], cond, errors


def _dependent_columns_note(G: np.ndarray, rank: int) -> str:
    """Best-effort identification of linearly dependent design columns."""
    # Imported here, not at the top: scipy.linalg is slow to import, and only a singular fit's message needs it.
    import scipy.linalg

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
