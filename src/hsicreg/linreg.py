"""Datasets, design matrices, and ordinary least squares.

The regression model is linear in a user-chosen basis of the raw predictor
coordinates, and this module alone builds it: a :class:`DesignSpec` of
:class:`BasisTerm` products, from :meth:`DesignSpec.main_effects` or parsed
from text such as ``"1 + x1 + x1^2*x2"`` by :meth:`DesignSpec.parse`, each
term evaluated as one vectorized column operation.  Every fit goes through
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
            if isinstance(self.predictor_names, str):
                raise ValueError(f"predictor names must be a sequence, not the string {self.predictor_names!r}")
            names = tuple(str(s) for s in self.predictor_names)
            if len(names) != X.shape[1]:
                raise ValueError(f"{len(names)} predictor names for {X.shape[1]} columns")
            repeated = sorted({s for s in names if names.count(s) > 1})
            if repeated:
                raise ValueError(f"predictor names must be distinct: {', '.join(map(repr, repeated))} repeated")
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
    coordinates at ``indices`` (none for the intercept, j repeated k times for a power x_j^k)."""

    indices: tuple[int, ...] = ()
    label: str = ""


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
        return cls((BasisTerm((), "1"), *(BasisTerm((j,), f"x{j + 1}") for j in range(d0))))

    @classmethod
    def parse(cls, text: str, names: tuple[str, ...]) -> "DesignSpec":
        """Parse ``"1 + x1 + x1*x2 + x2^2 + x1^2*x3"`` against the predictor names.

        A design is ``+``-separated terms; a term is ``1`` or a ``*``-product of
        factors ``name`` or ``name^k``, k a positive integer, and keeps its text
        as its label.  A factor is looked up as a name first, so a column such
        as ``log-price`` parses; otherwise a ``-``, ``/``, parenthesis, or a
        power that is not a positive integer, is named as an unsupported operator.
        """
        index = {name: j for j, name in enumerate(names)}

        def factor(token: str, term: str) -> tuple[int, ...]:
            if token in index:
                return (index[token],)
            base, caret, power = (part.strip() for part in token.partition("^"))
            if caret and base in index:
                if not (power.isdecimal() and int(power) > 0):
                    raise ValueError(f"unsupported operator {'^' + power!r} in design term {term!r}")
                return (index[base],) * int(power)
            operator = next((c for c in base if c in "-/()"), None)
            if operator is not None:
                raise ValueError(f"unsupported operator {operator!r} in design term {term!r}")
            raise ValueError(f"design references unknown predictor {base!r} (have: {', '.join(names)})")

        terms = []
        for raw in text.split("+"):
            term = raw.strip()
            if not term:
                raise ValueError(f"empty term in design {text!r}")
            indices = () if term == "1" else tuple(j for f in term.split("*") for j in factor(f.strip(), term))
            terms.append(BasisTerm(indices, term))
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
        cols[:, c] = np.prod(X[:, list(term.indices)], axis=1)
    if not np.isfinite(cols).all():
        raise ValueError("design matrix contains non-finite values")
    return cols


@dataclass(frozen=True)
class FittedModel:
    """A least-squares fit: coefficients, residual vectors, and conditioning."""

    beta_hat: np.ndarray
    residuals: np.ndarray
    centered_residuals: np.ndarray
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

    (beta,), (fitted,), (cond,), (singular,), (svals,) = _solve(np.column_stack((G, y))[None])
    if singular:
        # The rank, the count of values above eps * max(n, d) times the largest, is read only
        # for the message: a rank below d means a condition number of (eps * max(n, d))^-2
        # or more, over the limit whenever max(n, d) < 4.5e9.
        rank = int(np.count_nonzero(svals > np.finfo(float).eps * max(n, d) * svals[0]))
        raise SingularDesignError(
            f"design matrix is numerically singular (rank {rank} of {d}, scaled Gram condition {cond:.3e})"
            + _dependent_columns_note(G, rank)
        )
    resid = y - fitted
    return FittedModel(
        beta_hat=beta,
        residuals=resid,
        centered_residuals=resid - float(resid.mean()),
        gram_condition=float(cond),
    )


def _refit_residuals(design: np.ndarray, response: np.ndarray, rows: np.ndarray, picks: np.ndarray) -> tuple:
    """Row i of the (k, n) result is ``fit_ols(design[rows[i]], response[picks[i]]).residuals``, for
    arrays ``fit_ols`` accepted, so nothing is re-validated, and (k, n) index stacks, gathered
    straight into one (k, n, d + 1) stack [G* | y*].  Also returns the (k,) mask of the members
    whose fit ``fit_ols`` would reject as singular; such a member's residuals are not to be read.
    """
    d = design.shape[1]
    stack = np.empty((*rows.shape, d + 1))
    np.take(design, rows, axis=0, out=stack[..., :d], mode="clip")
    np.take(response, picks, out=stack[..., d], mode="clip")
    _, fitted, _, singular, _ = _solve(stack)
    return stack[..., d] - fitted, singular


def _solve(stack: np.ndarray) -> tuple[np.ndarray, ...]:
    """Least squares of each (n, d) design G against its response y, in the (k, n, d + 1) stack [G | y].

    One ``numpy.linalg.qr`` call, a Householder QR with one LAPACK call per
    member, factors each [G | y]: the leading d x d block of its R factor is
    G's, and the column beside it is Q'y, so beta solves R beta = Q'y and Q
    is never formed.  R has G's singular values: a member is singular when
    the condition number (s_max / s_min)^2 of (1/n) G'G exceeds
    :data:`MAX_GRAM_CONDITION`.  Each member's LAPACK and BLAS calls see
    only its own rows, so its results do not depend on the rest of the stack.

    Returns the coefficients (k, d), fitted values (k, n), condition numbers
    (k,), the mask of singular members (k,), whose fits are not to be read,
    and the singular values (k, d) in decreasing order.
    """
    k, d = len(stack), stack.shape[2] - 1
    factors = np.linalg.qr(stack, mode="r")
    r, qty = factors[:, :d, :d], factors[:, :d, d]
    svals = np.linalg.svd(r, compute_uv=False)
    smin = svals[:, -1]
    cond = np.divide(svals[:, 0], smin, out=np.full(k, np.inf), where=smin > 0) ** 2
    singular = ~(cond <= MAX_GRAM_CONDITION)
    # An identity in place of each singular R keeps the stacked solve from failing on it.
    r = np.where(singular[:, None, None], np.eye(d), r)
    beta = np.linalg.solve(r, qty[..., None])
    return beta[..., 0], np.matmul(stack[..., :d], beta)[..., 0], cond, singular, svals


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

