"""Null calibration for the residual-independence statistic.

The observed statistic is compared against draws produced under the null by a
residual resampling scheme with *product-measure* structure: predictor rows
and centered residuals are resampled through two independent index streams
(never as pairs), and the model is refit on every replicate before its
statistic is computed.  The refit regresses the resampled residuals e* on the
resampled design rows G*: a rebuilt response y* = G* beta_hat + e* would have
the same refit residuals, (I - P*) y* = (I - P*) e*, so beta_hat drops out.
Pairwise permutation of the residuals is deliberately not used for
calibration here — residuals are neither independent nor exchangeable given
the predictors — but a permutation p-value for raw i.i.d. pairs is provided
as a baseline for the no-regression setting.  The contrast that shows why is
:func:`hsicreg.simulate.null_distribution_contrast`, beside the power harness.

Kernels and bandwidths are frozen from the original fit; replicates are never
re-standardized and never re-resolve a median bandwidth.  A replicate reads the
:class:`~hsicreg.hsic.PreparedStat` of the original fit and gathers nothing
n x n: it passes its predictor-row indices, refit residuals and the resolved
residual bandwidth to the tiled statistic (:func:`hsicreg.hsic._tiled_stat`),
the same kernel that computed the observed statistic, which reads the frozen
predictor Gram and allocates T*n + 2*T^2 floats of work memory per call.
"""
from __future__ import annotations

import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from ._rng import substream
from .errors import BootstrapAbortError, SingularDesignError
from .hsic import PreparedStat, _product_sum, _tiled_stat, prepare_stat
from .kernels import KernelSpec, center_gram, gram_matrix
from .linreg import Dataset, DesignSpec, fit_ols


def check_integer(name: str, value) -> None:
    """Raise ValueError naming the knob unless ``value`` is an integer.

    Anything with ``__index__`` passes (numpy integers too); bools and
    non-integral numbers do not, so no count or seed is silently truncated.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def check_alpha(alpha: float) -> None:
    """Raise ValueError unless the level ``alpha`` lies strictly between 0 and 1."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")


@dataclass(frozen=True)
class BootstrapConfig:
    """How many null draws to generate, from which seed, on how many workers."""

    replicates: int = 1000
    seed: int = 0
    workers: int = 1  # 0 = one worker per CPU

    def __post_init__(self) -> None:
        for name in ("replicates", "seed", "workers"):
            check_integer(name, getattr(self, name))
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class TestResult:
    """Outcome of the calibrated independence / lack-of-fit test."""

    statistic: float  # n times the observed statistic
    p_value: float
    alpha: float
    reject: bool
    null_draws: np.ndarray
    beta_hat: np.ndarray
    n: int
    replicates: int
    seed: int
    kernel_x: KernelSpec
    kernel_e: KernelSpec
    standardized: bool
    design_labels: tuple[str, ...]


def replicate_indices(seed: int, replicate: int, n: int, redraw: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The two independent resampling index vectors for one replicate.

    Both vectors come from the stream keyed by ``(seed, replicate, redraw)``:
    first the predictor-row indices, then — independently, never paired — the
    residual indices.  The pairs come back stably sorted by predictor index,
    so a replicate gathers the predictor Gram in memory order; their
    multiset, and so the statistic and its resampling law, is unchanged.
    """
    rng = substream(seed, replicate, redraw)
    idx_x = rng.integers(0, n, size=n)
    idx_e = rng.integers(0, n, size=n)
    order = np.argsort(idx_x, kind="stable")
    return idx_x[order], idx_e[order]


def _null_draw(prep: PreparedStat, seed: int, replicate: int) -> float:
    """n times the statistic of one null replicate, drawn from the frozen fit in ``prep``."""
    n = prep.observed.n
    for redraw in (0, 1):
        idx_x, idx_e = replicate_indices(seed, replicate, n, redraw)
        try:
            refit = fit_ols(prep.design[idx_x], prep.model.centered_residuals[idx_e])
        except SingularDesignError:
            continue
        return float(n * _tiled_stat(prep.gram_x, idx_x, refit.residuals, prep.kernel_e.bandwidth).value)
    raise BootstrapAbortError(
        f"replicate {replicate}: singular refit on the draw and its one redraw; aborting"
    )


#: The function a pool worker applies to each item.  Set only inside worker
#: processes, once each, by the pool initializer; the calling process never sets it.
_worker_fn: Callable | None = None


def _install_worker_fn(fn: Callable) -> None:
    global _worker_fn
    _worker_fn = fn


def _apply_worker_fn(item):
    return _worker_fn(item)


def parallel_map(fn: Callable, items: Sequence, workers: int) -> list:
    """``[fn(item) for item in items]`` on ``workers`` processes (0 = one per CPU).

    Results keep item order, so they never depend on the worker count.  With
    more than one worker, ``fn`` is installed once per worker by the pool's
    initializer (inherited without pickling under ``fork``), so the chunks
    carry only items; ``fn`` and the items must still pickle for the other
    start methods.
    """
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    workers = workers or os.cpu_count() or 1
    if workers == 1:
        return [fn(item) for item in items]
    chunk = max(1, -(-len(items) // (workers * 4)))
    with ProcessPoolExecutor(max_workers=workers, initializer=_install_worker_fn, initargs=(fn,)) as pool:
        return list(pool.map(_apply_worker_fn, items, chunksize=chunk))


def _add_one_pvalue(exceedances: int, replicates: int) -> float:
    """(1 + X) / (B + 1): the p-value of X draws >= the statistic among B."""
    return (1 + exceedances) / (replicates + 1)


def pvalue_from_draws(draws: np.ndarray, statistic: float) -> float:
    """(1 + #{draws >= statistic}) / (B + 1)."""
    draws = np.asarray(draws, dtype=float)
    return _add_one_pvalue(int(np.count_nonzero(draws >= statistic)), draws.size)


def run_test(
    data: Dataset,
    design: DesignSpec,
    kernel_x: KernelSpec,
    kernel_e: KernelSpec,
    config: BootstrapConfig,
    alpha: float = 0.05,
    standardize: bool = True,
) -> TestResult:
    """Observed scaled statistic, its null draws, and the calibrated decision."""
    check_alpha(alpha)
    prep = prepare_stat(data, design, kernel_x, kernel_e, standardize)
    draw = partial(_null_draw, prep, config.seed)
    draws = np.asarray(parallel_map(draw, range(config.replicates), config.workers))
    statistic = prep.observed.scaled
    p_value = pvalue_from_draws(draws, statistic)
    return TestResult(
        statistic=float(statistic),
        p_value=float(p_value),
        alpha=float(alpha),
        reject=bool(p_value <= alpha),
        null_draws=draws,
        beta_hat=prep.model.beta_hat,
        n=prep.observed.n,
        replicates=int(config.replicates),
        seed=int(config.seed),
        kernel_x=prep.kernel_x,
        kernel_e=prep.kernel_e,
        standardized=bool(standardize),
        design_labels=design.labels,
    )


def _curtailed_reject(
    data: Dataset,
    design: DesignSpec,
    kernel_x: KernelSpec,
    kernel_e: KernelSpec,
    config: BootstrapConfig,
    alpha: float,
) -> bool:
    """``run_test(...).reject``, drawing replicates 0, 1, ... only until it is settled.

    With X draws >= the statistic so far, the p-value is at least
    (1 + X) / (B + 1); once that exceeds ``alpha`` no later draw can bring it
    back, so the test accepts.  A rejection needs all B draws.  Replicate b
    is the same draw as in :func:`run_test` (its stream is keyed by the seed
    and b alone), so the decision is the same too (exact curtailed sampling,
    Besag & Clifford 1991).  A twice-singular refit raises
    :class:`BootstrapAbortError` only if it comes before the decision is
    settled.  Draws run serially in this process; ``config.workers`` is not read.
    """
    prep = prepare_stat(data, design, kernel_x, kernel_e)
    draw = partial(_null_draw, prep, config.seed)
    statistic = prep.observed.scaled
    exceedances = 0
    for replicate in range(config.replicates):
        if _add_one_pvalue(exceedances, config.replicates) > alpha:
            return False
        exceedances += draw(replicate) >= statistic
    return _add_one_pvalue(exceedances, config.replicates) <= alpha


@dataclass(frozen=True)
class _PermSnapshot:
    """The first Gram and the second one centered once: P HLH P' = H PLP' H.

    A permutation gathers the centered Gram into the second of two n x n
    ``buffers`` through the first; both are made once per process.
    """

    gram_u: np.ndarray
    centered_v: np.ndarray
    seed: int

    @property
    def n(self) -> int:
        return self.gram_u.shape[0]

    @cached_property
    def buffers(self) -> tuple[np.ndarray, np.ndarray]:
        return np.empty((self.n, self.n)), np.empty((self.n, self.n))


def _permuted_stat(snap: _PermSnapshot, perm: np.ndarray) -> float:
    rows, permuted = snap.buffers
    # mode="clip" keeps take from allocating a hidden output buffer; perm is in range.
    np.take(snap.centered_v, perm, axis=0, out=rows, mode="clip")
    np.take(rows, perm, axis=1, out=permuted, mode="clip")
    return _product_sum(snap.gram_u, permuted).value


def _perm_draw(snap: _PermSnapshot, replicate: int) -> float:
    return _permuted_stat(snap, substream(snap.seed, replicate).permutation(snap.n))


def permutation_pvalue(u, v, kernel_u: KernelSpec, kernel_v: KernelSpec, config: BootstrapConfig) -> float:
    """Permutation p-value for raw i.i.d. pairs (u_i, v_i).

    Valid when the pairs themselves are i.i.d. (no fitted model in the loop);
    not a substitute for the residual bootstrap.
    """
    gram_u = gram_matrix(u, kernel_u)
    gram_v = gram_matrix(v, kernel_v)
    if gram_u.shape != gram_v.shape:
        raise ValueError(f"sample sizes differ: {gram_u.shape[0]} vs {gram_v.shape[0]}")
    snap = _PermSnapshot(gram_u, center_gram(gram_v, out=gram_v), config.seed)
    observed = _product_sum(gram_u, snap.centered_v.copy()).value
    draws = parallel_map(partial(_perm_draw, snap), range(int(config.replicates)), config.workers)
    return pvalue_from_draws(draws, observed)

