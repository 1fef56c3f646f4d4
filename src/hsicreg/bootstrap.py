"""Null calibration for the residual-independence statistic.

The observed statistic is compared against draws produced under the null by a
residual resampling scheme with *product-measure* structure: predictor rows
and centered residuals are resampled through two independent index streams
(never as pairs), responses are regenerated from the original fitted
coefficients, and the model is refit on every replicate before its statistic
is computed.  Pairwise permutation of the residuals is deliberately not used
for calibration here — residuals are neither independent nor exchangeable
given the predictors — but a permutation p-value for raw i.i.d. pairs is
provided as a baseline for the no-regression setting.

Kernels and bandwidths are frozen from the original fit; replicates are never
re-standardized and never re-resolve a median bandwidth.
"""
from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np
from scipy.stats import ks_2samp

from ._rng import substream
from .errors import BootstrapAbortError, SingularDesignError
from .hsic import hsic_vstat, prepare_stat, vstat_in_place
from .kernels import KernelSpec, as_points, gram_matrix, resolve_bandwidth
from .linreg import Dataset, DesignSpec, fit_ols


@dataclass(frozen=True)
class BootstrapConfig:
    """How many null draws to generate, from which seed, on how many workers."""

    replicates: int = 1000
    seed: int = 0
    workers: int = 1  # 0 = one worker per CPU

    def __post_init__(self) -> None:
        if int(self.replicates) < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if int(self.workers) < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if int(self.seed) < 0:
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
    residual indices.
    """
    rng = substream(seed, replicate, redraw)
    idx_x = rng.integers(0, n, size=n)
    idx_e = rng.integers(0, n, size=n)
    return idx_x, idx_e


class _Buffered:
    """Three n x n work buffers for a snapshot's replicates.

    They are made on first use in each process, reused by every later
    replicate there, and dropped with the snapshot.
    """

    n: int

    @cached_property
    def buffers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return np.empty((self.n, self.n)), np.empty((self.n, self.n)), np.empty((self.n, self.n))


def _gather(gram: np.ndarray, idx: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``gram[np.ix_(idx, idx)]`` written into ``out``, with ``rows`` as scratch.

    ``mode="clip"`` keeps ``take`` from allocating a hidden output buffer;
    the indices are always in range.
    """
    np.take(gram, idx, axis=0, out=rows, mode="clip")
    return np.take(rows, idx, axis=1, out=out, mode="clip")


@dataclass(frozen=True)
class _NullSnapshot(_Buffered):
    """Frozen state a null replicate needs: original design rows, Gram, fit, kernel."""

    design: np.ndarray
    gram_x: np.ndarray
    beta_hat: np.ndarray
    centered_residuals: np.ndarray
    kernel_e: KernelSpec
    seed: int

    @property
    def n(self) -> int:
        return self.centered_residuals.shape[0]


def _null_draw(snap: _NullSnapshot, replicate: int) -> float:
    n = snap.n
    for redraw in (0, 1):
        idx_x, idx_e = replicate_indices(snap.seed, replicate, n, redraw)
        design = snap.design[idx_x]
        response = design @ snap.beta_hat + snap.centered_residuals[idx_e]
        try:
            refit = fit_ols(design, response)
        except SingularDesignError:
            continue
        rows, gram_x, gram_e = snap.buffers
        _gather(snap.gram_x, idx_x, rows, gram_x)
        gram_matrix(refit.residuals, snap.kernel_e, out=gram_e)
        return float(n * vstat_in_place(gram_x, gram_e).value)
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
    workers = int(workers) or os.cpu_count() or 1
    if workers == 1:
        return [fn(item) for item in items]
    chunk = max(1, -(-len(items) // (workers * 4)))
    with ProcessPoolExecutor(max_workers=workers, initializer=_install_worker_fn, initargs=(fn,)) as pool:
        return list(pool.map(_apply_worker_fn, items, chunksize=chunk))


def bootstrap_null_draws(
    data: Dataset,
    design: DesignSpec,
    kernel_x: KernelSpec,
    kernel_e: KernelSpec,
    config: BootstrapConfig,
    standardize: bool = True,
) -> np.ndarray:
    """The length-B vector of scaled null statistics for the fitted model."""
    prep = prepare_stat(data, design, kernel_x, kernel_e, standardize)
    return _draws_for(prep, config)


def _draws_for(prep, config: BootstrapConfig) -> np.ndarray:
    snap = _NullSnapshot(
        design=prep.design,
        gram_x=prep.gram_x,
        beta_hat=prep.model.beta_hat,
        centered_residuals=prep.model.centered_residuals,
        kernel_e=prep.kernel_e,
        seed=config.seed,
    )
    draws = parallel_map(partial(_null_draw, snap), range(int(config.replicates)), config.workers)
    return np.asarray(draws, dtype=float)


def pvalue_from_draws(draws: np.ndarray, statistic: float) -> float:
    """(1 + #{draws >= statistic}) / (B + 1)."""
    draws = np.asarray(draws, dtype=float)
    return (1 + int(np.count_nonzero(draws >= statistic))) / (draws.size + 1)


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
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    prep = prepare_stat(data, design, kernel_x, kernel_e, standardize)
    draws = _draws_for(prep, config)
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


@dataclass(frozen=True)
class _PermSnapshot(_Buffered):
    gram_u: np.ndarray
    gram_v: np.ndarray
    observed: float
    seed: int

    @property
    def n(self) -> int:
        return self.gram_u.shape[0]


def _perm_exceeds(snap: _PermSnapshot, replicate: int) -> bool:
    perm = substream(snap.seed, replicate).permutation(snap.n)
    rows, gram_u, permuted = snap.buffers
    _gather(snap.gram_v, perm, rows, permuted)
    np.copyto(gram_u, snap.gram_u)
    return bool(vstat_in_place(gram_u, permuted).value >= snap.observed)


def permutation_pvalue(u, v, kernel_u: KernelSpec, kernel_v: KernelSpec, config: BootstrapConfig) -> float:
    """Permutation p-value for raw i.i.d. pairs (u_i, v_i).

    Valid when the pairs themselves are i.i.d. (no fitted model in the loop);
    not a substitute for the residual bootstrap.
    """
    pu = as_points(u)
    pv = as_points(v)
    if pu.shape[0] != pv.shape[0]:
        raise ValueError(f"sample sizes differ: {pu.shape[0]} vs {pv.shape[0]}")
    gram_u = gram_matrix(pu, resolve_bandwidth(kernel_u, pu))
    gram_v = gram_matrix(pv, resolve_bandwidth(kernel_v, pv))
    observed = hsic_vstat(gram_u, gram_v).value
    snap = _PermSnapshot(gram_u, gram_v, observed, config.seed)
    exceed = parallel_map(partial(_perm_exceeds, snap), range(int(config.replicates)), config.workers)
    return (1 + sum(exceed)) / (int(config.replicates) + 1)


#: Below this many replications per arm the contrast's KS comparison is flagged.
_CONTRAST_MIN_REPS = 25


@dataclass(frozen=True)
class ContrastResult:
    """Null-scale statistics computed from residuals vs. from the true errors."""

    residual_stats: np.ndarray
    error_stats: np.ndarray
    ks_distance: float
    ks_pvalue: float
    n: int
    reps: int
    undersampled: bool


def _contrast_rep(
    sampler: Callable[[int, np.random.Generator], tuple[Dataset, np.ndarray]],
    design: DesignSpec,
    kernel_x: KernelSpec,
    kernel_e: KernelSpec,
    n: int,
    seed: int,
    standardize: bool,
    both_arms_use_errors: bool,
    replication: int,
) -> tuple[float, float]:
    """(residual arm, error arm) scaled statistics for one contrast replication."""
    data, errors = sampler(n, substream(seed, replication))
    errors = np.asarray(errors, dtype=float)
    if data.n != n:
        raise ValueError(f"sampler returned {data.n} rows, expected {n}")
    if errors.shape != (data.n,):
        raise ValueError(f"sampler returned errors of shape {errors.shape} for n={data.n}")
    prep = prepare_stat(data, design, kernel_x, kernel_e, standardize)
    if prep.scales is not None:
        errors = errors / prep.scales.response_sd
    err_arm = n * hsic_vstat(prep.gram_x, gram_matrix(errors, prep.kernel_e)).value
    return (err_arm if both_arms_use_errors else prep.observed.scaled), err_arm


def null_distribution_contrast(
    sampler: Callable[[int, np.random.Generator], tuple[Dataset, np.ndarray]],
    design: DesignSpec,
    kernel_x: KernelSpec,
    kernel_e: KernelSpec,
    n: int,
    reps: int,
    config: BootstrapConfig,
    standardize: bool = True,
    both_arms_use_errors: bool = False,
) -> ContrastResult:
    """Compare the scaled statistic computed from residuals with the one from true errors.

    ``sampler(n, rng)`` must return a dataset *and* the true error vector it
    used.  Per replication both arms share the same draw and the same
    predictor Gram matrix; when standardizing, the error arm is scaled by the
    response's sample sd so both arms live in the same units.  With
    ``both_arms_use_errors`` the residual arm is replaced by the error arm —
    the distributions then coincide by construction (a self-check).

    Replications run on ``config.workers`` processes without changing the
    result.  When ``config.workers != 1``, ``sampler`` must be picklable: a
    module-level function or a ``functools.partial`` of one, not a closure.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    rep = partial(
        _contrast_rep, sampler, design, kernel_x, kernel_e, n, config.seed, standardize, both_arms_use_errors
    )
    arms = np.asarray(parallel_map(rep, range(reps), config.workers), dtype=float)
    resid_stats, error_stats = arms.T
    ks = ks_2samp(resid_stats, error_stats, method="asymp")
    undersampled = reps < _CONTRAST_MIN_REPS
    if undersampled:
        warnings.warn(
            f"contrast ran with only {reps} replications per arm; "
            "the KS comparison is unreliable below "
            f"{_CONTRAST_MIN_REPS}",
            stacklevel=2,
        )
    return ContrastResult(
        residual_stats=resid_stats,
        error_stats=error_stats,
        ks_distance=float(ks.statistic),
        ks_pvalue=float(ks.pvalue),
        n=int(n),
        reps=int(reps),
        undersampled=undersampled,
    )
