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

The permutation baseline is the one statistic not computed by that kernel.
A permutation P commutes with centering (P HVH P' = H PVP' H), so it centers
the second Gram once per call and each draw only gathers it and sums its
product with the first Gram.  The tiled kernel would re-center the permuted
Gram in every draw (2.3x the time per draw at n = 100 on a 2-vCPU host); to
skip that, the shared kernel would have to branch on which caller it serves.
A draw gathers the permuted Gram in strips of T rows into two T x n buffers,
so the baseline holds its two n x n Grams and nothing else that size.
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
from .hsic import PreparedStat, _gaussian_tiles, _tiled_stat, prepare_stat
from .kernels import _TILE, KernelSpec, center_gram, gram_matrix
from .linreg import Dataset, DesignSpec, _refit_residuals


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
    workers: int = 1  # 0 = one worker per usable CPU

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
            resid = _refit_residuals(prep.design[idx_x], prep.model.centered_residuals[idx_e])
        except SingularDesignError:
            continue
        return float(n * _tiled_stat(prep.gram_x, idx_x, _gaussian_tiles(resid, prep.kernel_e.bandwidth)).value)
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


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform has one.

    ``os.cpu_count()`` counts the host's CPUs, more than a cpuset-limited
    container may use.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def parallel_map(fn: Callable, items: Sequence, workers: int) -> list:
    """``[fn(item) for item in items]`` on ``workers`` processes (0 = one per usable CPU).

    Results keep item order, so they never depend on the worker count.  With
    more than one worker, ``fn`` is installed once per worker by the pool's
    initializer (inherited without pickling under ``fork``), so the chunks
    carry only items; ``fn`` and the items must still pickle for the other
    start methods.
    """
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    workers = workers or _usable_cpus()
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

    A permutation gathers the centered Gram strip by strip, through the first
    of two T x n ``buffers`` into the second; both are made once per process.
    """

    gram_u: np.ndarray
    centered_v: np.ndarray
    seed: int

    @property
    def n(self) -> int:
        return self.gram_u.shape[0]

    @cached_property
    def buffers(self) -> tuple[np.ndarray, np.ndarray]:
        shape = (min(_TILE, self.n), self.n)
        return np.empty(shape), np.empty(shape)


def _permuted_stat(snap: _PermSnapshot, perm: np.ndarray) -> float:
    """n^-2 sum_ij U_ij (P HVH P')_ij, summed strip by strip by ``ndarray.sum`` (not a BLAS
    dot, so no thread dependence)."""
    rows, permuted = snap.buffers
    total = 0.0
    for top in range(0, snap.n, _TILE):
        part = perm[top : top + _TILE]
        strip, product = rows[: len(part)], permuted[: len(part)]
        # mode="clip" keeps take from allocating a hidden output buffer; perm is in range.
        np.take(snap.centered_v, part, axis=0, out=strip, mode="clip")
        np.take(strip, perm, axis=1, out=product, mode="clip")
        total += np.multiply(snap.gram_u[top : top + _TILE], product, out=product).sum()
    return float(total / snap.n**2)


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
    draws = parallel_map(partial(_perm_draw, snap), range(int(config.replicates)), config.workers)
    # The identity permutation gives the observed statistic; computed after the draws, so
    # pool workers never inherit or unpickle the snapshot's strip buffers.
    return pvalue_from_draws(draws, _permuted_stat(snap, np.arange(snap.n)))

