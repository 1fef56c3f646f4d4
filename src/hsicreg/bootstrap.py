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

Replicates are drawn in blocks of consecutive indices (:func:`_null_block`):
each member draws its own indices, one stacked QR refits them all with the
solver of :func:`~hsicreg.linreg.fit_ols`, and each member's statistic (or its
one redraw, if its refit was singular) waits until its draw is consumed.  No
draw depends on its block, so the draws are the same at every block size and
worker count, and a curtailed trial can stop mid-block.

Kernels and bandwidths are frozen from the original fit; replicates are never
re-standardized and never re-resolve a median bandwidth.  A replicate reads the
:class:`~hsicreg.hsic.PreparedStat` of the original fit and gathers nothing
n x n: it passes its predictor-row indices, refit residuals and the resolved
residual bandwidth to :func:`hsicreg.hsic._residual_stat`, the one statistic
entry, which also computed the observed statistic; its tiled kernel reads the
frozen predictor Gram and works in T*n + 2*T^2 + 4*n floats that its thread reuses
from one replicate, and one call, to the next; :func:`parallel_map` frees the
calling thread's set before it starts a pool.  Every draw, a
replicate's or a permutation's, resets its thread's one Philox generator
(:func:`hsicreg._rng.replicate_stream`) instead of building one: the key is the
seed's, and the counter tells the streams apart (Salmon, Moraes, Dror & Shaw,
SC 2011), ``(0, replicate, redraw, 2)`` for a replicate and
``(0, replicate, 0, 1)`` for a permutation.

A permutation draw goes through the same kernel (:func:`_perm_draw`): it
gathers the second Gram by the permutation and reads the first in tiles, so
the baseline holds its two n x n Grams and nothing else that size.  Every
permutation has the same index counts, so one call computes the kernel's row
sums and their exact total once, for all its draws and for the observed
statistic, the identity permutation's draw.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from ._rng import check_integer, replicate_stream
from .errors import BootstrapAbortError
from .hsic import PreparedStat, _free_work_memory, _residual_stat, _row_sums, _tiled_stat, prepare_stat
from .kernels import KernelSpec, _check_gram_fits, as_points, gram_matrix
from .linreg import Dataset, DesignSpec, _refit_residuals

#: The most replicates one stacked solve refits ...
_BLOCK = 16
#: ... and the most bytes their rows [G* | e*] take (one replicate is always
#: allowed): under glibc's default mmap threshold, so the heap serves each stack.
_BLOCK_BYTES = 1 << 17


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
        for name, minimum in (("replicates", 1), ("seed", 0), ("workers", 0)):
            object.__setattr__(self, name, check_integer(name, getattr(self, name), minimum))


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

    Both vectors come from the stream :func:`~hsicreg._rng.replicate_stream`
    starts at the Philox counter ``(0, replicate, redraw, 2)`` under the
    seed's key (Salmon et al., SC 2011): first the predictor-row indices,
    then — independently, never paired — the residual indices.  The pairs
    come back stably sorted by predictor index, so a replicate gathers the
    predictor Gram in memory order; their multiset, and so the statistic
    and its resampling law, is unchanged.
    """
    # One call of 2n draws is two calls of n: numpy buffers bounded draws in the generator's state.
    idx_x, idx_e = replicate_stream(seed, replicate, redraw).integers(0, n, size=2 * n).reshape(2, n)
    # A stable sort's order is unique, so the narrowest key that holds n - 1 gives the same
    # bits as int64, and numpy radix-sorts 8- and 16-bit keys.
    order = np.argsort(idx_x.astype(np.min_scalar_type(n - 1)), kind="stable")
    return idx_x[order], idx_e[order]


def _replicate_stat(
    prep: PreparedStat, seed: int, replicate: int, idx_x: np.ndarray, resid: np.ndarray | None
) -> float:
    """n times the statistic of null replicate ``replicate``, given its predictor-row
    indices and refit residuals, or ``None`` for a singular refit: the replicate then
    redraws once (``redraw=1``), and a second singular refit raises :class:`BootstrapAbortError`."""
    n = prep.observed.n
    if resid is None:
        idx_x, idx_e = replicate_indices(seed, replicate, n, 1)
        (resid,), (flag,) = _refit_residuals(prep.design[idx_x][None], prep.model.centered_residuals[idx_e][None])
        if flag:
            raise BootstrapAbortError(f"replicate {replicate}: singular refit on the draw and its one redraw; aborting")
    return _residual_stat(prep.gram_x, idx_x, resid, prep.kernel_e.bandwidth).scaled


def _null_block(prep: PreparedStat, seed: int, replicates: range) -> Iterator[float]:
    """The null draws of ``replicates``, one at a time, from the frozen fit in ``prep``.

    One stacked solve refits every member before the first draw is yielded;
    each member's :func:`_replicate_stat` runs only when its draw is
    consumed, so a caller that stops mid-block skips the rest.
    """
    n = prep.observed.n
    idx = np.empty((len(replicates), 2, n), dtype=np.int64)
    for pair, replicate in zip(idx, replicates):
        pair[0], pair[1] = replicate_indices(seed, replicate, n)
    resid, singular = _refit_residuals(prep.design[idx[:, 0]], prep.model.centered_residuals[idx[:, 1]])
    for replicate, idx_x, member, flag in zip(replicates, idx[:, 0], resid, singular.tolist()):
        yield _replicate_stat(prep, seed, replicate, idx_x, None if flag else member)


def _null_draws(prep: PreparedStat, seed: int, replicates: range) -> list[float]:
    """Every null draw of one block, as a pool worker returns them."""
    return list(_null_block(prep, seed, replicates))


def _blocks(prep: PreparedStat, replicates: int, workers: int) -> list[range]:
    """Replicates 0..B-1 in consecutive blocks, at least four per worker as
    :func:`parallel_map` chunks its items, of at most :data:`_BLOCK` members
    whose stacked design rows fit in :data:`_BLOCK_BYTES`."""
    n, d = prep.design.shape
    size = max(1, min(_BLOCK, -(-replicates // (4 * workers)), _BLOCK_BYTES // (8 * n * (d + 1))))
    return [range(first, min(first + size, replicates)) for first in range(0, replicates, size)]


#: The function a pool worker applies to each item.  Set only inside worker
#: processes, once each, by the pool initializer; the calling process never sets it.
_worker_fn: Callable | None = None


def _install_worker_fn(fn: Callable) -> None:
    global _worker_fn
    _worker_fn = fn


def _apply_worker_fn(item):
    return _worker_fn(item)


def _pool_size(workers: int, items: int) -> int:
    """The processes a pool over ``items`` items starts: ``workers``, at most one per item
    (a ``fork`` pool starts them all at its first task).  0 is one per CPU in the process's
    affinity set where the platform has one: ``os.cpu_count()`` counts the host's CPUs,
    more than a cpuset-limited container may use."""
    workers = check_integer("workers", workers)
    if workers == 0:
        workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(workers, items)


def parallel_map(fn: Callable, items: Sequence, workers: int) -> list:
    """``[fn(item) for item in items]`` on :func:`_pool_size` processes.

    Results keep item order, so they never depend on the worker count.  With
    more than one worker, ``fn`` is installed once per worker by the pool's
    initializer (inherited without pickling under ``fork``), so the chunks
    carry only items; ``fn`` and the items must still pickle for the other
    start methods.
    """
    workers = _pool_size(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    chunk = max(1, -(-len(items) // (workers * 4)))
    _free_work_memory()  # the calling thread draws nothing while the pool runs
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
    workers = _pool_size(config.workers, config.replicates)
    blocks = parallel_map(partial(_null_draws, prep, config.seed), _blocks(prep, config.replicates, workers), workers)
    draws = np.array([draw for block in blocks for draw in block])
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
        replicates=config.replicates,
        seed=config.seed,
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
    replicates: int,
    seed: int,
    alpha: float,
) -> bool:
    """``run_test(...).reject``, drawing replicates 0, 1, ... only until it is settled.

    With X draws >= the statistic among the first b, the p-value is at least
    (1 + X) / (B + 1); once that exceeds ``alpha`` no later draw can bring it
    back, so the test accepts.  It is at most (1 + X + B - b) / (B + 1), the
    value if every draw left exceeds; once that is at most ``alpha`` the test
    rejects.  Both bounds divide by the same B + 1 as the final p-value, and
    float division by one positive number is monotone, so neither stop can
    disagree with it.  Replicate b is the same draw as in :func:`run_test`
    (its stream is keyed by the seed and b alone), so the decision is the
    same too (exact curtailed sampling, Besag & Clifford 1991).  Draws are
    read from blocks member by member, so a decision settled mid-block
    computes no later member's statistic or redraw, and a twice-singular
    refit raises :class:`BootstrapAbortError` only if it comes before the
    decision is settled.  Draws run serially in this process.
    """
    prep = prepare_stat(data, design, kernel_x, kernel_e)
    statistic = prep.observed.scaled
    B = replicates
    draws = (draw for block in _blocks(prep, B, 1) for draw in _null_block(prep, seed, block))
    exceedances = 0
    for replicate in range(B):
        if _add_one_pvalue(exceedances, B) > alpha:
            return False
        if _add_one_pvalue(exceedances + (B - replicate), B) <= alpha:
            return True
        exceedances += next(draws) >= statistic
    return _add_one_pvalue(exceedances, B) <= alpha


def _perm_draw(gram_u: np.ndarray, gram_v: np.ndarray, row_sums: tuple, seed: int, replicate: int) -> float:
    """The statistic of ``gram_u`` against ``gram_v`` permuted by ``replicate_stream(seed, replicate)``.
    ``row_sums`` is the identity's ``_row_sums`` of ``gram_v``: a permutation has the same
    counts, so its row sums are those gathered by it, and its exact total is the same."""
    perm = replicate_stream(seed, replicate).permutation(gram_u.shape[0])
    sums, total = row_sums
    return _tiled_stat(gram_v, perm, (sums[perm], total), lambda rows, cols, out: gram_u[rows, cols]).value


def permutation_pvalue(u, v, kernel_u: KernelSpec, kernel_v: KernelSpec, config: BootstrapConfig) -> float:
    """Permutation p-value for raw i.i.d. pairs (u_i, v_i).

    Valid when the pairs themselves are i.i.d. (no fitted model in the loop);
    not a substitute for the residual bootstrap.
    """
    u, v = as_points(u), as_points(v)
    if len(u) != len(v):
        raise ValueError(f"sample sizes differ: {len(u)} vs {len(v)}")
    _check_gram_fits(len(u), grams=2)
    gram_u = gram_matrix(u, kernel_u)
    gram_v = gram_matrix(v, kernel_v)
    identity = np.arange(len(u))
    row_sums = _row_sums(gram_v, identity)  # one product and one exact sum for every draw
    draws = parallel_map(partial(_perm_draw, gram_u, gram_v, row_sums, config.seed), range(config.replicates),
                         config.workers)
    # The observed statistic is the identity permutation's draw, from the same row sums and total.
    return pvalue_from_draws(draws, _tiled_stat(gram_v, identity, row_sums, lambda r, c, out: gram_u[r, c]).value)
