"""A biased (V-statistic) estimate of the Hilbert-Schmidt independence criterion.

One kernel, :func:`_tiled_stat`, computes every statistic the package reports:
n^-2 tr(HAH HBH) for a gathered, read-only Gram A and a second Gram B read in
upper T x T tiles from a tile source.  There are two sources: Gaussian tiles of
1-D points (:func:`_residual_stats`, the one path from residual vectors to the
statistic: the observed statistic of :func:`prepare_stat`, every bootstrap
replicate and the contrast's error arm) and slices of a precomputed Gram
(:func:`hsic_vstat`, and each draw of the permutation baseline, which gathers
the second Gram by its permutation).  A stack of residual vectors has all
its operands built in stacked calls, so each member runs only its tile loop.
The explicit three-sum form :func:`hsic_sums` is kept as the oracle: the two
are tested against each other and against literal nested-loop sums, and
neither may be defined through the other.  Every sum is plain float64, and
the kernel's only BLAS calls are exact rank-2 products (see :mod:`.kernels`),
so results depend neither on the platform's ``long double`` width nor on BLAS.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import _TILE, KernelSpec, _difference_operands, _gram_tile, gram_matrix, resolve_bandwidth
from .linreg import Dataset, DesignSpec, FittedModel, evaluate_design, fit_ols
from .linreg import standardize as standardize_columns


@dataclass(frozen=True)
class HsicValue:
    """The statistic for one sample of size ``n``."""

    value: float
    n: int

    @property
    def scaled(self) -> float:
        """``n`` times the statistic — the scale on which the null calibration works."""
        return self.n * self.value


def _check_gram_pair(K, L) -> tuple[np.ndarray, np.ndarray, int]:
    K = np.asarray(K, dtype=float)
    L = np.asarray(L, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"first Gram matrix is not square: shape {K.shape}")
    if L.shape != K.shape:
        raise ValueError(f"Gram shapes differ: {K.shape} vs {L.shape}")
    n, t = K.shape[0], _TILE
    if n == 0:
        raise ValueError("Gram matrices are empty: the statistic needs at least one sample")
    for name, M in (("first", K), ("second", L)):
        # The statistic kernel reads upper tiles only, so a Gram must be finite and equal its
        # transpose; checked tile by tile, which reads memory in order and holds no n x n
        # temporary.  A finite upper tile equal to its mirror leaves the mirror finite too.
        for i in range(0, n, t):
            for j in range(i, n, t):
                upper, lower = M[i : i + t, j : j + t], M[j : j + t, i : i + t].T
                if not np.isfinite(upper).all():
                    raise ValueError(f"{name} Gram matrix has non-finite entries")
                if not np.array_equal(upper, lower):
                    problem = "is not exactly symmetric" if np.isfinite(lower).all() else "has non-finite entries"
                    raise ValueError(f"{name} Gram matrix {problem}")
    return K, L, n


def hsic_vstat(K, L) -> HsicValue:
    """n^-2 sum_ij K_ij (HLH)_ij for two exactly symmetric Grams: the tiled kernel
    centers ``L`` and reads ``K`` in slices, so neither input is changed or copied whole.

    Checking that both Grams are finite and exactly symmetric reads each once
    more, tile by tile, and costs about half the call: 2.6 of 5.2 ms at
    n = 1000 and 11.8 of 24 ms at n = 2000, of which the finiteness test is
    0.7 and 2.0 ms (best of 15, one core of a 2-vCPU x86-64 host).  Comparing
    strips, or tiles through a reused buffer, was no cheaper.
    """
    K, L, n = _check_gram_pair(K, L)
    idx = np.arange(n)
    return _tiled_stat(L, idx, _centering(L, idx), lambda rows, cols, out: K[rows, cols])


def _centering(K: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The operands that center ``K[idx, idx]`` for N x N ``K`` and the counts c of ``idx`` in
    0..N-1: with row means u = Kc[idx] / n and grand mean g = c'Kc / n^2, the (n, 2) [u, 1] and
    (2, n) [1; w], w = u - g, whose product at rows I and columns J is u_I + w_J.  c'Kc is summed
    exactly: an error in it is multiplied by the sum of the other Gram, which no centering
    cancels.  A (k, n) stack of index rows gives (k, n, 2) and (k, 2, n) stacks; a permutation
    of 0..n-1 has the identity's counts, so its operands are the identity's gathered by it."""
    rows = np.atleast_2d(idx)
    (k, n), N = rows.shape, K.shape[0]
    flat = rows + N * np.arange(k)[:, None]
    counts = np.bincount(flat.ravel(), minlength=k * N).reshape(k, N).astype(float)
    sums = np.take([np.einsum("ij,j->i", K, member) for member in counts], flat)
    row_ops, col_ops = np.ones((k, n, 2)), np.ones((k, 2, n))
    row_ops[..., 0] = sums / n
    col_ops[:, 1] = row_ops[..., 0] - np.array([math.fsum(member) for member in sums.tolist()])[:, None] / n**2
    return (row_ops, col_ops) if idx.ndim > 1 else (row_ops[0], col_ops[0])


def _tiled_stat(K: np.ndarray, idx: np.ndarray, centering: tuple, tile: Callable) -> HsicValue:
    """n^-2 sum_ij (H K[idx, idx] H)_ij L_ij with L read from ``tile``, tile by tile.

    ``idx`` holds n row indices into the read-only, exactly symmetric Gram
    ``K``, and ``centering`` is :func:`_centering` of ``K`` and ``idx``, which
    a caller with many draws builds in one go; ``tile(rows, cols, out)``
    returns block [rows, cols] of the symmetric Gram L, built into the work
    buffer ``out`` or read from memory the source holds.  Neither n x n matrix
    is formed; the loop works in one buffer of T*n + 2*T^2 floats, made per call:

    * a centered tile is K[idx_I, idx_J] minus the product of the
      ``centering`` operands, written into the L buffer before the L tile
      overwrites it, so one contiguous subtraction centers the tile;
    * both matrices are symmetric, so only tiles with J >= I are formed and
      each off-diagonal tile's sum counts twice.

    Every sum is an ``einsum`` or ``math.fsum``, and the offsets' product,
    like a Gaussian tile's, multiplies by +-1, so each offset is the correctly
    rounded u_i + w_j and no bit depends on BLAS or on the worker count.
    """
    n = idx.shape[0]
    t = min(_TILE, n)
    # glibc's dynamic mmap threshold keeps a freed buffer of this size on the heap for the next call.
    work = np.empty(t * n + 2 * t * t)
    rows, k_flat, l_flat = work[: t * n].reshape(t, n), work[t * n : t * n + t * t], work[t * n + t * t :]
    row_ops, col_ops = centering
    total = 0.0
    for top in range(0, n, _TILE):
        bottom = min(top + _TILE, n)
        block = rows[: bottom - top]
        # Every out= is a contiguous view and mode="clip" (idx is in range) keeps
        # take from allocating a hidden output buffer.
        np.take(K, idx[top:bottom], axis=0, out=block, mode="clip")
        for left in range(top, n, _TILE):
            right = min(left + _TILE, n)
            shape = (bottom - top, right - left)
            k_tile = k_flat[: shape[0] * shape[1]].reshape(shape)
            l_tile = l_flat[: shape[0] * shape[1]].reshape(shape)
            np.take(block, idx[left:right], axis=1, out=k_tile, mode="clip")
            np.matmul(row_ops[top:bottom], col_ops[:, left:right], out=l_tile)
            np.subtract(k_tile, l_tile, out=k_tile)
            l_tile = tile(slice(top, bottom), slice(left, right), l_tile)
            tile_sum = np.einsum("ij,ij->", k_tile, l_tile)
            total += tile_sum if left == top else 2.0 * tile_sum
    return HsicValue(float(total / n**2), n)


def _residual_stats(gram_x: np.ndarray, idx: np.ndarray, residuals: np.ndarray, bandwidth: float) -> list:
    """Per member m of the (k, n) stacks, a call that runs only the tile loop of the statistic
    between the rows ``idx[m]`` of ``gram_x`` and the 1-D ``residuals[m]`` under a Gaussian kernel
    of resolved ``bandwidth``, whose operands are all built here.  A residual Gram tile is bit-equal
    to its block of :func:`~hsicreg.kernels.gram_matrix`: both prescale alike and use ``_gram_tile``."""
    left, right = _difference_operands((residuals / bandwidth).T)
    tiles = [lambda rows, cols, out, l=l, r=r: _gram_tile(l[:, rows], r[:, :, cols], out)
             for l, r in zip(left[:, None], right[:, None])]
    return [lambda m=m: _tiled_stat(gram_x, *m) for m in zip(idx, zip(*_centering(gram_x, idx)), tiles)]


def _residual_stat(gram_x: np.ndarray, idx: np.ndarray, residuals: np.ndarray, bandwidth: float) -> HsicValue:
    """The one path from a residual vector to the statistic: :func:`_residual_stats` of a stack of one."""
    return _residual_stats(gram_x, idx[None], residuals[None], bandwidth)[0]()


def hsic_sums(K, L) -> HsicValue:
    """The same estimate through the literal three-sum form.

    n^-2 sum_ij K_ij L_ij + n^-4 (sum_ij K_ij)(sum_qr L_qr)
    - 2 n^-3 sum_i (sum_j K_ij)(sum_q L_iq), with the double and triple sums
    folded through row sums.
    """
    K, L, n = _check_gram_pair(K, L)
    pair = (K * L).sum()
    total_k = K.sum()
    total_l = L.sum()
    rows_k = K.sum(axis=1)
    rows_l = L.sum(axis=1)
    linked = (rows_k * rows_l).sum()
    value = pair / n**2 + total_k * total_l / n**4 - 2.0 * linked / n**3
    return HsicValue(float(value), n)


@dataclass(frozen=True)
class PreparedStat:
    """Everything the observed statistic and its null calibration share."""

    design: np.ndarray
    model: FittedModel
    kernel_x: KernelSpec
    kernel_e: KernelSpec
    gram_x: np.ndarray
    observed: HsicValue
    response_sd: float  # the response's sample sd when standardized, else 1.0


def prepare_stat(
    data: Dataset,
    design: DesignSpec,
    kernel_x: KernelSpec,
    kernel_e: KernelSpec,
    standardize: bool = True,
) -> PreparedStat:
    """Standardize (optionally), fit, resolve bandwidths, and compute the statistic once.

    Variables are standardized first by default (the bandwidth defaults are
    calibrated for that scale); the kernel over predictors sees the full raw
    predictor rows, not the design expansion.
    """
    response_sd = 1.0
    if standardize:
        predictors = standardize_columns(data.predictors)[0]
        response, _, sds = standardize_columns(data.response[:, None])
        data = Dataset(predictors, response[:, 0], data.predictor_names)
        response_sd = float(sds[0])
    G = evaluate_design(data.predictors, design)
    model = fit_ols(G, data.response)
    kx = resolve_bandwidth(kernel_x, data.predictors)
    ke = resolve_bandwidth(kernel_e, model.residuals)
    K = gram_matrix(data.predictors, kx)
    n = K.shape[0]
    return PreparedStat(
        design=G,
        model=model,
        kernel_x=kx,
        kernel_e=ke,
        gram_x=K,
        observed=_residual_stat(K, np.arange(n), model.residuals, ke.bandwidth),
        response_sd=response_sd,
    )
