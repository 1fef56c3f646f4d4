"""A biased (V-statistic) estimate of the Hilbert-Schmidt independence criterion.

Two algebraically independent routes to the same estimate are kept side by
side on purpose:

* :func:`hsic_vstat` — the public two-Gram form, n^-2 tr(K HLH) =
  n^-2 tr(HKH HLH): only the second Gram is centered, through
  row/column/grand means in O(n^2), and one product-sum,
  n^-2 sum_ij K_ij (HLH)_ij, finishes it (the permutation baseline centers
  once, as P HLH P' = H PLP' H, and reuses the product-sum);
* :func:`hsic_sums` — the explicit three-sum form (pair, full-average, and
  row-linked averages), kept as a cross-check oracle.

Both are exercised against each other and against literal nested-loop sums in
the test suite; neither may be redefined in terms of the other.

The residual bootstrap's statistics — the observed one in
:func:`prepare_stat` and every null replicate — come from one tiled kernel,
:func:`_tiled_stat`.  It takes the predictor Gram K, the replicate's row
indices, the residuals and their resolved bandwidth, centers the gathered K
through the index counts and builds the residual Gram in upper T x T tiles,
so no n x n array beyond K is formed.  Every sum is plain float64 with no
BLAS call, so results depend neither on the platform's ``long double`` width
nor on BLAS threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, _gram_tile, center_gram, gram_matrix, resolve_bandwidth
from .linreg import Dataset, DesignSpec, FittedModel, StandardizeInfo, evaluate_design, fit_ols, standardize_dataset


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
    return K, L, K.shape[0]


def _product_sum(K: np.ndarray, centered: np.ndarray) -> HsicValue:
    """n^-2 sum_ij K_ij C_ij for a centered Gram C, written over ``centered``.

    Summed with ``ndarray.sum``, not a BLAS dot, so the bits cannot depend on BLAS threads.
    """
    n = K.shape[0]
    total = np.multiply(K, centered, out=centered).sum()
    return HsicValue(float(total / n**2), n)


def hsic_vstat(K, L) -> HsicValue:
    """The V-statistic from two Gram matrices, centering a copy of ``L`` only.

    Computes n^-2 sum_ij K_ij (HLH)_ij without materializing the centering
    matrix H; neither input is changed.
    """
    K, L, n = _check_gram_pair(K, L)
    return _product_sum(K, center_gram(L))


#: Side of the square tiles :func:`_tiled_stat` works in.  Two 128 x 128
#: float64 tiles take 256 KiB, well inside a core's L2 cache; the sweep
#: that chose it is recorded in CHANGES.md.
_TILE = 128


def _tiled_stat(K: np.ndarray, idx: np.ndarray, points: np.ndarray, bandwidth: float) -> HsicValue:
    """n^-2 sum_ij (H K[idx, idx] H)_ij L_ij with L the Gram of ``points`` at ``bandwidth``, tile by tile.

    ``points`` are n 1-D values, ``idx`` n row indices into the read-only
    Gram ``K``, and ``bandwidth`` is already resolved, so no call can
    re-resolve a median rule.  Neither n x n matrix is formed; the kernel
    allocates its own T*n + 2*T^2 floats of work memory on each call:

    * the gathered Gram is centered through index counts: with c the counts
      of ``idx`` and Kc = K c, its row means are u = Kc[idx] / n and its
      grand mean is g = c'Kc / n^2 = sum_i Kc[idx_i] / n^2, so a centered
      tile is K[idx_I, idx_J] - u_I - (u_J - g);
    * each tile of L is built by :func:`~hsicreg.kernels._gram_tile`, so it
      is bit-equal to the matching block of :func:`~hsicreg.kernels.gram_matrix`;
    * both matrices are symmetric, so only tiles with J >= I are formed and
      each off-diagonal tile's sum counts twice.

    Every sum is an ``einsum`` or ``math.fsum`` (never a BLAS call), so the
    bits cannot depend on BLAS threads or on the worker count.
    """
    n = idx.shape[0]
    t = min(_TILE, n)
    rows, k_flat, l_flat = np.empty((t, n)), np.empty(t * t), np.empty(t * t)
    column = points.reshape(n, 1)
    counts = np.bincount(idx, minlength=K.shape[0]).astype(float)
    row_sums = np.einsum("ij,j->i", K, counts)[idx]
    # c'Kc = sum_i Kc[idx_i], summed exactly: an error in g is multiplied by
    # the sum of all of L, which no centering cancels.
    grand = math.fsum(row_sums.tolist()) / n**2
    row_means = row_sums / n
    col_offsets = row_means - grand
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
            np.subtract(k_tile, row_means[top:bottom, None], out=k_tile)
            np.subtract(k_tile, col_offsets[left:right], out=k_tile)
            _gram_tile(column[top:bottom], column[left:right], bandwidth, l_tile)
            tile_sum = np.einsum("ij,ij->", k_tile, l_tile)
            total += tile_sum if left == top else 2.0 * tile_sum
    return HsicValue(float(total / n**2), n)


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
    scales: StandardizeInfo | None  # None when the data were used unstandardized


def prepare_stat(
    data: Dataset,
    design: DesignSpec,
    kernel_x: KernelSpec,
    kernel_e: KernelSpec,
    standardize: bool = True,
) -> PreparedStat:
    """Standardize (optionally), fit, resolve bandwidths, and compute the statistic once."""
    scales = None
    if standardize:
        data, scales = standardize_dataset(data)
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
        observed=_tiled_stat(K, np.arange(n), model.residuals, ke.bandwidth),
        scales=scales,
    )


def residual_hsic_stat(
    data: Dataset,
    design: DesignSpec,
    kernel_x: KernelSpec,
    kernel_e: KernelSpec,
    standardize: bool = True,
) -> tuple[HsicValue, FittedModel]:
    """The statistic between predictor rows and least-squares residuals.

    Variables are standardized first by default (the bandwidth defaults are
    calibrated for that scale); the kernel over predictors sees the full raw
    predictor rows, not the design expansion.
    """
    prep = prepare_stat(data, design, kernel_x, kernel_e, standardize)
    return prep.observed, prep.model
