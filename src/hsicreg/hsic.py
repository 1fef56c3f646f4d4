"""A biased (V-statistic) estimate of the Hilbert-Schmidt independence criterion.

One kernel, :func:`_tiled_stat`, computes every statistic the package reports
except the permutation baseline's: n^-2 tr(HAH HBH) for a gathered, read-only
Gram A and a second Gram B read in upper T x T tiles from a tile source.  There
are two sources: Gaussian tiles of 1-D points (:func:`_gaussian_tiles`, for the
observed statistic of :func:`prepare_stat`, every bootstrap replicate and the
contrast's error arm) and slices of a precomputed Gram (:func:`hsic_vstat`).
The explicit three-sum form :func:`hsic_sums` is kept as the oracle: the two
are tested against each other and against literal nested-loop sums, and
neither may be defined through the other.  Every sum is plain float64 with no
BLAS call, so results depend neither on the platform's ``long double`` width
nor on BLAS threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import _TILE, KernelSpec, _gram_tile, gram_matrix, resolve_bandwidth
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
    n, t = K.shape[0], _TILE
    if n == 0:
        raise ValueError("Gram matrices are empty: the statistic needs at least one sample")
    for name, M in (("first", K), ("second", L)):
        # The statistic kernel reads upper tiles only, so a Gram must equal its transpose;
        # compared tile by tile, which reads memory in order and holds no n x n temporary.
        if not all(np.array_equal(M[i : i + t, j : j + t], M[j : j + t, i : i + t].T)
                   for i in range(0, n, t) for j in range(i, n, t)):
            raise ValueError(f"{name} Gram matrix is not exactly symmetric")
    return K, L, n


def hsic_vstat(K, L) -> HsicValue:
    """n^-2 sum_ij K_ij (HLH)_ij for two exactly symmetric Grams: the tiled kernel
    centers ``L`` and reads ``K`` in slices, so neither input is changed or copied whole."""
    K, L, n = _check_gram_pair(K, L)
    return _tiled_stat(L, np.arange(n), lambda rows, cols, out: K[rows, cols])


def _gaussian_tiles(points: np.ndarray, bandwidth: float) -> Callable:
    """Gram tiles of n 1-D ``points`` at a resolved ``bandwidth``, each bit-equal to its block
    of :func:`~hsicreg.kernels.gram_matrix`, since both are built by ``_gram_tile``."""
    column = points.reshape(-1, 1)
    return lambda rows, cols, out: _gram_tile(column[rows], column[cols], bandwidth, out)


def _tiled_stat(K: np.ndarray, idx: np.ndarray, tile: Callable) -> HsicValue:
    """n^-2 sum_ij (H K[idx, idx] H)_ij L_ij with L read from ``tile``, tile by tile.

    ``idx`` holds n row indices into the read-only, exactly symmetric Gram
    ``K``; ``tile(rows, cols, out)`` returns block [rows, cols] of the
    symmetric Gram L, built into the work buffer ``out`` or read from memory
    the source holds.  Neither n x n matrix is formed; the kernel allocates
    its own T*n + 2*T^2 floats of work memory on each call:

    * the gathered Gram is centered through index counts: with c the counts
      of ``idx`` and Kc = K c, its row means are u = Kc[idx] / n and its
      grand mean is g = c'Kc / n^2 = sum_i Kc[idx_i] / n^2, so a centered
      tile is K[idx_I, idx_J] - u_I - (u_J - g);
    * both matrices are symmetric, so only tiles with J >= I are formed and
      each off-diagonal tile's sum counts twice.

    Every sum is an ``einsum`` or ``math.fsum`` (never a BLAS call), so the
    bits cannot depend on BLAS threads or on the worker count.
    """
    n = idx.shape[0]
    t = min(_TILE, n)
    rows, k_flat, l_flat = np.empty((t, n)), np.empty(t * t), np.empty(t * t)
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
            l_tile = tile(slice(top, bottom), slice(left, right), l_tile)
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
        observed=_tiled_stat(K, np.arange(n), _gaussian_tiles(model.residuals, ke.bandwidth)),
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
