"""A biased (V-statistic) estimate of the Hilbert-Schmidt independence criterion.

Two algebraically independent routes to the same estimate are kept side by
side on purpose:

* :func:`hsic_vstat` — the production path, trace of the product of doubly
  centered Gram matrices, evaluated through row/column/grand means in O(n^2)
  (:func:`vstat_in_place` is the same arithmetic on caller-owned buffers);
* :func:`hsic_sums` — the explicit three-sum form (pair, full-average, and
  row-linked averages), kept as a cross-check oracle.

Both are exercised against each other and against literal nested-loop sums in
the test suite; neither may be redefined in terms of the other.  Both sum in
plain float64 at every n, so results do not depend on the platform's
``long double`` width.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, as_points, center_gram, gram_matrix, resolve_bandwidth
from .linreg import Dataset, DesignSpec, FittedModel, StandardizeInfo, build_design, fit_ols, standardize_dataset


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


def vstat_in_place(K: np.ndarray, L: np.ndarray) -> HsicValue:
    """The V-statistic from two Gram matrices, overwriting both.

    Computes n^-2 sum_ij (HKH)_ij (HLH)_ij without materializing the
    centering matrix H: both matrices are centered in place and their
    elementwise product is written into ``K`` before the sum.  ``K`` and
    ``L`` must be distinct float64 buffers; this is the allocation-free
    kernel behind :func:`hsic_vstat` and the null replicates.
    """
    K, L, n = _check_gram_pair(K, L)
    if np.may_share_memory(K, L):
        raise ValueError("vstat_in_place needs two distinct buffers")
    center_gram(K, out=K)
    center_gram(L, out=L)
    total = np.multiply(K, L, out=K).sum()
    return HsicValue(float(total / n**2), n)


def hsic_vstat(K, L) -> HsicValue:
    """The V-statistic from two Gram matrices, via double centering.

    Computes n^-2 sum_ij (HKH)_ij (HLH)_ij on copies, so neither input is
    changed.
    """
    return vstat_in_place(np.array(K, dtype=float), np.array(L, dtype=float))


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


def hsic_pairs_stat(u, v, kernel_u: KernelSpec, kernel_v: KernelSpec) -> HsicValue:
    """The statistic for raw paired samples (u_i, v_i)."""
    pu = as_points(u)
    pv = as_points(v)
    if pu.shape[0] != pv.shape[0]:
        raise ValueError(f"sample sizes differ: {pu.shape[0]} vs {pv.shape[0]}")
    K = gram_matrix(pu, resolve_bandwidth(kernel_u, pu))
    L = gram_matrix(pv, resolve_bandwidth(kernel_v, pv))
    return hsic_vstat(K, L)


@dataclass(frozen=True)
class PreparedStat:
    """Everything the observed statistic and its null calibration share."""

    data: Dataset
    design: np.ndarray
    model: FittedModel
    kernel_x: KernelSpec
    kernel_e: KernelSpec
    gram_x: np.ndarray
    gram_e: np.ndarray
    observed: HsicValue
    scales: StandardizeInfo | None  # None when the data were used unstandardized

    @property
    def standardized(self) -> bool:
        return self.scales is not None


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
    G = build_design(data, design)
    model = fit_ols(G, data.response)
    kx = resolve_bandwidth(kernel_x, data.predictors)
    ke = resolve_bandwidth(kernel_e, model.residuals)
    K = gram_matrix(data.predictors, kx)
    L = gram_matrix(model.residuals, ke)
    return PreparedStat(
        data=data,
        design=G,
        model=model,
        kernel_x=kx,
        kernel_e=ke,
        gram_x=K,
        gram_e=L,
        observed=hsic_vstat(K, L),
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
