"""A biased (V-statistic) estimate of the Hilbert-Schmidt independence criterion.

Two algebraically independent routes to the same estimate are kept side by
side on purpose:

* :func:`hsic_vstat` — the production path, n^-2 tr(K HLH) = n^-2 tr(HKH HLH):
  only the second Gram is centered, through row/column/grand means in O(n^2),
  and one product-sum, n^-2 sum_ij K_ij (HLH)_ij, finishes every statistic
  (the permutation baseline centers once, as P HLH P' = H PLP' H);
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

from .kernels import KernelSpec, center_gram, gram_matrix, resolve_bandwidth
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


def vstat_in_place(K: np.ndarray, L: np.ndarray) -> HsicValue:
    """The V-statistic from two Gram matrices, reading ``K`` and overwriting ``L``.

    Computes n^-2 sum_ij K_ij (HLH)_ij without materializing the centering
    matrix H: ``L`` is centered in place, then :func:`_product_sum` finishes.
    ``K`` is never written.  ``L`` must be a float64 buffer that shares no
    memory with ``K``; this is the allocation-free kernel behind
    :func:`hsic_vstat` and the null replicates.
    """
    K, L, n = _check_gram_pair(K, L)
    if np.may_share_memory(K, L):
        raise ValueError("vstat_in_place needs two distinct buffers")
    return _product_sum(K, center_gram(L, out=L))


def hsic_vstat(K, L) -> HsicValue:
    """The V-statistic from two Gram matrices, centering a copy of ``L`` only.

    Computes n^-2 sum_ij K_ij (HLH)_ij; neither input is changed.
    """
    return vstat_in_place(K, np.array(L, dtype=float))


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
    return PreparedStat(
        design=G,
        model=model,
        kernel_x=kx,
        kernel_e=ke,
        gram_x=K,
        observed=vstat_in_place(K, gram_matrix(model.residuals, ke)),
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
