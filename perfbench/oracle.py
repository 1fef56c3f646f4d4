"""Reference values written independently of hsicreg, used to check its outputs.

The statistic is recomputed through the literal three-sum form

    n^-2 sum_ij K_ij L_ij + n^-4 (sum_ij K_ij)(sum_qr L_qr)
    - 2 n^-3 sum_i (sum_j K_ij)(sum_q L_iq)

with every sum taken by ``math.fsum``, so the oracle's own error is one
rounding per product, far below the tolerance.  Gram matrices are built by
broadcasting instead of ``pdist``, standardization and least squares by plain
numpy (QR), so no hsicreg code is on this path.
"""
from __future__ import annotations

import math

import numpy as np

#: Largest relative difference accepted between hsicreg and the oracle.  The
#: three terms of the sum are up to ~1e3 times the statistic, so rounding at
#: 1e-16 of them shows as up to ~5e-12 (measured at n = 1000); a wrong term,
#: centering or resampled row moves the value at O(1).
RTOL = 1e-9


def standardize(matrix: np.ndarray) -> np.ndarray:
    """Column means 0 and (n-1)-divisor standard deviations 1."""
    return (matrix - matrix.mean(axis=0)) / matrix.std(axis=0, ddof=1)


def gaussian_gram(points: np.ndarray, bandwidth: float) -> np.ndarray:
    """exp(-||u - v||^2 / bandwidth^2) over all pairs of rows, by broadcasting."""
    pts = points.reshape(points.shape[0], -1)
    diff = pts[:, None, :] - pts[None, :, :]
    return np.exp(-(diff * diff).sum(axis=-1) / (bandwidth * bandwidth))


def ols_residuals(design: np.ndarray, response: np.ndarray) -> np.ndarray:
    """Least-squares residuals through a QR factorization."""
    q, r = np.linalg.qr(design)
    beta = np.linalg.solve(r, q.T @ response)
    return response - design @ beta


def hsic_fsum(K: np.ndarray, L: np.ndarray) -> float:
    """The V-statistic by the three-sum form with exact (fsum) accumulation."""
    n = K.shape[0]
    pair = math.fsum((K * L).ravel().tolist())
    rows_k = [math.fsum(row) for row in K.tolist()]
    rows_l = [math.fsum(row) for row in L.tolist()]
    linked = math.fsum(a * b for a, b in zip(rows_k, rows_l))
    return math.fsum(
        [pair / n**2, math.fsum(rows_k) * math.fsum(rows_l) / n**4, -2.0 * linked / n**3]
    )


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)
