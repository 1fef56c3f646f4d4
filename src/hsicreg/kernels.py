"""Gaussian kernels, Gram matrices, and bandwidth selection.

The kernel convention throughout is

    k(u, v) = exp(-||u - v||^2 / bandwidth^2)

i.e. the squared Euclidean distance divided by the squared bandwidth, with no
extra factor of 2.  ``KernelSpec()`` has bandwidth 1.0, for standardized
variables; the median pairwise distance rule is an explicit opt-in.  The CLI
and the Monte Carlo harness default instead to ``study_kernels(d)`` (2*sqrt(d)
and sqrt(2)), which needs the data's dimension d that a constructor lacks.

Every accumulation is plain float64 at every n, so results do not depend on
the platform's ``long double`` width.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import pdist

from .errors import DegenerateDataError

#: Bandwidth rules understood by :class:`KernelSpec`.
FIXED = "fixed"
MEDIAN = "median"


@dataclass(frozen=True)
class KernelSpec:
    """A Gaussian kernel with a fixed bandwidth or the median-distance rule.

    With ``rule="fixed"`` the bandwidth is used as given.  With
    ``rule="median"`` the bandwidth is resolved from the data at hand (the
    median of the pairwise distances) before any Gram matrix is formed; the
    ``bandwidth`` field is ignored until then.
    """

    bandwidth: float = 1.0
    rule: str = FIXED

    def __post_init__(self) -> None:
        if self.rule not in (FIXED, MEDIAN):
            raise ValueError(f"unknown bandwidth rule {self.rule!r}; expected {FIXED!r} or {MEDIAN!r}")
        if self.rule == FIXED:
            bw = float(self.bandwidth)
            if not np.isfinite(bw) or bw <= 0.0:
                raise ValueError(f"bandwidth must be a positive finite number, got {self.bandwidth!r}")


def as_points(points) -> np.ndarray:
    """Coerce input to an (n, p) float array; 1-D input becomes a column."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"expected a nonempty 1-D or 2-D point array, got shape {np.shape(points)}")
    if not np.isfinite(pts).all():
        raise ValueError("points contain non-finite values")
    return pts


def median_heuristic(points) -> float:
    """Median of the pairwise Euclidean distances over distinct unordered pairs.

    Tied points contribute their zero distances to the median like any other
    pair.  A sample whose pairwise distances are all zero (or whose median
    distance is zero) cannot yield a usable bandwidth and raises
    :class:`DegenerateDataError`.
    """
    pts = as_points(points)
    if pts.shape[0] < 2:
        raise DegenerateDataError("median heuristic needs at least two points")
    dists = pdist(pts, metric="euclidean")
    med = float(np.median(dists))
    if med <= 0.0:
        raise DegenerateDataError(
            "median pairwise distance is zero (all or most points identical); "
            "cannot derive a bandwidth"
        )
    return med


def resolve_bandwidth(spec: KernelSpec, points) -> KernelSpec:
    """Return a fixed-bandwidth copy of ``spec``, resolving the median rule on ``points``."""
    if spec.rule == FIXED:
        return spec
    return replace(spec, bandwidth=median_heuristic(points), rule=FIXED)


def gram_matrix(points, spec: KernelSpec) -> np.ndarray:
    """The n x n Gram matrix of ``points`` under ``spec``: one :func:`_gram_tile` over all pairs.

    The result is exactly symmetric with an exact unit diagonal.
    """
    pts = as_points(points)
    n = pts.shape[0]
    return _gram_tile(pts, pts, resolve_bandwidth(spec, pts).bandwidth, np.empty((n, n)))


def _gram_tile(left: np.ndarray, right: np.ndarray, bandwidth: float, out: np.ndarray) -> np.ndarray:
    """The Gram block between (m, p) row blocks ``left`` and ``right``, written into ``out``.

    Squared distances are summed one coordinate at a time, in coordinate
    order, exactly as ``pdist(points, "sqeuclidean")`` sums them, so the bits
    match the pairwise-distance construction, and the tile of
    ``points[I], points[J]`` is bit-equal to block [I, J] of
    :func:`gram_matrix`.  With p > 1, one temporary the size of ``out`` is
    allocated for the per-coordinate terms.
    """
    np.subtract.outer(left[:, 0], right[:, 0], out=out)
    np.multiply(out, out, out=out)
    term = np.empty_like(out) if left.shape[1] > 1 else None
    for j in range(1, left.shape[1]):
        np.subtract.outer(left[:, j], right[:, j], out=term)
        np.multiply(term, term, out=term)
        np.add(out, term, out=out)
    np.divide(out, -(bandwidth * bandwidth), out=out)
    return np.exp(out, out=out)


def center_gram(gram: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Doubly center a Gram matrix (subtract row and column means, add back the grand mean).

    Equivalent to H K H with H = I - (1/n) 11', without materializing H; row
    and column sums of the result vanish up to rounding.  The result is
    written into ``out`` if given, which may be ``gram`` itself: all three
    means are taken before anything is written.
    """
    K = np.asarray(gram, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {K.shape}")
    n = K.shape[0]
    row_sums = K.sum(axis=1)
    row = row_sums / n
    col = K.mean(axis=0)
    # Summed exactly: an error in the grand mean is multiplied by the sum of
    # all of the other Gram, which no centering cancels.
    grand = math.fsum(row_sums.tolist()) / n**2
    out = np.subtract(K, row[:, None], out=out)
    np.subtract(out, col[None, :], out=out)
    return np.add(out, grand, out=out)
