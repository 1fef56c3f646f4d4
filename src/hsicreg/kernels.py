"""Gaussian kernels, Gram matrices, and bandwidth selection.

The kernel convention throughout is

    k(u, v) = exp(-||u - v||^2 / bandwidth^2)

i.e. the squared Euclidean distance divided by the squared bandwidth, with no
extra factor of 2.  The default bandwidth is 1.0 and is meant to be applied to
standardized variables; the median pairwise distance rule is available as an
explicit opt-in.

Every accumulation is plain float64 at every n, so results do not depend on
the platform's ``long double`` width.
"""
from __future__ import annotations

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


def gaussian_kernel(u, v, bandwidth: float) -> float:
    """Evaluate exp(-||u - v||^2 / bandwidth^2) for a single pair of points."""
    bw = float(bandwidth)
    if not np.isfinite(bw) or bw <= 0.0:
        raise ValueError(f"bandwidth must be a positive finite number, got {bandwidth!r}")
    a = np.atleast_1d(np.asarray(u, dtype=float))
    b = np.atleast_1d(np.asarray(v, dtype=float))
    if a.shape != b.shape:
        raise ValueError(f"point shapes differ: {a.shape} vs {b.shape}")
    d = a - b
    return float(np.exp(-float(d @ d) / (bw * bw)))


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


def gram_matrix(points, spec: KernelSpec, out: np.ndarray | None = None) -> np.ndarray:
    """The n x n Gram matrix of ``points`` under ``spec``, written into ``out`` if given.

    Squared distances are summed one coordinate at a time, in coordinate
    order, exactly as ``pdist(points, "sqeuclidean")`` sums them, so the bits
    match the pairwise-distance construction; the result is exactly symmetric
    with an exact unit diagonal.  With a p-column input and p > 1, one n x n
    temporary is allocated for the per-coordinate terms.
    """
    pts = as_points(points)
    resolved = resolve_bandwidth(spec, pts)
    n = pts.shape[0]
    if out is None:
        out = np.empty((n, n))
    first, *rest = pts.T
    np.subtract.outer(first, first, out=out)
    np.multiply(out, out, out=out)
    term = np.empty((n, n)) if rest else None
    for coord in rest:
        np.subtract.outer(coord, coord, out=term)
        np.multiply(term, term, out=term)
        np.add(out, term, out=out)
    np.divide(out, -(resolved.bandwidth * resolved.bandwidth), out=out)
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
    row = K.mean(axis=1)
    col = K.mean(axis=0)
    grand = row.mean()
    out = np.subtract(K, row[:, None], out=out)
    np.subtract(out, col[None, :], out=out)
    return np.add(out, grand, out=out)
