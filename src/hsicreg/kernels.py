"""Gaussian kernels, Gram matrices, and bandwidth selection.

The kernel convention throughout is

    k(u, v) = exp(-||u - v||^2 / bandwidth^2)

i.e. the squared Euclidean distance divided by the squared bandwidth, with no
extra factor of 2.  A :class:`KernelSpec` holds one bandwidth: a positive
number, or ``"median"`` for the median pairwise distance rule.  Both kernel
defaults live here.  ``KernelSpec()`` has bandwidth 1.0, for standardized
variables.  :func:`study_kernels` gives the CLI's and the Monte Carlo
harness's (predictor, residual) pair, which needs the data's dimension d that
a constructor lacks; its docstring gives their rationale.

Every accumulation is plain float64 at every n, so results do not depend on
the platform's ``long double`` width.  Points are divided by the bandwidth
once, and each coordinate's difference block is the rank-2 product
``[x_I, -1] @ [1; x_J]`` (:func:`_difference_operands`), a third of the cost
of numpy's broadcast subtraction.  Both terms of an entry multiply by +-1 and
are exact, so the entry is the one correctly rounded x_i - x_j whatever the
BLAS kernel, its FMA use or its thread count: bit-equal to
``np.subtract.outer``, except that (-0) - (+0) gives +0, which the squaring
that follows cannot tell from -0.

The median rule's pairwise distances come from ``scipy.spatial``, which is
imported on the rule's first use: importing this module loads numpy alone.

A Gram matrix is the one n x n array a test holds.  :func:`gram_matrix`
builds it in strips of ``_TILE`` rows, so its build temporaries are one strip
wide, and before it allocates the matrix it checks the bytes against every
memory limit the process can see (physical memory, the cgroup's memory limit,
``RLIMIT_AS``), raising :class:`~hsicreg.errors.MemoryLimitError`
instead of letting the operating system kill the run.
"""
from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateDataError, MemoryLimitError

#: The bandwidth of a :class:`KernelSpec` that the median pairwise distance rule resolves.
MEDIAN = "median"

#: Rows per strip of a Gram build, and the side of the square tiles
#: :func:`hsicreg.hsic._tiled_stat` works in.  Two 128 x 128 float64 tiles
#: take 256 KiB, well inside a core's L2 cache; the sweep that chose it is
#: recorded in CHANGES.md.
_TILE = 128


@dataclass(frozen=True)
class KernelSpec:
    """A Gaussian kernel with a fixed bandwidth or the median-distance rule.

    ``bandwidth`` is a positive finite number, stored as a ``float``, or
    ``MEDIAN``.  A median bandwidth is resolved from the data at hand (the
    median of the pairwise distances, see :func:`resolve_bandwidth`) before
    any Gram matrix is formed.  Anything else, a bool or another string
    among them, raises ``ValueError``.
    """

    bandwidth: float | str = 1.0

    def __post_init__(self) -> None:
        bw = self.bandwidth
        if isinstance(bw, str) and bw == MEDIAN:
            return
        if isinstance(bw, bool) or not isinstance(bw, numbers.Real) or not 0.0 < float(bw) < math.inf:
            raise ValueError(f"bandwidth must be a positive finite number or {MEDIAN!r}, got {bw!r}")
        object.__setattr__(self, "bandwidth", float(bw))


def study_kernels(dim: int) -> tuple[KernelSpec, KernelSpec]:
    """Fixed (predictor, residual) kernels for data with ``dim`` predictors.

    Bandwidths are 2*sqrt(dim) and sqrt(2), applied after standardization.
    They are the defaults of the Monte Carlo harness and of every CLI
    subcommand; ``KernelSpec()`` itself stays at bandwidth 1.0.

    Standardized predictor pairs sit at squared distance ~ 2*dim on average,
    so a bandwidth of order sqrt(dim) is the smallest choice that keeps the
    predictor Gram matrix away from the near-identity regime in which the
    statistic loses nearly all discriminating power.  The factor 2 was
    calibrated so the harness reproduces the reference rejection rates at n
    in the low hundreds.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return KernelSpec(2.0 * math.sqrt(dim)), KernelSpec(math.sqrt(2.0))


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

    The n(n-1)/2 distances and the copy ``np.median`` sorts take 8n(n-1)
    bytes, within the Gram bound, so :func:`_check_gram_fits` runs first.
    """
    pts = as_points(points)
    if pts.shape[0] < 2:
        raise DegenerateDataError("median heuristic needs at least two points")
    _check_gram_fits(pts.shape[0])
    # Imported here, not at the top: scipy.spatial is slow to import, and only the median rule needs it.
    from scipy.spatial.distance import pdist

    dists = pdist(pts, metric="euclidean")
    med = float(np.median(dists))
    if med <= 0.0:
        raise DegenerateDataError(
            "median pairwise distance is zero (all or most points identical); "
            "cannot derive a bandwidth"
        )
    return med


def resolve_bandwidth(spec: KernelSpec, points) -> KernelSpec:
    """``spec`` with a numeric bandwidth: a median spec resolved on ``points``, any other spec as is."""
    if spec.bandwidth == MEDIAN:
        return KernelSpec(median_heuristic(points))
    return spec


def gram_matrix(points, spec: KernelSpec) -> np.ndarray:
    """The n x n Gram matrix of ``points`` under ``spec``, built by :func:`_gram_tile` in
    strips of ``_TILE`` rows, so a build temporary (p > 1) is one ``_TILE`` x n strip.

    The result is exactly symmetric with an exact unit diagonal, and bit-equal
    to ``exp(-squareform(pdist(points / bandwidth, "sqeuclidean")))``.  Before
    the matrix is allocated, its bytes are checked against the process's
    memory limit (see :func:`_check_gram_fits`).
    """
    pts = as_points(points)
    n = pts.shape[0]
    bandwidth = resolve_bandwidth(spec, pts).bandwidth
    _check_gram_fits(n)
    left, right = _difference_operands(pts / bandwidth)
    K = np.empty((n, n))
    for top in range(0, n, _TILE):
        strip = slice(top, top + _TILE)
        _gram_tile(left[:, strip], right, K[strip])
    return K


@lru_cache(maxsize=None)
def _memory_limits() -> tuple[tuple[int, str], ...]:
    """Every memory limit this process can see, in bytes, with its source, smallest first.
    Read once per process: every later call returns the cached tuple.

    The sources are physical memory (``os.sysconf``), the memory limit of the process's own
    cgroup (v2 ``memory.max``, or v1 ``memory.limit_in_bytes`` of the ``memory`` controller's
    hierarchy), and a finite ``RLIMIT_AS``; a source that cannot be read is skipped.
    """
    from contextlib import suppress  # already loaded: the function runs once per process
    limits, groups = [], []
    with suppress(AttributeError, ValueError, OSError):
        limits.append((os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"), "physical memory"))
    with suppress(OSError), open("/proc/self/cgroup") as f:  # "<id>:<controllers>:<group>"; v2's is "0::<group>"
        groups = [line.rstrip("\n").split(":", 2)[1:] for line in f if line.count(":") >= 2]
    # v2's one hierarchy is the root; v1 mounts the memory controller's apart, under its own file name.
    paths = [f"/sys/fs/cgroup{group.rstrip('/')}/memory.max" for controllers, group in groups if not controllers]
    paths += [f"/sys/fs/cgroup/memory{group.rstrip('/')}/memory.limit_in_bytes"
              for controllers, group in groups if "memory" in controllers.split(",")]
    for path in paths:
        with suppress(ValueError, OSError), open(path) as f:
            text = f.read().strip()
            if text != "max":
                limits.append((int(text), f"cgroup {path}"))
    with suppress(ImportError, ValueError, OSError):
        import resource  # not on every platform

        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        if soft != resource.RLIM_INFINITY:
            limits.append((soft, "RLIMIT_AS"))
    return tuple(sorted(limits))


def _check_gram_fits(n: int, grams: int = 1, processes: int = 1) -> None:
    """Raise :class:`MemoryLimitError` unless ``processes`` processes, each holding ``grams``
    n x n Grams and one build strip (8 * grams * n^2 + 8 * _TILE * n bytes), fit within
    :func:`_memory_limits`: physical memory and the cgroup's memory limit bound them
    together, ``RLIMIT_AS`` each alone.

    The permutation baseline checks its two Grams before it builds either.
    ``power`` and ``contrast`` workers each build their own, so those entries
    check one per worker at the largest n before their pool starts.  Pool
    workers started by ``fork`` share the caller's Grams; under ``spawn`` or
    ``forkserver`` each unpickles its own copy, so ``test`` and the
    permutation baseline check the caller's and one per worker before they build any.
    """
    each = 8 * grams * n * n + 8 * _TILE * n
    for limit, source in _memory_limits():
        held = 1 if source == "RLIMIT_AS" else processes
        needed = held * each
        if needed > limit:
            where = f" in {held} processes" if held > 1 else ""
            raise MemoryLimitError(
                f"{held * grams} n x n Gram matrix(es) at n = {n}{where} need {needed} bytes "
                f"({needed / 2**20:.1f} MiB), more than the {limit} bytes ({limit / 2**20:.1f} MiB) allowed by {source}"
            )


def _difference_operands(scaled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (p, n, 2) stack of [x_j, -1] and the (p, 2, n) stack of [1; x_j] for the
    coordinates x_j of (n, p) points already divided by the bandwidth: the
    product of their slices at rows I and columns J is coordinate j's
    difference block x_Ij - x_Jj.  A caller builds them once, not per tile."""
    left = np.empty((scaled.shape[1], scaled.shape[0], 2))
    left[:, :, 0] = scaled.T
    left[:, :, 1] = -1.0
    right = np.ones((scaled.shape[1], 2, scaled.shape[0]))
    right[:, 1] = scaled.T
    return left, right


def _gram_tile(left: np.ndarray, right: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The Gram block between the rows of ``left`` and the columns of ``right``, slices of
    :func:`_difference_operands` of prescaled points, written into ``out``.

    Squared differences are summed one coordinate at a time, in coordinate
    order, exactly as ``pdist(points, "sqeuclidean")`` sums them, so the bits
    match the pairwise-distance construction, and the tile of rows I and
    columns J is bit-equal to block [I, J] of :func:`gram_matrix`.  With
    p > 1, one temporary the shape of ``out`` is allocated for the
    per-coordinate terms; :func:`gram_matrix` passes strips of ``_TILE``
    rows, so there it is one strip, never n x n.
    """
    np.matmul(left[0], right[0], out=out)
    np.multiply(out, out, out=out)
    term = np.empty_like(out) if len(left) > 1 else None
    for j in range(1, len(left)):
        np.matmul(left[j], right[j], out=term)
        np.multiply(term, term, out=term)
        np.add(out, term, out=out)
    np.negative(out, out=out)
    return np.exp(out, out=out)
