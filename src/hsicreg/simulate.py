"""Data generators and the Monte Carlo size/power harness.

Three built-in models, drawn by :func:`draw_model`:

* ``model1`` — response ``2 + 5*x1 - x2 + a*x1*x2`` plus noise, four
  predictors i.i.d. uniform on (0,1); ``a`` scales an interaction the working
  linear fit omits.
* ``model2`` — response ``x1 + a*x2^2 + 2*x4`` plus noise; (x1, x2, x3) are
  equicorrelated standard normals (correlation 0.5, drawn through the explicit
  3x3 Cholesky factor) and x4 is Bernoulli(0.4); ``a`` scales the omitted
  quadratic.
* ``linear1d`` — response ``1 + x1`` plus noise with a single standard-normal
  predictor; the well-specified setting used to contrast residual-based and
  error-based null statistics.

The noise is conditionally normal given x1 with variance
``noise_sd^2 * (10 + lam*|x1|)/10``, so ``lam = 0`` gives homoscedastic noise
with standard deviation ``noise_sd``, and ``lam`` strengthens a dependence of
scale on x1 that the mean model cannot absorb.  A :class:`ModelSpec` without
``noise_sd`` takes its model's default from :data:`_MODELS`: sqrt(0.1) for
``linear1d``, else 1.

The working (possibly misspecified) fit used by the harness for model1/model2
is the main-effects design {1, x1, x2, x3, x4}; lack of fit exists exactly
when ``a != 0``, error/predictor dependence exactly when ``lam != 0``.

The harness's kernels are :func:`hsicreg.kernels.study_kernels`, fixed
bandwidths on standardized data; their rationale is in its docstring.

Both Monte Carlo drivers take :class:`ModelSpec` cells and key every draw
by seed: :func:`power_study` (rejection rates) and
:func:`null_distribution_contrast` (the null statistic from residuals vs.
from the true errors).  The contrast compares its two arms with
``scipy.stats.ks_2samp``, imported on the contrast's first call, so the
power harness never loads ``scipy.stats``.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from ._rng import check_integer, derive_seed, substream
from .bootstrap import BootstrapConfig, _curtailed_reject, _pool_size, check_alpha, parallel_map
from .errors import BootstrapAbortError, DegenerateDataError, SingularDesignError
from .hsic import _residual_stat, prepare_stat
from .kernels import KernelSpec, _check_gram_fits, study_kernels
from .linreg import Dataset, DesignSpec

MODEL1 = "model1"
MODEL2 = "model2"
LINEAR1D = "linear1d"

#: Reference rejection percentages (alpha = 0.05, n = 100) of the
#: residual-dependence statistic implemented here, for the lack-of-fit sweep
#: over ``a``, for rough comparison when reading harness output.
REFERENCE_REJECTION_PERCENT = {
    MODEL1: {
        "a": (0, 1, 2, 3, 4, 5, 7, 10),
        "kernel": (4, 6, 11, 20, 34, 57, 89, 100),
    },
    MODEL2: {
        "a": (0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.50, 0.60),
        "kernel": (6, 7, 10, 14, 22, 31, 43, 57, 69, 81, 92),
    },
}


@dataclass(frozen=True)
class ModelSpec:
    """One simulation cell: which generator, at what size, with which knobs."""

    model: str
    n: int
    a: float = 0.0
    lam: float = 0.0
    noise_sd: float | None = None  # None takes the model's default

    def __post_init__(self) -> None:
        if self.model not in _MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.noise_sd is None:
            object.__setattr__(self, "noise_sd", _MODELS[self.model][1])
        object.__setattr__(self, "n", check_integer("n", self.n, 1))
        for knob in ("a", "lam", "noise_sd"):
            value = getattr(self, knob)
            if not math.isfinite(value):
                raise ValueError(f"{knob} must be finite, got {value}")
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if not self.noise_sd > 0:
            raise ValueError(f"noise_sd must be > 0, got {self.noise_sd}")

    @property
    def dim(self) -> int:
        """Predictor dimension of the model."""
        return _MODELS[self.model][0]


@dataclass(frozen=True)
class SimulatedData:
    """A drawn dataset together with the true noise vector behind it."""

    data: Dataset
    errors: np.ndarray


def _noise(spec: ModelSpec, x1: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    sd = spec.noise_sd * np.sqrt((10.0 + spec.lam * np.abs(x1)) / 10.0)
    return sd * rng.standard_normal(x1.shape[0])


def _model1(spec: ModelSpec, rng: np.random.Generator) -> SimulatedData:
    """Uniform predictors; mean 2 + 5*x1 - x2 + a*x1*x2."""
    X = rng.random((spec.n, spec.dim))
    errors = _noise(spec, X[:, 0], rng)
    mean = 2.0 + 5.0 * X[:, 0] - X[:, 1] + spec.a * X[:, 0] * X[:, 1]
    return SimulatedData(Dataset(X, mean + errors), errors)


#: Explicit Cholesky factor of the 3x3 equicorrelation(0.5) matrix.
_EQUICORR_CHOL = np.linalg.cholesky(
    np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]])
)


def _model2(spec: ModelSpec, rng: np.random.Generator) -> SimulatedData:
    """Correlated normal + Bernoulli predictors; mean x1 + a*x2^2 + 2*x4."""
    X123 = rng.standard_normal((spec.n, 3)) @ _EQUICORR_CHOL.T
    x4 = (rng.random(spec.n) < 0.4).astype(float)
    X = np.column_stack([X123, x4])
    errors = _noise(spec, X[:, 0], rng)
    mean = X[:, 0] + spec.a * X[:, 1] ** 2 + 2.0 * x4
    return SimulatedData(Dataset(X, mean + errors), errors)


def _linear1d(spec: ModelSpec, rng: np.random.Generator) -> SimulatedData:
    """Single standard-normal predictor; mean 1 + x1."""
    X = rng.standard_normal((spec.n, 1))
    errors = _noise(spec, X[:, 0], rng)
    mean = 1.0 + X[:, 0]
    return SimulatedData(Dataset(X, mean + errors), errors)


#: Each built-in model's predictor dimension, default noise sd and generator, in the CLI's order.
_MODELS = {
    MODEL1: (4, 1.0, _model1),
    MODEL2: (4, 1.0, _model2),
    LINEAR1D: (1, math.sqrt(0.1), _linear1d),
}


def draw_model(spec: ModelSpec, rng: np.random.Generator) -> SimulatedData:
    """One draw of ``spec`` from its built-in generator."""
    return _MODELS[spec.model][2](spec, rng)


def working_design(spec: ModelSpec) -> DesignSpec:
    """The (misspecified when a != 0) main-effects fit the harness uses."""
    return DesignSpec.main_effects(spec.dim)


@dataclass(frozen=True)
class PowerCell:
    """Monte Carlo rejection summary for one grid cell."""

    model: str
    n: int
    a: float
    lam: float
    reps: int
    rejections: int
    aborts: int
    rate: float
    se: float


@dataclass(frozen=True)
class PowerTable:
    """All cells of a size/power study, in grid order."""

    cells: tuple[PowerCell, ...]
    alpha: float
    replicates: int
    seed: int


def _power_trial(
    task: tuple[int, int],
    grid: Sequence[ModelSpec],
    alpha: float,
    config: BootstrapConfig,
) -> tuple[bool, bool]:
    """(rejected?, aborted?) for one Monte Carlo trial."""
    cell, trial = task
    spec = grid[cell]
    sim = draw_model(spec, substream(config.seed, cell, trial, 0))
    try:
        reject = _curtailed_reject(sim.data, working_design(spec), *study_kernels(spec.dim), config.replicates,
                                   derive_seed(config.seed, cell, trial, 1), alpha)
    except (BootstrapAbortError, DegenerateDataError, SingularDesignError):
        return False, True
    return reject, False


def power_study(
    grid: Sequence[ModelSpec],
    alpha: float,
    config: BootstrapConfig,
    reps: int,
) -> PowerTable:
    """Rejection rates over the grid, ``reps`` independent trials per cell.

    Every trial draws its data and its bootstrap seed from streams keyed by
    (seed, cell, trial), so the table is identical no matter how trials are
    scheduled across workers (``config.workers`` parallelizes trials; each
    trial's bootstrap runs serially).  A trial draws its replicates in order
    and stops once its decision is settled: as soon as the draws at or above
    the observed statistic push the add-one p-value above ``alpha``, it
    accepts, and as soon as the p-value would stay at or below ``alpha`` even
    if every draw left exceeded, it rejects.  Each replicate is the
    one ``run_test`` would draw, so every decision is ``run_test``'s.  A
    trial counts as aborted if its draw cannot be tested (a zero-variance
    column that cannot be standardized, or a singular working fit), or if a
    twice-singular refit comes before its decision is settled; aborted
    trials are counted per cell, surfaced in the table, and excluded from
    the rate's denominator.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("empty simulation grid")
    reps = check_integer("reps", reps, 1)
    check_alpha(alpha)
    tasks = [(c, t) for c in range(len(grid)) for t in range(reps)]
    # Every worker builds its own Gram, so the pool's are counted before it starts.
    _check_gram_fits(max(spec.n for spec in grid), processes=_pool_size(config.workers, len(tasks)))
    runner = partial(_power_trial, grid=grid, alpha=alpha, config=config)
    # Tasks are cell-major and parallel_map keeps their order, so cell c's trials are one slice.
    outcomes = parallel_map(runner, tasks, config.workers)
    cells = []
    for c, spec in enumerate(grid):
        mine = outcomes[c * reps:(c + 1) * reps]
        aborts = sum(1 for _, ab in mine if ab)
        done = len(mine) - aborts
        rejections = sum(1 for rej, ab in mine if rej and not ab)
        rate = rejections / done if done else float("nan")
        se = float(np.sqrt(rate * (1.0 - rate) / done)) if done else float("nan")
        cells.append(
            PowerCell(
                model=spec.model,
                n=spec.n,
                a=float(spec.a),
                lam=float(spec.lam),
                reps=reps,
                rejections=rejections,
                aborts=aborts,
                rate=rate,
                se=se,
            )
        )
    return PowerTable(tuple(cells), float(alpha), config.replicates, config.seed)


#: Below this many replications per arm the contrast's KS comparison is flagged.
_CONTRAST_MIN_REPS = 25


@dataclass(frozen=True)
class ContrastResult:
    """Null-scale statistics computed from residuals vs. from the true errors."""

    residual_stats: np.ndarray
    error_stats: np.ndarray
    ks_distance: float
    ks_pvalue: float
    n: int
    reps: int
    undersampled: bool


def _contrast_rep(
    spec: ModelSpec,
    kernel_x: KernelSpec,
    kernel_e: KernelSpec,
    seed: int,
    standardize: bool,
    both_arms_use_errors: bool,
    replication: int,
) -> tuple[float, float]:
    """(residual arm, error arm) scaled statistics for one contrast replication."""
    sim = draw_model(spec, substream(seed, replication))
    prep = prepare_stat(sim.data, working_design(spec), kernel_x, kernel_e, standardize)
    n = prep.observed.n
    err_arm = _residual_stat(prep.gram_x, np.arange(n), sim.errors / prep.response_sd, prep.kernel_e.bandwidth).scaled
    return (err_arm if both_arms_use_errors else prep.observed.scaled), err_arm


def null_distribution_contrast(
    spec: ModelSpec,
    kernel_x: KernelSpec,
    kernel_e: KernelSpec,
    reps: int,
    seed: int = 0,
    workers: int = 1,
    standardize: bool = True,
    both_arms_use_errors: bool = False,
) -> ContrastResult:
    """Compare the scaled statistic computed from residuals with the one from true errors.

    Replication r draws ``spec`` from the stream keyed by (seed, r) and fits
    :func:`working_design`.  Per replication both arms share the same draw
    and the same predictor Gram matrix; when standardizing, the error arm is
    scaled by the response's sample sd so both arms live in the same units.
    With ``both_arms_use_errors`` the residual arm is replaced by the error
    arm — the distributions then coincide by construction (a self-check).
    Replications run on ``workers`` processes (0 = one per usable CPU) without
    changing the result.
    """
    reps, seed = check_integer("reps", reps, 1), check_integer("seed", seed)
    if spec.n < 3:
        raise ValueError(f"n must be >= 3, got {spec.n}")
    _check_gram_fits(spec.n, processes=_pool_size(workers, reps))  # one Gram per worker
    # Imported here, not at the top: scipy.stats is slow to import, and only the contrast needs it.
    from scipy.stats import ks_2samp

    rep = partial(_contrast_rep, spec, kernel_x, kernel_e, seed, standardize, both_arms_use_errors)
    arms = np.asarray(parallel_map(rep, range(reps), workers), dtype=float)
    resid_stats, error_stats = arms.T
    ks = ks_2samp(resid_stats, error_stats, method="asymp")
    undersampled = reps < _CONTRAST_MIN_REPS
    if undersampled:
        warnings.warn(
            f"contrast ran with only {reps} replications per arm; "
            f"the KS comparison is unreliable below {_CONTRAST_MIN_REPS}",
            stacklevel=2,
        )
    return ContrastResult(
        residual_stats=resid_stats,
        error_stats=error_stats,
        ks_distance=float(ks.statistic),
        ks_pvalue=float(ks.pvalue),
        n=spec.n,
        reps=reps,
        undersampled=undersampled,
    )


def monotonicity_report(table: PowerTable) -> list["MonotonicityFlag"]:
    """Flag adjacent grid cells where power *drops* by more than two combined SEs.

    Cells are grouped into one-parameter slices (varying ``lam`` with ``a``
    held fixed, and varying ``a`` with ``lam`` held fixed, per model and n);
    within a slice sorted by the varying parameter, a decrease larger than
    twice the combined Monte Carlo standard error of the two cells is
    reported.  An empty list means the table is monotone up to noise.
    """
    flags: list[MonotonicityFlag] = []
    for varying, fixed_key in (("lam", lambda c: c.a), ("a", lambda c: c.lam)):
        groups: dict[tuple, list[PowerCell]] = {}
        for cell in table.cells:
            groups.setdefault((cell.model, cell.n, fixed_key(cell)), []).append(cell)
        for cells in groups.values():
            if len(cells) < 2:
                continue
            ordered = sorted(cells, key=lambda c: getattr(c, varying))
            for left, right in zip(ordered, ordered[1:]):
                drop = left.rate - right.rate
                threshold = 2.0 * float(np.hypot(left.se, right.se))
                if drop > threshold:
                    flags.append(
                        MonotonicityFlag(
                            model=left.model,
                            n=left.n,
                            varying=varying,
                            left_value=getattr(left, varying),
                            right_value=getattr(right, varying),
                            drop=float(drop),
                            threshold=float(threshold),
                        )
                    )
    return flags


@dataclass(frozen=True)
class MonotonicityFlag:
    """One adjacent-cell power decrease beyond Monte Carlo noise."""

    model: str
    n: int
    varying: str
    left_value: float
    right_value: float
    drop: float
    threshold: float
