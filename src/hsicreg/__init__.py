"""Kernel-based independence testing for regression errors and predictors.

The headline object is a scaled HSIC statistic between raw predictor rows and
least-squares residuals, calibrated by a product-measure residual bootstrap.
It is simultaneously an independence test (errors vs. predictors) and a
lack-of-fit test for the linear model, and comes with a Monte Carlo harness
for size/power studies plus a small CLI (``hsicreg test|simulate|power|contrast``).
"""

from .bootstrap import (
    BootstrapConfig,
    TestResult,
    permutation_pvalue,
    pvalue_from_draws,
    replicate_indices,
    run_test,
)
from .errors import BootstrapAbortError, DegenerateDataError, MemoryLimitError, SingularDesignError
from .hsic import HsicValue, hsic_sums, hsic_vstat
from .kernels import (
    KernelSpec,
    gram_matrix,
    median_heuristic,
    resolve_bandwidth,
    study_kernels,
)
from .linreg import (
    BasisTerm,
    Dataset,
    DesignSpec,
    FittedModel,
    fit_ols,
    standardize,
)
from .simulate import (
    ContrastResult,
    ModelSpec,
    MonotonicityFlag,
    PowerCell,
    PowerTable,
    SimulatedData,
    draw_model,
    monotonicity_report,
    null_distribution_contrast,
    power_study,
    working_design,
)

__version__ = "0.1.0"

__all__ = [
    "BasisTerm",
    "BootstrapAbortError",
    "BootstrapConfig",
    "ContrastResult",
    "Dataset",
    "DegenerateDataError",
    "DesignSpec",
    "FittedModel",
    "HsicValue",
    "KernelSpec",
    "MemoryLimitError",
    "ModelSpec",
    "MonotonicityFlag",
    "PowerCell",
    "PowerTable",
    "SimulatedData",
    "SingularDesignError",
    "TestResult",
    "draw_model",
    "fit_ols",
    "gram_matrix",
    "hsic_sums",
    "hsic_vstat",
    "median_heuristic",
    "monotonicity_report",
    "null_distribution_contrast",
    "permutation_pvalue",
    "power_study",
    "pvalue_from_draws",
    "replicate_indices",
    "resolve_bandwidth",
    "run_test",
    "standardize",
    "study_kernels",
    "working_design",
]
