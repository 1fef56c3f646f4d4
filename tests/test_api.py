"""The package's public names, and what importing it costs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hsicreg


def test_every_exported_name_resolves():
    assert len(set(hsicreg.__all__)) == len(hsicreg.__all__)
    for name in hsicreg.__all__:
        assert getattr(hsicreg, name) is not None, name


@pytest.mark.parametrize(
    "name, module",
    [
        ("bootstrap_null_draws", "bootstrap"),  # use run_test(...).null_draws
        ("gaussian_kernel", "kernels"),  # the pointwise oracle lives in tests/test_kernels.py
        ("build_design", "linreg"),  # use linreg.evaluate_design(data.predictors, spec)
        ("hsic_pairs_stat", "hsic"),  # use hsic_vstat on the two Gram matrices
        ("custom", "linreg"),  # no replacement: a design term is a product of predictor coordinates
        ("CUSTOM", "simulate"),  # no replacement: a ModelSpec names a built-in model
    ],
)
def test_removed_names_are_gone(name, module):
    assert name not in hsicreg.__all__
    assert not hasattr(hsicreg, name)
    assert not hasattr(getattr(hsicreg, module), name)


@pytest.mark.parametrize("name", ["null_distribution_contrast", "ContrastResult"])
def test_contrast_lives_beside_power_study(name):
    assert not hasattr(hsicreg.bootstrap, name)
    assert getattr(hsicreg, name) is getattr(hsicreg.simulate, name)


#: Imports hsicreg, then runs a test whose bootstrap redraws a singular
#: replicate, one power cell, and ``hsicreg power``; argv[1] is the artifact path.
_HOT_PATHS = """
import sys

import hsicreg

assert "scipy" not in sys.modules, "import hsicreg loaded scipy"

import numpy as np
from hsicreg import BootstrapConfig, Dataset, DesignSpec, KernelSpec, ModelSpec, power_study, replicate_indices, run_test
from hsicreg.cli import main

# Resamples without row 0 of the spiky column are singular and get redrawn.
x = np.arange(1.0, 7.0)
spike = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
data = Dataset(np.column_stack([x, spike]), np.array([2.0, 1.0, 3.0, 2.5, 4.0, 3.5]))
B = 9
row0 = lambda seed, b, redraw: 0 in replicate_indices(seed, b, 6, redraw)[0]
seed = next(s for s in range(1000)
            if all(row0(s, b, 0) or row0(s, b, 1) for b in range(B))
            and not all(row0(s, b, 0) for b in range(B)))
run_test(data, DesignSpec.main_effects(2), KernelSpec(), KernelSpec(),
         BootstrapConfig(replicates=B, seed=seed, workers=1), standardize=False)

power_study([ModelSpec("model1", n=30, a=5.0)], 0.05, BootstrapConfig(replicates=19), reps=2)
assert main(["power", "--model", "model1", "--n", "30", "--reps", "2", "--B", "19", "--out", sys.argv[1]]) == 0

heavy = sorted({"scipy.stats", "scipy.spatial", "scipy.linalg"} & set(sys.modules))
assert not heavy, f"the test and power paths loaded {heavy}"
"""


def test_import_and_hot_paths_load_no_heavy_scipy_module(tmp_path):
    """scipy is imported only by the median rule, the contrast and a singular
    user fit's message, so a fresh interpreter that imports hsicreg and runs
    tests and power cells never pays for scipy.stats, scipy.spatial or scipy.linalg."""
    src = Path(hsicreg.__file__).resolve().parent.parent
    run = subprocess.run(
        [sys.executable, "-c", _HOT_PATHS, str(tmp_path / "power.json")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
