"""The package's public names."""

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
        ("custom", "linreg"),  # no replacement: designs are built from the four column kinds
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
