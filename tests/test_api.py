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
    ],
)
def test_removed_names_are_gone(name, module):
    assert name not in hsicreg.__all__
    assert not hasattr(hsicreg, name)
    assert not hasattr(getattr(hsicreg, module), name)
