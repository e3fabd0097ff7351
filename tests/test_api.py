"""The package's public names."""

import importlib

import pytest

import salpeter_bounds

MODULES = ["bounds", "potentials", "solver", "specfun"]  # the ones with an __all__


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"salpeter_bounds.{name}")
    for attr in module.__all__:
        assert hasattr(module, attr), f"{name}.{attr}"


def test_package_all_names_resolve():
    assert len(set(salpeter_bounds.__all__)) == len(salpeter_bounds.__all__)
    for attr in salpeter_bounds.__all__:
        assert hasattr(salpeter_bounds, attr), attr
