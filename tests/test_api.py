"""The package's public names."""

import dataclasses
import importlib

import pytest

import salpeter_bounds

MODULES = ["bounds", "errors", "potentials", "solver", "specfun"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"salpeter_bounds.{name}")
    for attr in module.__all__:
        assert hasattr(module, attr), f"{name}.{attr}"


def test_package_all_names_resolve():
    assert len(set(salpeter_bounds.__all__)) == len(salpeter_bounds.__all__)
    for attr in salpeter_bounds.__all__:
        assert hasattr(salpeter_bounds, attr), attr


def test_package_all_is_the_module_lists_in_order():
    modules = [importlib.import_module(f"salpeter_bounds.{name}") for name in MODULES]
    assert salpeter_bounds.__all__ == [attr for module in modules for attr in module.__all__]


# public names, fields and knobs that no program path used
@pytest.mark.parametrize("owner, attr", [
    ("specfun", "YoungExponents"),
    ("potentials", "evaluate_truncated"),
    ("potentials", "evaluate_shifted"),
    ("potentials", "TruncatedPotential"),
    ("PotentialModel", "interp"),
    ("CriticalCouplingResult", "tolerance"),
    ("SpectrumResult", "converged"),
    ("errors", "BracketError"),
    ("solver", "sine_momenta"),
    ("solver", "kinetic_diagonal"),
    ("solver", "apply_kinetic_3d"),
])
def test_deleted_names_stay_gone(owner, attr):
    owner = getattr(salpeter_bounds, owner)
    # a dataclass field without a default is not a class attribute
    if dataclasses.is_dataclass(owner):
        assert attr not in {f.name for f in dataclasses.fields(owner)}
    assert not hasattr(owner, attr)
    assert attr not in salpeter_bounds.__all__
