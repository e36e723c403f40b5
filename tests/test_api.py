"""The public surface: each module's __all__ and the package's re-exports agree."""

import types

import pytest

import cutchains
from cutchains import counting, cuts, enumeration, matrices

MODULES = [counting, cuts, enumeration, matrices]


def reexported(module):
    """The names of module.__all__ that the package re-exports: all but constants."""
    return {name for name in module.__all__ if not name.isupper()}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_exist(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_package_reexports_module_names(module):
    for name in reexported(module):
        assert getattr(cutchains, name, None) is getattr(module, name), name


def test_package_exports_nothing_else():
    public = {
        name
        for name, value in vars(cutchains).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set().union(*map(reexported, MODULES))
