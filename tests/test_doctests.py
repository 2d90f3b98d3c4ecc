"""The examples in the module docstrings run and print what they claim."""

import doctest
import importlib
import pkgutil

import pytest

import gaussmin

MODULES = sorted(m.name for m in pkgutil.iter_modules(gaussmin.__path__, "gaussmin."))


@pytest.mark.parametrize("name", ["gaussmin"] + MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"
