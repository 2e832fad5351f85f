"""The examples in catcw's docstrings run and hold."""

import doctest
import importlib
import pkgutil

import pytest

import catcw

MODULES = sorted(
    ["catcw"] + [f"catcw.{m.name}" for m in pkgutil.iter_modules(catcw.__path__)]
)


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"
