"""The examples in the package's docstrings and in README.md run as tests."""

import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import threebraid

MODULES = ["threebraid"] + [
    f"threebraid.{module.name}"
    for module in pkgutil.iter_modules(threebraid.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_the_examples_are_found():
    attempted = sum(doctest.testmod(importlib.import_module(name)).attempted
                    for name in MODULES)
    assert attempted >= 13


def test_readme_examples():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted and result.failed == 0
