"""pyproject.toml declares requires-python >= 3.10, so every module of
the package must parse under the 3.10 grammar, whatever runs the tests;
and each public name is exported once, by the module that defines it."""

import ast
from pathlib import Path

import pytest

import prodex
from prodex import congruences, errors, ghost, products, series

SOURCES = sorted(Path(prodex.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, 10))


def test_each_public_name_is_exported_once_by_its_defining_module():
    layers = (series, products, ghost, congruences, errors)
    assert prodex.__all__ == [name for layer in layers for name in layer.__all__]
    assert len(set(prodex.__all__)) == len(prodex.__all__) == 33
    for layer in layers:
        for name in layer.__all__:
            assert getattr(layer, name).__module__ == layer.__name__, name
    # a record stays importable from the layers that use it
    assert ghost.GhostSequence is series.GhostSequence
    assert products.ProductExpansion is series.ProductExpansion
