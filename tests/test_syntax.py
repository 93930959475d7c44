"""pyproject.toml declares requires-python >= 3.10, so every module of
the package must parse under the 3.10 grammar, whatever runs the tests."""

import ast
from pathlib import Path

import pytest

import prodex

SOURCES = sorted(Path(prodex.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, 10))
