"""Every module-level import in the package is used by its module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "regbridge"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def module_imports(tree):
    """Name bound by each top-level import, mapped to its line number."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def unused_imports(source):
    """(line, name) of each top-level import whose name the module never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in module_imports(tree).items()
                  if name not in read)


def test_finds_an_unused_import():
    source = "import math\nimport os as system\nfrom json import dumps, loads\nloads('1')\n"
    assert unused_imports(source) == [(1, "math"), (2, "system"), (3, "dumps")]
    assert unused_imports("import csv\nNAME = 'csv'\n") == [(1, "csv")]


def test_attribute_reads_and_annotations_count_as_use():
    source = ("from __future__ import annotations\nimport numpy.linalg as la\n"
              "import os.path\nfrom typing import Callable\n"
              "def f(g: Callable) -> None:\n    return la.norm, os.path.sep\n")
    assert unused_imports(source) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
