"""The benchmark harness's view of the package still resolves.

`perfbench/worker.py` and `perfbench/make_reference.py` reach the package
as ``rb.<name>`` (``import regbridge as rb``), as ``fixtures.<name>`` and
through ``from regbridge... import`` lines.  The harness is kept fixed
across changes, so a name that moves must stay reachable the same way.
"""

import ast
import importlib
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parent.parent / "perfbench"
SCRIPTS = ("worker.py", "make_reference.py")


def harness_names(source: str) -> set[tuple[str, str]]:
    """(module, name) of each package name the source reads or imports."""
    roots = {"rb": "regbridge", "fixtures": "regbridge.fixtures"}
    found = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in roots):
            found.add((roots[node.value.id], node.attr))
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "regbridge"):
            found.update((node.module, alias.name) for alias in node.names)
    return found


def test_collects_attribute_reads_and_imports():
    source = ("import regbridge as rb\nfrom regbridge import fixtures\n"
              "from regbridge.cli import TestReport\n"
              "rb.sample_h0(fixtures.get_model('x'), 5, 0)\nother.attr\n")
    assert harness_names(source) == {
        ("regbridge", "fixtures"), ("regbridge.cli", "TestReport"),
        ("regbridge", "sample_h0"), ("regbridge.fixtures", "get_model")}


@pytest.mark.parametrize("script", SCRIPTS)
def test_every_harness_name_resolves(script):
    names = harness_names((HARNESS / script).read_text(encoding="utf-8"))
    assert any(module == "regbridge" for module, _ in names)
    for module, name in sorted(names | {("regbridge.cli", "TestReport")}):
        assert getattr(importlib.import_module(module), name) is not None, (
            f"{module}.{name}")
