"""The benchmark harness's view of the package still resolves.

`perfbench/worker.py` and `perfbench/make_reference.py` reach the package
as ``rb.<name>`` (``import regbridge as rb``), as ``fixtures.<name>`` and
through ``from regbridge... import`` lines.  The harness is kept fixed
across changes, so a name that moves must stay reachable the same way,
and each of its calls must still bind to the callee's signature: a
renamed or dropped parameter fails here, not in a benchmark run.
"""

import ast
import importlib
import inspect
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


def harness_calls(source: str) -> list[tuple[str, str, int, tuple, bool]]:
    """(module, name, positional count, keyword names, starred) of each call
    to a package name: ``rb.f(...)``, ``fixtures.f(...)`` or ``f(...)`` for
    an ``f`` imported from the package."""
    tree = ast.parse(source)
    roots = {"rb": "regbridge", "fixtures": "regbridge.fixtures"}
    imported = {alias.asname or alias.name: node.module
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "regbridge"
                for alias in node.names}
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if (isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name)
                and fn.value.id in roots):
            target = (roots[fn.value.id], fn.attr)
        elif isinstance(fn, ast.Name) and fn.id in imported:
            target = (imported[fn.id], fn.id)
        else:
            continue
        starred = (any(isinstance(a, ast.Starred) for a in node.args)
                   or any(k.arg is None for k in node.keywords))
        calls.append((*target, len(node.args),
                      tuple(k.arg for k in node.keywords), starred))
    return calls


def bind_error(module: str, name: str, nargs: int, keywords: tuple):
    """Why a call with this shape does not bind to the callee, or None."""
    target = getattr(importlib.import_module(module), name)
    try:
        inspect.signature(target).bind(*[None] * nargs, **dict.fromkeys(keywords))
    except TypeError as exc:
        return f"{module}.{name}: {exc}"
    return None


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


def test_collects_package_calls():
    source = ("import regbridge as rb\nfrom regbridge import fixtures\n"
              "from regbridge.cli import TestReport\n"
              "rb.sample_h0(fixtures.get_model('x'), 5, seed=0)\n"
              "TestReport(data=1)\nother.f(1)\nrb.Dataset(*rows)\n")
    assert sorted(harness_calls(source)) == [
        ("regbridge", "Dataset", 1, (), True),
        ("regbridge", "sample_h0", 2, ("seed",), False),
        ("regbridge.cli", "TestReport", 0, ("data",), False),
        ("regbridge.fixtures", "get_model", 1, (), False)]


def test_renamed_keyword_does_not_bind():
    assert bind_error("regbridge", "sample_h0", 3, ()) is None
    assert "inner_reps" in bind_error("regbridge", "size_power_study", 6,
                                      ("inner_reps",))
    assert bind_error("regbridge", "verify_bridge_covariance", 7, ()) is not None


@pytest.mark.parametrize("script", SCRIPTS)
def test_every_harness_call_binds(script):
    calls = harness_calls((HARNESS / script).read_text(encoding="utf-8"))
    assert calls
    for module, name, nargs, keywords, starred in calls:
        assert not starred, f"{module}.{name}: *args or **kwargs cannot be checked"
        assert bind_error(module, name, nargs, keywords) is None
