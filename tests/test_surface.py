"""Names that other code looks up in flowtopo by string must resolve."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import flowtopo as ft
from flowtopo import errors

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
PACKAGE = Path(ft.__file__).resolve().parent


def traced_names() -> tuple[str, ...]:
    """``TRACED`` from perfbench's tracer, read from its source."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} assigns no TRACED")


def test_traced_names_resolve():
    # the traced perfbench run swaps each of these for a wrapper by name
    names = traced_names()
    assert names
    missing = []
    for name in names:
        module, attr = name.split(".")
        if not callable(getattr(importlib.import_module(f"flowtopo.{module}"), attr, None)):
            missing.append(name)
    assert missing == []


def test_exports_resolve():
    assert [name for name in ft.__all__ if not hasattr(ft, name)] == []


def test_every_error_class_is_used():
    # a class that only the hierarchy, the exports and the exit-code map
    # name is one that nothing raises
    sources = "\n".join(
        path.read_text(encoding="utf-8")
        for path in PACKAGE.glob("*.py")
        if path.name not in ("errors.py", "__init__.py", "cli.py")
    )
    classes = [
        name for name, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, ft.FlowtopoError)
    ]
    assert classes
    assert [name for name in classes if not re.search(rf"\b{name}\b", sources)] == []


def test_every_export_is_used():
    # an export that no module, no perfbench file and no acceptance
    # criterion names is one that no path runs
    paths = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    paths.append(ROOT / "tests" / "test_acceptance.py")
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert [name for name in ft.__all__ if name not in used] == []
