"""Names that other code looks up in flowtopo by string must resolve."""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
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


def test_import_loads_only_the_library_core():
    # `import flowtopo` is most of a process's start-up (scipy.linalg about
    # 0.3 s, numpy 0.15 s, scipy.special 0.06 s); scipy.stats would add about
    # 0.4 s and 40 MB, and the file formats and the CLI load only when used
    script = (
        "import json, sys, flowtopo; "
        "print(json.dumps([[m, hasattr(v, '__path__')] for m, v in list(sys.modules.items())]))"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    loaded = dict(json.loads(out.stdout))
    assert "flowtopo.nullspace" in loaded
    assert [m for m in ("flowtopo.io", "flowtopo.cli") if m in loaded] == []
    scipy_packages = {
        m for m, is_package in loaded.items()
        if is_package and m.count(".") == 1 and m.startswith("scipy.") and not m.startswith("scipy._")
    }
    assert scipy_packages <= {"scipy.linalg", "scipy.special"}
