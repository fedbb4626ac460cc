"""Every import in the package modules is used (``__init__`` re-exports
aside), and so is every module-level private name."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "maxbv"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unused_private_names(source: str):
    """Module-level ``_name`` defs, classes and assignments never loaded in
    the module itself."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(
        (line, name) for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in loaded
    )


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from re import compile as c, sub\n"
        "sub\n"
    )
    assert unused_imports(source) == [(2, "math"), (3, "os"), (4, "c")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_private_names_are_found():
    source = (
        "_USED = 1\n"
        "_UNUSED, public = 2, 3\n"
        "_typed: int = 4\n"
        "__dunder__ = 5\n"
        "def _helper():\n"
        "    _local = _USED\n"
        "    return _local\n"
        "class _Gone:\n"
        "    pass\n"
        "def run():\n"
        "    _Gone = None\n"
        "    return _helper()\n"
    )
    assert unused_private_names(source) == [(2, "_UNUSED"), (3, "_typed"), (8, "_Gone")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []
