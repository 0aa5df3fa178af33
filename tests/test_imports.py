"""Every module of the package uses every name it imports (``__init__`` re-exports
exactly what it imports) and every module-level private name it defines, and
the CLI imports no module it does not need."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import branchflow

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "branchflow"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scan_finds_unused_names():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b as c, d\nc(d)\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_privates(source: str) -> list:
    """Module-level private functions, classes and constants the module never
    reads outside their own definition (a recursive call does not count)."""
    tree = ast.parse(source)
    unused = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        own = {id(n) for n in ast.walk(node)}
        for name in names:
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(
                isinstance(n, ast.Name) and n.id == name and id(n) not in own
                for n in ast.walk(tree)
            ):
                unused.append(name)
    return sorted(unused)


def test_scan_finds_unused_privates():
    source = (
        "_USED = 1\n"
        "_DEAD: int = 2\n"
        "__version__ = '1'\n"
        "def _walk(n):\n    return _walk(n - 1) if n else _USED\n"
        "def _helper():\n    pass\n"
        "class _Gone:\n    pass\n"
        "def public():\n    return _helper()\n"
    )
    assert unused_privates(source) == ["_DEAD", "_Gone", "_walk"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_privates(path):
    assert unused_privates(path.read_text(encoding="utf-8")) == []


def test_exact_imports_nothing_from_the_package():
    # the exact-rational kernel is the bottom layer: it reads no other module
    tree = ast.parse((PACKAGE / "exact.py").read_text(encoding="utf-8"))
    assert [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level] == []


def test_package_exports_exactly_what_it_imports():
    # both ways: a name deleted from a module leaves neither list behind
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        a.asname or a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    }
    assert len(set(branchflow.__all__)) == len(branchflow.__all__)
    assert set(branchflow.__all__) == imported


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every cold CLI run pays for its imports; dataclasses alone pulls in inspect,
    # ast, dis and tokenize.  -S keeps site's own imports out of the count.
    code = (
        "import sys\nimport branchflow.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'ast', 'typing'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.split("\n")[0] == "[]"
