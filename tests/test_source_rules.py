"""Rules the library source keeps, checked on its syntax tree (and, for
the modules the CLI loads, in a fresh interpreter)."""

import ast
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "qdeform").glob("*.py"))


def test_sources_found():
    assert any(p.name == "maps.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # assert is stripped under python -O, so it is never a runtime gate
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], "%s has assert statements on lines %s" % (path.name, lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    # a module's underscore names are its own; another module asks it through
    # a public name instead
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        (node.lineno, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("qdeform"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == [], "%s imports private names %s" % (path.name, private)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclasses_or_typing_imports(path):
    # both cost start-up time on every CLI call (dataclasses pulls in
    # inspect, ast, dis and tokenize); values subclass qnum.Record instead,
    # and annotations stay strings under `from __future__ import annotations`
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = [
        (node.lineno, name)
        for node in ast.walk(tree)
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module or ""] if isinstance(node, ast.ImportFrom) else []
        )
        if name.split(".")[0] in ("dataclasses", "typing")
    ]
    assert modules == [], "%s imports %s" % (path.name, modules)


def _foreign_imports(source: str) -> list:
    """(line, module) of each import in source that names neither a
    standard-library module nor qdeform; a relative import is qdeform's."""
    tree = ast.parse(source)
    return [
        (node.lineno, name)
        for node in ast.walk(tree)
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) and not node.level else []
        )
        if name.split(".")[0] not in sys.stdlib_module_names | {"qdeform"}
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_runtime_dependencies(path):
    # the library runs on the standard library alone
    foreign = _foreign_imports(path.read_text())
    assert foreign == [], "%s imports %s" % (path.name, foreign)


def test_runtime_dependency_rule_sees_a_foreign_import():
    source = "import math\nfrom . import poly\nfrom qdeform.qnum import QContext\n"
    assert _foreign_imports(source) == []
    assert _foreign_imports(source + "import numpy as np\n") == [(4, "numpy")]
    assert _foreign_imports("def f():\n    from numpy.linalg import solve\n") == [(2, "numpy.linalg")]


# modules that cost start-up time on every CLI call; pickle alone takes
# about 3 ms, and verify's worker processes need none of the last four
HEAVY_MODULES = (
    "dataclasses", "inspect", "typing", "pickle", "multiprocessing", "concurrent", "subprocess",
)


def _heavy_modules_loaded(src: str) -> list:
    """The HEAVY_MODULES that importing qdeform.cli from src loads in a
    fresh interpreter without site packages."""
    code = (
        "import sys; sys.path.insert(0, %r); import qdeform.cli; "
        "print(' '.join(sorted(set(%r) & set(sys.modules))))" % (src, HEAVY_MODULES)
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_cli_import_leaves_heavy_modules_unloaded():
    assert _heavy_modules_loaded(str(SOURCES[0].parent.parent)) == []


@pytest.mark.parametrize("module", ["pickle", "multiprocessing", "concurrent.futures", "subprocess"])
def test_heavy_module_rule_sees_a_module_level_import(tmp_path, module):
    package = tmp_path / "qdeform"
    shutil.copytree(SOURCES[0].parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    verify = package / "verify.py"
    verify.write_text(verify.read_text() + "\nimport %s\n" % module)
    assert module.split(".")[0] in _heavy_modules_loaded(str(tmp_path))
