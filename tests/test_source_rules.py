"""Rules the library source keeps, checked on its syntax tree."""

import ast
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
