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
# about 3 ms, and the CLI needs none of them
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


# Public methods that nothing in the package reads as an attribute, each
# kept for the reason given.
KEPT_METHODS = {
    "Poly.shift": "perfbench/tracing.py times it as poly.shift, and test_bench_contract.py needs it there",
    "Poly.to_falling": "perfbench/tracing.py times it as poly.to_falling, like Poly.shift",
    "Poly.qscale": "p(qx), the q-dilation beside shift; the Jackson derivative is its difference quotient",
    "Poly.evaluate": "p(x0), the value at a rational point; Poly.__call__ is this method",
    "Poly.from_json": "reads the documented polynomial wire format that to_json writes",
}


def _unused_public_names(package: Path) -> list:
    """The public top-level functions and classes of the package that
    __init__.py does not import and that no code in the package names
    outside their own definition, as "module.name"; then the public
    methods outside KEPT_METHODS that no code in the package reads as an
    attribute outside their own definition, as "module.Class.method".
    References are matched by name alone; an import is not a reference."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(package.glob("*.py"))}
    exported = {
        alias.asname or alias.name
        for node in ast.walk(trees["__init__"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    names, attrs = [], []  # (module, line, name) of each reference
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                attrs.append((module, node.lineno, node.attr))

    def used(refs, module, node):
        return any(
            name == node.name and (m != module or not node.lineno <= line <= node.end_lineno)
            for m, line, name in refs
        )

    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in exported and not used(names + attrs, module, node):
                unused.append("%s.%s" % (module, node.name))
            methods = node.body if isinstance(node, ast.ClassDef) else []
            for item in methods:
                if not isinstance(item, ast.FunctionDef) or item.name.startswith("_"):
                    continue
                method = "%s.%s" % (node.name, item.name)
                if method not in KEPT_METHODS and not used(attrs, module, item):
                    unused.append("%s.%s" % (module, method))
    return unused


def test_every_public_name_is_exported_or_used():
    assert _unused_public_names(SOURCES[0].parent) == []


def test_kept_methods_exist():
    defined = {
        "%s.%s" % (node.name, item.name)
        for path in SOURCES
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef)
    }
    assert sorted(set(KEPT_METHODS) - defined) == []


def test_unused_name_rule_sees_an_unused_function_and_method(tmp_path):
    package = tmp_path / "qdeform"
    shutil.copytree(SOURCES[0].parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    qnum = package / "qnum.py"
    source = qnum.read_text()
    anchor = "    def __repr__(self):\n        return \"QContext(q=%s)\" % self.q\n"
    assert source.count(anchor) == 1
    source = source.replace(anchor, anchor + "\n    def spare_method(self):\n        return self.q\n")
    qnum.write_text(source + "\n\ndef spare_function():\n    return QContext(0)\n")
    assert sorted(_unused_public_names(package)) == ["qnum.QContext.spare_method", "qnum.spare_function"]


# The node kinds that combine other nodes; a function that names them all
# walks an expression's shape, which opcore.built_from alone does.
COMBINING_KINDS = {"Scaled", "OpSum", "OpProd", "IntPow"}


def _shape_walks(package: Path) -> list:
    """"module.function" of each function outside opcore that names every
    one of COMBINING_KINDS."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "opcore":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                if COMBINING_KINDS <= names:
                    found.append("%s.%s" % (path.stem, node.name))
    return found


def test_only_opcore_walks_an_expression_shape():
    assert _shape_walks(SOURCES[0].parent) == []


def test_shape_walk_rule_sees_a_copied_walk(tmp_path):
    package = tmp_path / "qdeform"
    shutil.copytree(SOURCES[0].parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    dsl = package / "dsl.py"
    dsl.write_text(dsl.read_text() + (
        "\n\ndef _built_from(e, leaves):\n"
        "    from .opcore import IntPow, OpProd, OpSum, Scaled\n"
        "    if isinstance(e, (Scaled, OpSum, OpProd, IntPow)):\n"
        "        return all(_built_from(c, leaves) for c in e.children)\n"
        "    return isinstance(e, leaves)\n"
    ))
    assert _shape_walks(package) == ["dsl._built_from"]
