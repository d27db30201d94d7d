"""Static checks on ``src/hinv``: nothing a deletion leaves behind survives.

Each module is parsed with ``ast``, not imported, so the checks take
milliseconds and see the source exactly as written.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hinv"
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}


def references(nodes):
    """Every name read, attribute taken or name imported among the given nodes."""
    for node in nodes:
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]


def top_level_imports(tree):
    """The names the module-level import statements bind."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                yield alias.asname or alias.name.split(".")[0]


@pytest.mark.parametrize("name", [name for name in TREES if name != "__init__.py"])
def test_every_top_level_import_is_used(name):
    tree = TREES[name]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [bound for bound in top_level_imports(tree) if bound not in read] == [], name


def unreferenced_private_definitions(trees):
    """Top-level ``_name`` functions and classes that nothing outside their own body names."""
    everywhere = Counter(ref for tree in trees.values() for ref in references(ast.walk(tree)))
    return [f"{name}:{stmt.name}" for name, tree in trees.items() for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and stmt.name.startswith("_") and not stmt.name.startswith("__")
            and everywhere[stmt.name] == Counter(references(ast.walk(stmt)))[stmt.name]]


def test_every_private_top_level_definition_is_referenced():
    assert unreferenced_private_definitions(TREES) == []


def test_the_checks_see_what_they_look_for():
    tree = ast.parse("import os\nfrom x import y as z\n\ndef _f():\n    return _f()\n\n"
                     "def _g():\n    pass\n\nclass _C:\n    def m(self):\n        return _g()\n")
    assert list(top_level_imports(tree)) == ["os", "z"]
    assert unreferenced_private_definitions({"m.py": tree}) == ["m.py:_f", "m.py:_C"]
