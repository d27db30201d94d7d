"""Static checks on ``src/hinv``: nothing a deletion leaves behind survives,
no default stands in for a constant, and every mutant of ``tests/mutants.py``
still applies.

Each module is parsed with ``ast``, not imported, so the checks take
milliseconds and see the source exactly as written.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hinv"
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
CALLER_DIRS = ("src", "tests", "demos", "perfbench")


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


def defaulted_parameters(tree):
    """(function, parameter, position or None, default) per defaulted parameter.

    The position counts the call's positional arguments, so a method's self is
    not one, and a class's ``__init__`` goes by the class name, as it is called.
    """
    owners = {stmt: node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
              for stmt in node.body if isinstance(stmt, ast.FunctionDef)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        name = owners[node] if node in owners and node.name == "__init__" else node.name
        first = len(positional) - len(args.defaults)
        start = first - (node in owners)  # a call passes no self or cls
        for index, (arg, default) in enumerate(zip(positional[first:], args.defaults), start=start):
            yield name, arg.arg, index, default
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None, default


def overrides(call, parameter, index, default):
    """Whether the call may pass the parameter something other than its default literal."""
    if any(isinstance(arg, ast.Starred) for arg in call.args) or any(kw.arg is None for kw in call.keywords):
        return True  # an unpacked argument might pass anything
    given = [kw.value for kw in call.keywords if kw.arg == parameter]
    if index is not None and index < len(call.args):
        given.append(call.args[index])
    return any(ast.dump(value) != ast.dump(default) for value in given)


def defaults_never_overridden(trees, caller_trees):
    """Defaulted parameters that no call of the same name sets to anything but the default.

    Calls match by bare name (``f(...)`` or ``x.f(...)``), so two functions
    that share a name share their calls: a clash can only hide a finding.
    """
    calls = {}
    for tree in caller_trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    return [f"{name}:{function}({parameter}={ast.unparse(default)})" for name, tree in trees.items()
            for function, parameter, index, default in defaulted_parameters(tree)
            if not any(overrides(call, parameter, index, default) for call in calls.get(function, ()))]


def test_every_default_is_overridden_by_some_caller():
    # a default that every call leaves as it is is a constant: write it as one
    callers = [ast.parse(path.read_text(), filename=str(path))
               for folder in CALLER_DIRS for path in sorted((ROOT / folder).rglob("*.py"))]
    assert defaults_never_overridden(TREES, callers) == []


def test_the_default_check_sees_what_it_looks_for():
    tree = ast.parse("def f(a, b=1, *, c=None):\n    pass\n\n"
                     "class K:\n    def __init__(self, t=2):\n        pass\n\n"
                     "    def m(self, u=3, v=4):\n        pass\n")
    callers = [ast.parse("f(0, 1, c=None)\nK(5)\nk.m(3, v=0)\n")]
    assert defaults_never_overridden({"m.py": tree}, callers) == ["m.py:f(b=1)", "m.py:f(c=None)", "m.py:m(u=3)"]
    callers.append(ast.parse("f(*args)\nm(**options)\n"))
    assert defaults_never_overridden({"m.py": tree}, callers) == []


def test_every_mutant_still_applies_and_names_existing_tests():
    # tests/mutants.py lists one-line faults of src/hinv; an edit that moves an old
    # text or renames a killing test must update the list, or the list would rot
    spec = importlib.util.spec_from_file_location("mutants", Path(__file__).with_name("mutants.py"))
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    entries = list(mutants.MUTANTS) + [mutant for mutant, _ in mutants.EQUIVALENT]
    assert len({m.name for m in entries}) == len(entries)
    for m in entries:
        assert (SRC / m.file).read_text().count(m.old) == 1, m.name
        assert m.old != m.new, m.name
    for m in mutants.MUTANTS:
        assert m.kills, m.name
        for test in m.kills:
            path, name = test.split("::")
            tree = ast.parse((ROOT / path).read_text())
            assert name in {stmt.name for stmt in tree.body if isinstance(stmt, ast.FunctionDef)}, test
