"""Every function, method and class the package defines is named somewhere in it,
and every name a module imports is named in that module."""

import ast
from pathlib import Path

import onlinefair

PACKAGE = Path(onlinefair.__file__).parent


def _registered_suite(node) -> bool:
    """Whether ``node`` is decorated ``@_suite(...)``: ``verify`` runs it by name."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_suite"
               for d in node.decorator_list)


def unreferenced_definitions(package: Path = PACKAGE) -> list[str]:
    """``file:line name`` for each definition no ``ast.Name`` or ``ast.Attribute``
    in the package mentions, dunders and registered suites aside."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    return [f"{name}:{node.lineno} {node.name}"
            for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in named
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and not _registered_suite(node)]


def unused_imports(package: Path = PACKAGE) -> list[str]:
    """``file:line name`` for each name a module binds by an import and never
    mentions as an ``ast.Name``, ``from __future__`` aside."""
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in named:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def test_no_dead_definitions():
    assert unreferenced_definitions() == []


def test_no_unused_imports():
    assert unused_imports() == []


def test_the_guard_reports_an_unreferenced_method(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class Used:\n"
        "    def __init__(self):\n"
        "        self.kept()\n"
        "    def kept(self):\n"
        "        pass\n"
        "    def weigh(self, values):\n"
        "        pass\n"
        "@_suite('name', 1)\n"
        "def _registered():\n"
        "    pass\n"
        "Used()\n")
    assert unreferenced_definitions(tmp_path) == ["mod.py:6 weigh"]


def test_the_guard_reports_an_unused_import(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as codec\n"
        "from math import gcd, lcm\n"
        "from .core import (\n"
        "    Allocation,\n"
        "    envy_factor,\n"
        ")\n"
        "def f(x: Allocation) -> int:\n"
        "    return gcd(x, os.path.sep) + codec.loads(x)\n")
    assert unused_imports(tmp_path) == ["mod.py:4 lcm", "mod.py:5 envy_factor"]
