"""No module of the package reaches into another for a ``_``-prefixed name:
what one module shares with another is public, so a private name stays a
change to its own module."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "blackstart"


def private_imports(path: Path) -> list[str]:
    """Each ``_``-prefixed name that ``path`` imports from a package module,
    or reads as an attribute of a package module it imported, as
    ``file:line name``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    modules = set()  # local names bound to package modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "blackstart"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append((node.lineno, alias.name))
                elif not node.module or node.module == "blackstart":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "blackstart":
                    found += [(node.lineno, part) for part in alias.name.split(".")
                              if part.startswith("_")]
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__") and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append((node.lineno, node.attr))
    return [f"{path.name}:{line} {name}" for line, name in sorted(found)]


def test_no_module_imports_a_private_name_from_another():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    assert [found for path in modules for found in private_imports(path)] == []


def test_the_check_finds_each_kind_of_import(tmp_path):
    module = tmp_path / "reader.py"
    module.write_text("from .enumeration import _sources, greedy_schedule\n"
                      "from blackstart.milp import _rows\n"
                      "from . import analysis\n"
                      "import blackstart._private\n"
                      "x = analysis._table(analysis.public, other._name)\n"
                      "from numpy import _private_numpy\n"
                      "from __future__ import annotations\n")
    assert private_imports(module) == ["reader.py:1 _sources", "reader.py:2 _rows",
                                       "reader.py:4 _private", "reader.py:5 _table"]
