"""Inside the package only ``model.py`` reads ``MilpModel.variables`` or
``MilpModel.constraints``, the name-keyed views, so deleting them stays a
change to that one file."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "blackstart"
VIEWS = {"variables", "constraints"}


def view_reads(path: Path) -> list[str]:
    """Each ``.variables``/``.constraints`` attribute read in ``path``, and each
    ``getattr(..., "variables" | "constraints")``, as ``file:line name``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in VIEWS:
            found.append((node.lineno, node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant) and node.args[1].value in VIEWS):
            found.append((node.lineno, node.args[1].value))
    return [f"{path.name}:{line} {name}" for line, name in sorted(found)]


def test_only_model_py_reads_the_model_views():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "model.py" in modules and len(modules) > 10
    reads = [read for path in modules if path != PACKAGE / "model.py"
             for read in view_reads(path)]
    assert reads == []


def test_the_check_finds_each_kind_of_read(tmp_path):
    module = tmp_path / "reader.py"
    module.write_text("n = len(model.variables)\nrows = getattr(model, 'constraints')\n"
                      "variables = constraints = 0\n")
    assert view_reads(module) == ["reader.py:1 variables", "reader.py:2 constraints"]
