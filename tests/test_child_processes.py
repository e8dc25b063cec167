"""The solver host is the package's only kind of child process: no module
imports ``concurrent.futures``, and only ``solvers/external.py`` imports
``multiprocessing`` or sets an interval timer (``signal.setitimer``)."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "blackstart"
HOSTS = PACKAGE / "solvers" / "external.py"


def _under(name: str, package: str) -> bool:
    return name == package or name.startswith(f"{package}.")


def process_uses(path: Path) -> list[str]:
    """Each import of ``concurrent.futures`` or ``multiprocessing`` in
    ``path`` and each ``setitimer`` it names, as ``file:line what``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and node.attr == "setitimer":
            names = ["signal.setitimer"]
        else:
            continue
        for what in ("concurrent.futures", "multiprocessing", "signal.setitimer"):
            if any(_under(name, what) for name in names):
                found.append(f"{path.name}:{node.lineno} {what}")
    return sorted(set(found))


def test_only_the_solver_hosts_start_child_processes():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert HOSTS in modules and len(modules) > 10
    uses = [use for path in modules for use in process_uses(path)
            if path != HOSTS or use.endswith("concurrent.futures")]
    assert uses == []
    assert any(use.endswith(" multiprocessing") for use in process_uses(HOSTS))


def test_the_check_finds_each_kind_of_use(tmp_path):
    module = tmp_path / "pool.py"
    module.write_text("import concurrent.futures\nfrom concurrent import futures\n"
                      "import multiprocessing.connection\nfrom multiprocessing import Pipe\n"
                      "import signal\nsignal.setitimer(signal.ITIMER_REAL, 1.0)\n"
                      "from signal import setitimer\nsetitimer = futures = 0\n")
    assert process_uses(module) == [
        "pool.py:1 concurrent.futures", "pool.py:2 concurrent.futures",
        "pool.py:3 multiprocessing", "pool.py:4 multiprocessing",
        "pool.py:6 signal.setitimer", "pool.py:7 signal.setitimer",
    ]
