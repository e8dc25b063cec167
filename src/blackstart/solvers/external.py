"""Solve a model through an external MILP solver exchanged via files.

The solver is a command template containing ``{mps}`` and ``{sol}``
placeholders, configured explicitly, via the BLACKSTART_SOLVER_CMD
environment variable, or defaulting to the bundled HiGHS front end run as
a child process. The solution document is whitespace-separated
``name value`` lines; ``#`` starts a comment, unknown names are an error,
missing variables default to 0, and a single ``=infeasible=`` line marks
a proven-infeasible model.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import tempfile
import time
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from ..grid import GridCase
from ..milp import DecodeError, MilpModel, decode, encode
from ..mps import write_mps
from ..schedule import Schedule
from ..validate import validate
from .result import ERROR, INFEASIBLE, OPTIMAL, SolveResult

ENV_SOLVER_CMD = "BLACKSTART_SOLVER_CMD"
INFEASIBLE_SENTINEL = "=infeasible="


def default_solver_command() -> str:
    """Bundled out-of-process solver (HiGHS via scipy)."""
    return f"{shlex.quote(sys.executable)} -m blackstart.solvers.highs_cli {{mps}} {{sol}}"


def resolve_solver_command(command: str | None = None) -> str:
    return command or os.environ.get(ENV_SOLVER_CMD) or default_solver_command()


class SolutionFormatError(ValueError):
    pass


def import_solution(model: MilpModel, text: str) -> dict[str, float] | None:
    """Parse a solution document into a complete assignment.

    Returns None when the document carries the infeasibility sentinel.
    """
    assignment: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == INFEASIBLE_SENTINEL:
            return None
        tokens = line.split()
        if len(tokens) != 2:
            raise SolutionFormatError(f"line {lineno}: expected 'name value', got {raw!r}")
        name, value = tokens
        if not model.has_var(name):
            raise SolutionFormatError(f"line {lineno}: unknown variable {name!r}")
        try:
            assignment[name] = float(value)
        except ValueError as exc:
            raise SolutionFormatError(f"line {lineno}: unparseable value {value!r}") from exc
    for v in model.variables:
        assignment.setdefault(v.name, 0.0)
    return assignment


def solve_external(
    case: GridCase,
    command: str | None = None,
    model: MilpModel | None = None,
    timeout_s: float = 600.0,
    workdir: str | Path | None = None,
) -> SolveResult:
    """Encode, export, run the solver command, import, decode, validate.

    ``stats`` carries ``wall_time_s``, ``stages`` (seconds spent in each
    stage reached: encode, export, solver, import_solution, decode,
    validate) and ``model`` (vars, int_vars, rows, nnz).
    """
    t0 = time.perf_counter()
    stages: dict[str, float] = {}
    stats: dict = {"stages": stages}

    def finish(status: str, **fields) -> SolveResult:
        stats["wall_time_s"] = time.perf_counter() - t0
        return SolveResult(status=status, stats=stats, **fields)

    with _stage(stages, "encode"):
        model = model if model is not None else encode(case)
    stats["model"] = model.size()
    template = resolve_solver_command(command)

    with tempfile.TemporaryDirectory(dir=workdir, prefix="blackstart-") as tmp:
        mps_path = Path(tmp) / "model.mps"
        sol_path = Path(tmp) / "model.sol"
        with _stage(stages, "export"):
            write_mps(model, mps_path)
        argv = [
            part.format(mps=str(mps_path), sol=str(sol_path))
            for part in shlex.split(template)
        ]
        stats["solver_command"] = " ".join(argv)
        try:
            with _stage(stages, "solver"):
                proc = subprocess.run(
                    argv, capture_output=True, text=True, timeout=timeout_s,
                )
        except (OSError, subprocess.TimeoutExpired) as exc:
            return finish(ERROR, message=f"solver process failed: {exc}")
        stats["returncode"] = proc.returncode
        if proc.returncode != 0:
            return finish(
                ERROR, message=f"solver exited {proc.returncode}: {proc.stderr.strip()[:2000]}",
            )
        if not sol_path.exists():
            return finish(ERROR, message="solver wrote no solution file")
        try:
            with _stage(stages, "import_solution"):
                assignment = import_solution(model, sol_path.read_text())
        except SolutionFormatError as exc:
            return finish(ERROR, message=f"bad solution document: {exc}")

    if assignment is None:
        return finish(INFEASIBLE)
    try:
        with _stage(stages, "decode"):
            schedule: Schedule = decode(model, assignment, case)
    except DecodeError as exc:
        return finish(ERROR, assignment=assignment,
                      message=f"solution does not decode: {exc}")
    with _stage(stages, "validate"):
        report = validate(case, schedule)
    objective = model.objective_of(assignment)
    if not report.passed:
        return finish(
            ERROR, assignment=assignment, objective=objective,
            schedule=schedule, validation=report,
            message=f"solution fails validation with {len(report.violations)} violation(s)",
        )
    return finish(
        OPTIMAL, assignment=assignment, objective=objective,
        schedule=schedule, validation=report,
    )


@contextmanager
def _stage(stages: dict[str, float], name: str) -> Iterator[None]:
    """Record the seconds spent in the block under ``stages[name]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        stages[name] = time.perf_counter() - start
