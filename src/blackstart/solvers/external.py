"""Solve a model with HiGHS in a forked worker, or with a configured solver command.

By default (no command given and BLACKSTART_SOLVER_CMD unset) the bundled
HiGHS front end, ``highs_cli.solve_model``, runs on the model's arrays in a
child forked from this process (POSIX ``fork``): no files, no second
interpreter, and scipy is imported only in the child. As with any ``fork``,
the calling process should not be running other threads while it solves.

A configured command is a template containing ``{mps}`` and ``{sol}``
placeholders; the model goes out as an MPS file and the solution comes back
as a document of whitespace-separated ``name value`` lines, where ``#``
starts a comment, unknown names and non-finite values are an error,
missing variables default to 0, and a single ``=infeasible=`` line marks
a proven-infeasible model.

Either way the values are never trusted: they are decoded, re-simulated
and validated in this process before a schedule is reported.
"""

from __future__ import annotations

import math
import os
import shlex
import subprocess
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
# How long past ``timeout_s`` a forked worker may take (to import scipy and
# to stop HiGHS at its time limit) before it is killed.
WORKER_GRACE_S = 2.0


def resolve_solver_command(command: str | None = None) -> str | None:
    """The configured solver command template, or None for the forked HiGHS worker."""
    return command or os.environ.get(ENV_SOLVER_CMD) or None


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
        if not math.isfinite(assignment[name]):
            raise SolutionFormatError(f"line {lineno}: non-finite value {value!r}")
    for v in model.variables:
        assignment.setdefault(v.name, 0.0)
    return assignment


def solve_external(case: GridCase, command: str | None = None,
                   timeout_s: float = 600.0) -> SolveResult:
    """Encode, solve (forked HiGHS worker or solver command), decode, validate.

    ``stats`` carries ``wall_time_s``, ``stages`` (seconds spent in each
    stage reached: encode, solver, decode, validate, and for a solver
    command also export and import_solution) and ``model`` (vars, int_vars,
    rows, nnz). The forked worker adds ``highs`` (status, message,
    objective, mip_node_count, mip_gap, mip_dual_bound); a solver command
    adds ``solver_command`` and ``returncode``.
    """
    t0 = time.perf_counter()
    stages: dict[str, float] = {}
    stats: dict = {"stages": stages}

    def finish(status: str, **fields) -> SolveResult:
        stats["wall_time_s"] = time.perf_counter() - t0
        return SolveResult(status=status, stats=stats, **fields)

    with _stage(stages, "encode"):
        model = encode(case)
    stats["model"] = model.size()
    template = resolve_solver_command(command)
    try:
        if template is None:
            with _stage(stages, "solver"):
                assignment = _solve_forked(model, timeout_s, stats)
        else:
            assignment = _solve_with_command(model, template, timeout_s, stats)
    except _SolverFailed as exc:
        return finish(ERROR, message=str(exc))

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


class _SolverFailed(Exception):
    """The solver gave no usable answer; the message says why."""


def _solve_forked(model: MilpModel, timeout_s: float, stats: dict) -> dict[str, float] | None:
    """Solve with ``highs_cli.solve_model`` in a forked child.

    Returns the assignment, or None for a proven-infeasible model. The child
    gets the model through ``fork``, not a pipe, and sends back only the
    status, the values and HiGHS's info. It is always joined, so its
    resource usage counts as this process's children's.
    """
    import multiprocessing  # here, not at the top: it costs `import blackstart` ~15 ms

    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    worker = ctx.Process(target=_worker, args=(sender, model, timeout_s),
                         name="blackstart-highs")
    reply = None
    try:
        try:
            worker.start()
        except OSError as exc:
            raise _SolverFailed(f"solver worker did not start: {exc}") from exc
        sender.close()  # so that a dead worker reads as EOF here
        if receiver.poll(timeout_s + WORKER_GRACE_S):
            reply = receiver.recv()
        else:
            worker.kill()
            raise _SolverFailed(f"solver worker timed out after {timeout_s:g} s")
    except EOFError:
        pass  # the worker died before replying; its exit code says why
    finally:
        sender.close()
        receiver.close()
        if worker.pid is not None:
            worker.join(WORKER_GRACE_S)
            if worker.exitcode is None:
                worker.kill()
                worker.join()
    if reply is None or worker.exitcode != 0:
        raise _SolverFailed(f"solver worker exited with code {worker.exitcode}"
                            + (" before replying" if reply is None else ""))

    status, x, info = reply
    stats["highs"] = info
    if status == INFEASIBLE:
        return None
    if status != OPTIMAL:
        raise _SolverFailed(f"no optimum from the solver worker: {info.get('message')}")
    if x is None or len(x) != len(model.variables):
        raise _SolverFailed(f"solver worker returned {'no' if x is None else len(x)} values "
                            f"for {len(model.variables)} variables")
    return {v.name: value for v, value in zip(model.variables, x)}


def _worker(sender, model: MilpModel, timeout_s: float) -> None:
    """Forked child of ``_solve_forked``: solve, send ``(status, x, info)``."""
    try:
        from . import highs_cli

        status, x, info = highs_cli.solve_model(model, time_limit=timeout_s)
        reply = (status, None if x is None else [float(v) for v in x], info)
    except Exception as exc:  # reported by the parent as the solve's cause
        reply = (ERROR, None, {"message": f"{type(exc).__name__}: {exc}"})
    sender.send(reply)


def _solve_with_command(model: MilpModel, template: str, timeout_s: float,
                        stats: dict) -> dict[str, float] | None:
    """Export MPS, run the command, import its solution document.

    Returns the assignment, or None when the document says infeasible.
    """
    stages = stats["stages"]
    with tempfile.TemporaryDirectory(prefix="blackstart-") as tmp:
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
            raise _SolverFailed(f"solver process failed: {exc}") from exc
        stats["returncode"] = proc.returncode
        if proc.returncode != 0:
            raise _SolverFailed(
                f"solver exited {proc.returncode}: {proc.stderr.strip()[:2000]}")
        if not sol_path.exists():
            raise _SolverFailed("solver wrote no solution file")
        try:
            with _stage(stages, "import_solution"):
                return import_solution(model, sol_path.read_text())
        except SolutionFormatError as exc:
            raise _SolverFailed(f"bad solution document: {exc}") from exc


@contextmanager
def _stage(stages: dict[str, float], name: str) -> Iterator[None]:
    """Record the seconds spent in the block under ``stages[name]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        stages[name] = time.perf_counter() - start
