"""Solve a model with HiGHS on a forked solver host, or with a configured solver command.

By default (no command given and BLACKSTART_SOLVER_CMD unset) the bundled
HiGHS front end, ``highs_cli.solve_model`` (an exact reduction of the
model, HiGHS with its presolve off, and a postsolve checked against the
full model), runs on a solver host: one long-lived child per process,
forked from it (POSIX ``fork``) at its first default solve. The host imports scipy once and then serves every later
solve of that process; each request is the model as flat arrays
(``MilpModel.arrays()``) over a pipe, so no file is written, no second
interpreter starts, and scipy never enters the calling process.

- A forked child of the owner (a sweep's pool worker, say) never uses its
  parent's host; it forks its own at its first solve.
- A host that dies, outlives ``timeout_s`` or is in use when the caller is
  interrupted is reaped (killed if need be) and the solve fails with the
  cause; the next solve forks a fresh host.
- The host ignores SIGINT, leaving Ctrl-C to its owner. It is a daemon
  process, so multiprocessing's exit handler terminates and reaps it when
  its owner exits, and it exits on its own when its owner dies.

The host serves one request at a time, so a process solves from one
thread. As with any ``fork``, the host starts with only the thread that
forked it, and a lock another thread held at that moment stays held in
the host forever. One such fork is certain: after a sweep, the sweep pool
(``analysis``) keeps its manager thread and its queue-feeder thread
running in the caller, so a later first default solve forks its host
beside them. The host cannot block on their locks. ``_serve`` touches
only its own pipe, ``resource``, ``signal`` and the import of
``highs_cli`` (the import lock is reset in a forked child), never the
pool's queues; and dropping the inherited pool at the fork takes only the
pool's shutdown lock, which an idle pool's threads do not hold (its
manager takes it only while a worker exits or the pool shuts down, its
feeder only on a pickling error). Other threads of the caller's own are
its risk, once per process, at the first default solve.

A configured command is a template containing ``{mps}`` and ``{sol}``
placeholders; the model goes out as an MPS file, unreduced and in the
paper's form, and the solution comes back as a document of
whitespace-separated ``name value`` lines, where ``#`` starts a comment,
unknown names and non-finite values are an error, missing variables
default to 0, and a single ``=infeasible=`` line marks a proven-infeasible
model.

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
# How long past ``timeout_s`` the solver host may take (to import scipy on
# its first solve and to stop HiGHS at its time limit) before it is killed.
WORKER_GRACE_S = 2.0


def resolve_solver_command(command: str | None = None) -> str | None:
    """The configured solver command template, or None for the HiGHS solver host."""
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
    """Encode, solve (HiGHS solver host or solver command), decode, validate.

    ``stats`` carries ``wall_time_s``, ``stages`` (seconds spent in each
    stage reached: encode, solver, decode, validate, and for a solver
    command also export and import_solution) and ``model`` (vars, int_vars,
    rows, nnz). The solver host adds ``highs`` (status, message,
    objective, mip_node_count, mip_gap, mip_dual_bound, and reduce_s,
    time_s, reduced_rows and reduced_cols: the reduction's and HiGHS's
    seconds and the size of the model HiGHS was handed) and ``worker``
    (the host's ``pid`` and its own peak RSS, ``maxrss_mb``); a solver
    command adds ``solver_command`` and ``returncode``.
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
                assignment = _solve_on_host(model, timeout_s, stats)
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


class _SolverHost:
    """A child forked from its owner that imports HiGHS once and serves
    solves over a duplex pipe; ``owner`` is the pid of the process that
    forked it, the only one that may use it."""

    def __init__(self) -> None:
        import multiprocessing  # here, not at the top: it costs `import blackstart` ~15 ms

        ctx = multiprocessing.get_context("fork")
        self.conn, host_end = ctx.Pipe()
        self.owner = os.getpid()
        self.process = ctx.Process(target=_serve, args=(host_end, self.conn),
                                   name="blackstart-highs", daemon=True)
        try:
            self.process.start()
        except OSError:
            self.conn.close()
            raise
        finally:
            host_end.close()

    def stop(self, kill: bool) -> int | None:
        """Close the pipe and reap the host, killing it first if ``kill`` or
        if it is still running ``WORKER_GRACE_S`` later; returns its exit code."""
        self.conn.close()
        if kill:
            self.process.kill()
        self.process.join(WORKER_GRACE_S)
        if self.process.exitcode is None:
            self.process.kill()
            self.process.join()
        return self.process.exitcode


_host: _SolverHost | None = None


def stop_solver_host() -> None:
    """Kill and reap this process's solver host, if it has one; the next
    default solve forks a new one."""
    global _host
    host, _host = _host, None
    if host is not None and host.owner == os.getpid():
        host.stop(kill=True)


def _forget_inherited_host() -> None:
    """In a forked child: the parent's host is not this process's to use.

    Closing the inherited pipe end keeps the parent's death visible to its
    host as EOF. Dropping the host from multiprocessing's child set keeps
    this process's exit handler from terminating the parent's host.
    """
    global _host
    host, _host = _host, None
    if host is not None:
        import multiprocessing.process

        host.conn.close()
        multiprocessing.process._children.discard(host.process)


os.register_at_fork(after_in_child=_forget_inherited_host)


def _solve_on_host(model: MilpModel, timeout_s: float, stats: dict
                   ) -> dict[str, float] | None:
    """Solve with ``highs_cli.solve_model`` on this process's solver host.

    Returns the assignment, or None for a proven-infeasible model. The
    request is ``model.arrays()``; the reply is the status, the values,
    HiGHS's info and the host's peak RSS. A host that times out, or any
    exception while it is in use, kills it; a host that died is reaped and
    its exit code reported. Either way the next solve forks a fresh one.
    """
    global _host
    if _host is None or _host.owner != os.getpid():
        try:
            _host = _SolverHost()
        except OSError as exc:
            raise _SolverFailed(f"solver host did not start: {exc}") from exc
    host = _host
    worker = stats["worker"] = {"pid": host.process.pid, "maxrss_mb": None}
    request = (model.arrays(), timeout_s)
    try:
        host.conn.send(request)
        if not host.conn.poll(timeout_s + WORKER_GRACE_S):
            raise _SolverFailed(f"solver host timed out after {timeout_s:g} s")
        status, x, info, worker["maxrss_mb"] = host.conn.recv()
    except (EOFError, OSError):  # the host died: EOF on recv, a broken pipe on send
        _host = None
        code = host.stop(kill=False)
        raise _SolverFailed(f"solver host exited with code {code} before replying") from None
    except BaseException:  # a timeout, or the caller interrupted: the host may be mid-solve
        _host = None
        host.stop(kill=True)
        raise

    stats["highs"] = info
    if status == INFEASIBLE:
        return None
    if status != OPTIMAL:
        raise _SolverFailed(f"no optimum from the solver host: {info.get('message')}")
    if x is None or len(x) != len(model.variables):
        raise _SolverFailed(f"solver host returned {'no' if x is None else len(x)} values "
                            f"for {len(model.variables)} variables")
    return {v.name: value for v, value in zip(model.variables, x)}


def _serve(conn, owner_end) -> None:
    """The solver host's loop: answer each ``(arrays, timeout_s)`` request with
    ``(status, x, info, maxrss_mb)`` until the owner's end of the pipe closes."""
    import resource
    import signal

    owner_end.close()  # so that the owner's death reads as EOF here
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the owner's to handle
    try:
        while True:
            arrays, timeout_s = conn.recv()
            try:
                # inside the try, so that a failed import is the solve's cause
                from . import highs_cli

                status, x, info = highs_cli.solve_model(arrays, time_limit=timeout_s)
                reply = (status, None if x is None else [float(v) for v in x], info)
            except Exception as exc:  # reported by the owner as the solve's cause
                reply = (ERROR, None, {"message": f"{type(exc).__name__}: {exc}"})
            maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            conn.send((*reply, maxrss_mb))
    except (EOFError, OSError):
        return  # the owner is gone


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
