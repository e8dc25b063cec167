"""Solve a model with HiGHS on a forked solver host, or with a configured solver command.

By default (no command given and BLACKSTART_SOLVER_CMD unset) the bundled
HiGHS front end, ``highs_cli.solve_model`` (an exact reduction of the
model, HiGHS with its presolve off, and a postsolve checked against the
full model), runs on a solver host: one long-lived child per process,
forked from it (POSIX ``fork``) at its first default solve. The host imports
numpy and loads scipy's HiGHS binding once (never ``scipy.optimize``), and
then serves every later solve of that process; each request is the model as
flat arrays (``MilpModel.arrays()``) over a pipe, so no file is written, no
second interpreter starts, and neither numpy nor scipy enters the calling
process.

Each request also carries a start for HiGHS: the oracle's
``enumeration.greedy_schedule`` (the best of a few decision sets, each
simulated from the device semantics) as a point in ``model.names`` order, by
``milp.point_from_schedule``, or None where the heuristic finds no
schedule. It only spares HiGHS the search for a first incumbent: HiGHS
checks it, and what HiGHS returns is postsolved, checked, decoded,
re-simulated and validated as any answer is.

- A forked child of the owner (a sweep's pool worker, say) never uses its
  parent's host; it forks its own at its first solve.
- A host that dies, outlives ``timeout_s`` or is in use when the caller is
  interrupted is reaped (killed if need be) and the solve fails with the
  cause; the next solve forks a fresh host.
- The host ignores SIGINT, leaving Ctrl-C to its owner. It is a daemon
  process, so multiprocessing's exit handler terminates and reaps it when
  its owner exits. When its owner dies, an idle host reads EOF; a busy
  one is stopped by its own thread, which checks every ``OWNER_CHECK_S``
  that its parent is still the owner (a signal handler would wait for
  HiGHS to return; HiGHS releases the GIL, so the thread runs beside it).
  A sweep pool worker uses a SIGALRM timer instead: it forks its host,
  and a thread would be one more at that fork.
- The host gives HiGHS its share of the usable CPUs as threads,
  ``max(1, usable CPUs // hosts solving at once)``: one host for a plain
  process, the pool's size for a sweep pool worker's host. HiGHS's own
  default, half the machine's CPUs, is one thread on two CPUs, and then
  the root's analytic centre, a task HiGHS queues for another thread, runs
  serially. HiGHS's thread scheduler is global to a process, and a forked
  host inherits its owner's without the owner's threads, so the host
  resets it right after importing ``highs_cli``. ``highs_cli.solve_mps_file``
  keeps the default: it runs in its caller's process, whose scheduler
  other HiGHS calls there share, and it cannot know how many solves run
  beside it.

The host serves one request at a time, so a process solves from one
thread. As with any ``fork``, the host starts with only the thread that
forked it, and a lock another thread held at that moment stays held in
the host forever. One such fork is certain: after a sweep, the sweep pool
(``analysis``) keeps its manager thread and its queue-feeder thread
running in the caller, so a later first default solve forks its host
beside them. The host cannot block on their locks. ``_serve`` touches
only its own pipe, ``resource``, ``signal``, ``threading`` and the
import of ``highs_cli`` (Python resets the import and ``threading``
locks in a forked child), never the pool's queues; and dropping the
inherited pool at the fork takes only the pool's shutdown lock, which an
idle pool's threads do not hold (its manager takes it only while a
worker exits or the pool shuts down, its feeder only on a pickling
error). Other threads of the caller's own are its risk, once per
process, at the first default solve.

A configured command is a template containing ``{mps}`` and ``{sol}``
placeholders; the model goes out as an MPS file, unreduced, in the
paper's form and with no start, and the solution comes back as a document of
whitespace-separated ``name value`` lines, where ``#`` starts a comment,
unknown or repeated names and non-finite values are an error, missing
variables default to 0, and a single ``=infeasible=`` line marks a
proven-infeasible model.

Either way the answer is a point, one float per variable in
``model.names`` order, and its values are never trusted: they are decoded,
re-simulated and validated in this process before a schedule is reported.
"""

from __future__ import annotations

import math
import os
import shlex
import subprocess
import tempfile
import time
from array import array
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from ..grid import GridCase
from ..milp import DecodeError, MilpModel, decode, encode, point_from_schedule
from ..mps import write_mps
from ..schedule import Schedule
from ..validate import validate
from .enumeration import greedy_schedule
from .result import ERROR, INFEASIBLE, OPTIMAL, SolveResult

ENV_SOLVER_CMD = "BLACKSTART_SOLVER_CMD"
INFEASIBLE_SENTINEL = "=infeasible="
# How often a solver host, or an idle sweep pool worker, checks that its
# owner is alive.
OWNER_CHECK_S = 1.0
# How long past ``timeout_s`` the solver host may take (to load HiGHS on
# its first solve and to stop HiGHS at its time limit) before it is killed.
WORKER_GRACE_S = 2.0
# How many solver hosts solve at once: 1 for a plain process. A sweep pool
# worker's initializer sets its pool's size here, and the host the worker
# forks at its first solve inherits it.
_hosts_at_once = 1


def resolve_solver_command(command: str | None = None) -> str | None:
    """The configured solver command template, or None for the HiGHS solver host."""
    return command or os.environ.get(ENV_SOLVER_CMD) or None


class SolutionFormatError(ValueError):
    pass


def import_solution(model: MilpModel, text: str) -> array | None:
    """Parse a solution document into a point in ``model.names`` order.

    Returns None when the document carries the infeasibility sentinel.
    """
    x = array("d", bytes(8 * len(model.names)))
    seen: dict[int, int] = {}
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
        j = model.column(name)
        if j is None:
            raise SolutionFormatError(f"line {lineno}: unknown variable {name!r}")
        if seen.setdefault(j, lineno) != lineno:
            raise SolutionFormatError(f"line {lineno}: variable {name!r} repeats line {seen[j]}")
        try:
            x[j] = float(value)
        except ValueError as exc:
            raise SolutionFormatError(f"line {lineno}: unparseable value {value!r}") from exc
        if not math.isfinite(x[j]):
            raise SolutionFormatError(f"line {lineno}: non-finite value {value!r}")
    return x


def solve_external(case: GridCase, command: str | None = None,
                   timeout_s: float = 600.0) -> SolveResult:
    """Encode, solve (HiGHS solver host or solver command), decode, validate.

    ``stats`` carries ``wall_time_s``, ``stages`` (seconds spent in each
    stage reached: encode, solver, decode, validate; for the solver host
    also start, the heuristic start's; for a solver command also export and
    import_solution) and ``model`` (vars, int_vars, rows, nnz). The solver
    host adds ``highs`` (status, message, objective, mip_node_count,
    mip_gap, mip_dual_bound; reduce_s, time_s, reduced_rows and
    reduced_cols: the reduction's and HiGHS's seconds and the size of the
    model HiGHS was handed; threads, the host's share of the CPUs that
    HiGHS was given; version, HiGHS's; and start_objective, the objective
    of the start HiGHS was handed, None for none) and ``worker``
    (the host's ``pid``, its own peak RSS, ``maxrss_mb``, and ``import_s``,
    the seconds it spent importing HiGHS for this solve: nonzero on a new
    host's first solve, 0.0 after); a solver command adds
    ``solver_command`` and ``returncode``.
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
            with _stage(stages, "start"):
                start = _start(model, case)
            with _stage(stages, "solver"):
                x = _solve_on_host(model, start, timeout_s, stats)
        else:
            x = _solve_with_command(model, template, timeout_s, stats)
    except _SolverFailed as exc:
        return finish(ERROR, message=str(exc))

    if x is None:
        return finish(INFEASIBLE)
    try:
        with _stage(stages, "decode"):
            schedule: Schedule = decode(model, x, case)
    except DecodeError as exc:
        return finish(ERROR, point=x, message=f"solution does not decode: {exc}")
    with _stage(stages, "validate"):
        report = validate(case, schedule)
    objective = model.objective_of(x)
    if not report.passed:
        return finish(
            ERROR, point=x, objective=objective,
            schedule=schedule, validation=report,
            message=f"solution fails validation with {len(report.violations)} violation(s)",
        )
    return finish(
        OPTIMAL, point=x, objective=objective, schedule=schedule, validation=report,
    )


def _start(model: MilpModel, case: GridCase) -> array | None:
    """``greedy_schedule`` as a point in ``model.names`` order, or None where
    it finds no schedule."""
    schedule = greedy_schedule(case)
    return None if schedule is None else point_from_schedule(model, case, schedule)


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
        self.process = ctx.Process(target=_serve, args=(host_end, self.conn, self.owner),
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


def _solve_on_host(model: MilpModel, start: array | None, timeout_s: float, stats: dict
                   ) -> list[float] | None:
    """Solve with ``highs_cli.solve_model`` on this process's solver host.

    Returns the point the host replied with, or None for a proven-infeasible
    model. The request is ``model.arrays()`` and ``start``; the reply is the
    status, the values, HiGHS's info, the host's peak RSS and its import
    seconds. A host that times out, or any exception while it is in use,
    kills it; a host that died is reaped and its exit code reported. Either
    way the next solve forks a fresh one.
    """
    global _host
    if _host is None or _host.owner != os.getpid():
        try:
            _host = _SolverHost()
        except OSError as exc:
            raise _SolverFailed(f"solver host did not start: {exc}") from exc
    host = _host
    worker = stats["worker"] = {"pid": host.process.pid, "maxrss_mb": None, "import_s": None}
    request = (model.arrays(), start, timeout_s)
    try:
        host.conn.send(request)
        if not host.conn.poll(timeout_s + WORKER_GRACE_S):
            raise _SolverFailed(f"solver host timed out after {timeout_s:g} s")
        status, x, info, worker["maxrss_mb"], worker["import_s"] = host.conn.recv()
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
    if x is None or len(x) != len(model.names):
        raise _SolverFailed(f"solver host returned {'no' if x is None else len(x)} values "
                            f"for {len(model.names)} variables")
    return x


def _highs_threads() -> int:
    """The solver host's share of the usable CPUs: ``max(1, usable CPUs //
    hosts solving at once)``, where the CPUs are this process's affinity
    set (``os.cpu_count()`` where there is none)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, cpus // _hosts_at_once)


def _serve(conn, owner_end, owner: int) -> None:
    """The solver host's loop: answer each ``(arrays, start, timeout_s)`` request with
    ``(status, x, info, maxrss_mb, import_s)`` until the owner's end of the
    pipe closes or ``owner`` is no longer this process's parent;
    ``import_s`` is the seconds this request spent importing ``highs_cli``,
    0.0 once it has been imported.

    Right after the import the host resets the HiGHS thread scheduler it
    inherited from its owner and gives HiGHS ``_highs_threads()`` threads;
    then it starts the thread that exits the host once its owner is gone.
    """
    import resource
    import signal
    import threading

    owner_end.close()  # so that the owner's death reads as EOF here
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the owner's to handle
    highs_cli = threads = None
    try:
        while True:
            arrays, start, timeout_s = conn.recv()
            import_s = 0.0
            try:
                if highs_cli is None:
                    # inside the try, so that a failed import or reset is
                    # the solve's cause, and the next request tries again
                    started = time.perf_counter()
                    from . import highs_cli as loaded
                    import_s = time.perf_counter() - started
                    loaded.reset_scheduler()
                    threads = _highs_threads()
                    # after the reset, which joins the HiGHS threads the fork
                    # left: started before it, this thread made every solve
                    # fail ("Invalid argument") on a host forked after an
                    # in-process HiGHS solve
                    threading.Thread(target=_exit_when_orphaned, args=(owner,),
                                     daemon=True).start()
                    highs_cli = loaded
                status, x, info = highs_cli.solve_model(arrays, time_limit=timeout_s,
                                                        threads=threads, start=start)
                reply = (status, None if x is None else [float(v) for v in x], info)
            except Exception as exc:  # reported by the owner as the solve's cause
                reply = (ERROR, None, {"message": f"{type(exc).__name__}: {exc}"})
            maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            conn.send((*reply, maxrss_mb, import_s))
    except (EOFError, OSError):
        return  # the owner is gone


def _exit_when_orphaned(owner: int) -> None:
    """Exit this process once ``owner`` is no longer its parent, even while
    the main thread is inside HiGHS."""
    while os.getppid() == owner:
        time.sleep(OWNER_CHECK_S)
    os._exit(1)


def _solve_with_command(model: MilpModel, template: str, timeout_s: float,
                        stats: dict) -> array | None:
    """Export MPS, run the command, import its solution document.

    Returns the point, or None when the document says infeasible.
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
