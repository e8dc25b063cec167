"""Solve a case on a forked solver host, with HiGHS or a configured solver command.

Every ``solve_external`` call and every sweep scenario runs on a solver
host, a long-lived child forked from its owner (POSIX ``fork``) and the
only kind of child process the package starts. A request is one whole
solve, ``(case, backend, solver_command, enum_cap, timeout_s)``.
The host runs the pipeline (``_solve_here``): encode, the heuristic start,
HiGHS or the solver command, decode and validate, or ``solve_enumeration``;
it replies with the ``SolveResult`` or with the exception the pipeline
raised (``EncodingError``, ``EnumerationCapError``), which the owner raises
again. It loads ``highs_cli``, and with it numpy and scipy's HiGHS binding
(never ``scipy.optimize``), at its first HiGHS solve, so none of them
enters the owner. HiGHS starts from ``enumeration.greedy_schedule`` as a
point, if the heuristic finds one; HiGHS checks it, and the answer is
checked and validated as any is.

A process keeps its hosts in slots: ``solve_external`` uses the first,
and ``solve_on_hosts`` (a sweep) spreads its cases over the first
``min(hosts, cases)``, waiting on their pipes without a thread.

- Hosts are replaced when the owner's environment or working directory
  (which decide a solver command's ``$BLACKSTART_SOLVER_CMD``, ``PATH`` and
  ``TMPDIR``) differs from the one at their fork. A forked child drops its
  parent's hosts at the fork, so it never uses them.
- A host that dies with a case, whose HiGHS solve outlives ``timeout_s``
  by ``WORKER_GRACE_S``, or that is busy when the owner is interrupted is
  reaped, killed if need be, and only its own case fails, with the cause;
  the next request to its slot forks a fresh host. A case whose host died
  before acknowledging it is sent once more.
- A host is its own process group, so killing it kills its solver command
  too, and it ignores SIGINT. multiprocessing's exit handler terminates it
  when its owner exits. If its owner dies, an idle host reads EOF, and a
  busy one is killed by its own thread, which checks every
  ``OWNER_CHECK_S`` that its parent is the owner (HiGHS releases the GIL).
- HiGHS runs one thread (``highs_cli``), on a scheduler reset at the fork
  (``highs_threads``).

A configured command is a template containing ``{mps}`` and ``{sol}``
placeholders; it gets the model as an MPS file, unreduced and with no
start, and writes whitespace-separated ``name value`` lines, where ``#``
starts a comment, unknown or repeated names and non-finite values are an
error, missing variables default to 0, and a single ``=infeasible=`` line
marks a proven-infeasible model.

Either way the answer is a point, one float per variable in
``model.names`` order, and it is never trusted: the host decodes,
re-simulates and validates it in full before it reports a schedule.
"""

from __future__ import annotations

import math
import os
import shlex
import signal
import subprocess
import sys
import tempfile
import time
from array import array
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from ..grid import GridCase
from ..milp import BRANCH_ON, BUS_ON, DecodeError, MilpModel, decode, encode, point_from_schedule
from ..model import ModelArrays
from ..mps import write_mps
from ..schedule import Schedule
from ..validate import validate
from . import highs_threads  # registers the scheduler's reset at fork
from .enumeration import (DEFAULT_COMBINATION_CAP, greedy_schedule, self_start_closure,
                          solve_enumeration)
from .result import ERROR, INFEASIBLE, INFEASIBLE_SENTINEL, OPTIMAL, SolveResult

ENV_SOLVER_CMD = "BLACKSTART_SOLVER_CMD"
# How often a solver host checks that its owner is alive.
OWNER_CHECK_S = 1.0
# How long past ``timeout_s`` a solver host's HiGHS solve may take (to stop
# at its time limit) before its owner kills the host.
WORKER_GRACE_S = 2.0


def resolve_solver_command(command: str | None = None) -> str | None:
    """The configured solver command template, or None for HiGHS."""
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
    """Encode, solve (HiGHS or the solver command), decode and validate on
    this process's first solver host; raises what the pipeline raised
    there (``EncodingError`` for a case that does not encode).

    ``stats`` carries ``wall_time_s``; ``stages``, the seconds of each stage
    reached (encode, solver, decode, validate; HiGHS's start; a command's
    export and import_solution); ``model`` (vars, int_vars, rows, nnz); and
    ``worker``: the host's ``pid``, its peak RSS ``maxrss_mb``, and
    ``import_s``, its seconds importing ``highs_cli`` for this solve (0.0
    unless it is the host's first HiGHS solve and its owner had not loaded
    ``highs_cli`` before the fork). HiGHS adds ``highs``: status, message,
    objective, mip_node_count, mip_gap, mip_dual_bound; reduce_s and
    time_s, the reduction's and HiGHS's seconds; reduced_rows and
    reduced_cols, the size of the model HiGHS was handed; substituted, the
    count of columns the reduction substituted out; forced_on, the count of
    columns ``_force_on`` raised; HiGHS's version; and start_objective, the
    start's objective (None for no start). A solver command adds
    ``solver_command`` and ``returncode``.
    """
    result, = solve_on_hosts([case], 1, command=command, timeout_s=timeout_s)
    if isinstance(result, Exception):
        raise result
    return result


def _solve_here(conn, case: GridCase, backend: str, command: str | None, enum_cap: int,
                timeout_s: float) -> SolveResult:
    """One request's pipeline, as a host runs it: ``solve_enumeration``, or
    encode, solve (HiGHS from the heuristic start, or the solver command),
    decode and validate; ``conn`` is the host's end of its owner's pipe.

    ``stats["worker"]["import_s"]`` is the seconds spent importing
    ``highs_cli``, which the HiGHS path does outside every stage."""
    worker = {"import_s": 0.0}
    if backend == "enum":
        result = solve_enumeration(case, cap=enum_cap)
        result.stats["worker"] = worker
        return result
    stages: dict[str, float] = {}
    stats: dict = {"stages": stages, "worker": worker}  # ``wall_time_s`` is the owner's

    def finish(status: str, **fields) -> SolveResult:
        return SolveResult(status=status, stats=stats, **fields)

    with _stage(stages, "encode"):
        model = encode(case)
    stats["model"] = model.size()
    template = resolve_solver_command(command)
    try:
        if template is None:
            if f"{__package__}.highs_cli" not in sys.modules:
                started = time.perf_counter()
                try:
                    from . import highs_cli
                except Exception as exc:
                    raise _SolverFailed("solver host could not load HiGHS: "
                                        f"{type(exc).__name__}: {exc}") from exc
                worker["import_s"] = time.perf_counter() - started
            with _stage(stages, "start"):
                start = _start(model, case)
            with _stage(stages, "solver"):
                x = _solve_with_highs(conn, model, case, start, timeout_s, stats)
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


def _force_on(model: MilpModel, case: GridCase, arrays: ModelArrays) -> int:
    """Raise to 1, in ``arrays``, the lower bound of each ``bus_on`` and
    ``branch_on`` column from the step its bus or branch is lit in the
    ``self_start_closure`` of the black-start generators and fuel cells
    (batteries left out); returns how many columns it raised.

    A dual (dominance) fixing: raising these columns in a feasible point
    keeps it feasible and its objective no worse, so the optimum value and
    infeasibility are kept. Row family by row family:
    - eq29, device <= bus: it only relaxes.
    - eq30/31, branch <= each end: both ends are lit no later than it.
    - eq32, monotone series: each raised series is 1 from a step on.
    - eq33, a branch at t needs an end at t - 1: the end that lit it.
    - eq34/eq48: a raised bus holds a black-start unit or fuel cell, on
      from step 2 (eq39, eq40), or is lit with a raised branch.
    - eq2 and the other device rows hold no bus or branch column.
    - The objective: a ``bus_on`` weight is ``-beta·importance/t <= 0``
      (``grid`` keeps both nonnegative), a ``branch_on`` weight 0.
    """
    T = case.time_grid.n_steps
    closure = self_start_closure(case, {b.id: None for b in case.batteries})
    lit = [(f"{kind}.{entity}.{s}", T - s + 1) for kind, steps in zip((BUS_ON, BRANCH_ON), closure)
           for entity, s in steps.items() if s is not None]
    for name, n in lit:  # columns s..T of the entity's block (``milp.encode``)
        j = model.column(name)
        arrays.lb[j:j + n] = array("d", [1.0]) * n
    return sum(n for _, n in lit)


class _SolverFailed(Exception):
    """The solver gave no usable answer; the message says why."""


def _solve_with_highs(conn, model: MilpModel, case: GridCase, start: array | None,
                      timeout_s: float, stats: dict) -> array | None:
    """``highs_cli.solve_model`` on the arrays with ``_force_on``'s fixing:
    the point, or None for a proven-infeasible model.

    The solve is the one stage with a deadline: it is bracketed on ``conn``
    by the seconds the owner gives it before killing this host and by
    ``None``, its end (``solve_on_hosts``).
    """
    from . import highs_cli

    arrays = model.arrays()
    forced_on = _force_on(model, case, arrays)
    conn.send(float(timeout_s + WORKER_GRACE_S))
    try:
        status, x, info = highs_cli.solve_model(arrays, time_limit=timeout_s, start=start)
    except Exception as exc:
        raise _SolverFailed(f"no optimum from HiGHS: {type(exc).__name__}: {exc}") from exc
    finally:
        conn.send(None)
    stats["highs"] = {**info, "forced_on": forced_on}
    if status == INFEASIBLE:
        return None
    if status != OPTIMAL:
        raise _SolverFailed(f"no optimum from HiGHS: {info.get('message')}")
    if x is None or len(x) != len(model.names):
        raise _SolverFailed(f"HiGHS returned {'no' if x is None else len(x)} values "
                            f"for {len(model.names)} variables")
    return array("d", x.tobytes())


class _SolverHost:
    """A child forked from this process that serves whole solves over a
    duplex pipe until the pipe closes; ``key`` is the owner's environment
    and working directory at the fork."""

    def __init__(self, key: tuple) -> None:
        import multiprocessing  # here, not at the top: it costs `import blackstart` ~15 ms

        ctx = multiprocessing.get_context("fork")
        self.key = key
        self.conn, host_end = ctx.Pipe()
        self.process = ctx.Process(target=_serve, args=(host_end, self.conn, os.getpid()),
                                   name="blackstart-host", daemon=True)
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
            self._kill()
        self.process.join(WORKER_GRACE_S)
        if self.process.exitcode is None:
            self._kill()
            self.process.join()
        return self.process.exitcode

    def _kill(self) -> None:
        """SIGKILL the host's process group: the host and any solver command it runs."""
        if self.process.exitcode is None:  # not reaped, so the pid is still the host's
            try:
                os.killpg(self.process.pid, signal.SIGKILL)
            except ProcessLookupError:  # the host has not made its group yet
                self.process.kill()


# This process's solver hosts by slot; a slot whose host is gone has none.
_hosts: dict[int, _SolverHost] = {}


def stop_solver_host() -> None:
    """Kill and reap this process's solver hosts; the next solve forks new ones."""
    while _hosts:
        _hosts.popitem()[1].stop(kill=True)


def _forget_inherited_hosts() -> None:
    """In a forked child, drop the parent's hosts: closing their pipe ends
    keeps the parent's death visible to them as EOF, and dropping them from
    multiprocessing's child set keeps this process's exit from ending them."""
    hosts = list(_hosts.values())
    _hosts.clear()
    if hosts:
        import multiprocessing.process

        for host in hosts:
            host.conn.close()
            multiprocessing.process._children.discard(host.process)


os.register_at_fork(after_in_child=_forget_inherited_hosts)


def _host(slot: int, key: tuple) -> _SolverHost:
    """The live host in ``slot``, forked now if the slot is empty, its host
    died since its last reply, or its host was forked under another key."""
    host = _hosts.get(slot)
    if host is not None and (host.key != key or not host.process.is_alive()):
        del _hosts[slot]
        host.stop(kill=True)
    if slot not in _hosts:
        _hosts[slot] = _SolverHost(key)
    return _hosts[slot]


def solve_on_hosts(cases: list[GridCase], hosts: int, backend: str = "external",
                   command: str | None = None, enum_cap: int = DEFAULT_COMBINATION_CAP,
                   timeout_s: float = 600.0) -> list[SolveResult | Exception]:
    """Solve each case on one of this process's first ``min(hosts,
    len(cases))`` solver hosts, each taking the next case as it comes free;
    returns each case's ``SolveResult``, timed here from the first send to
    the reply (an enumeration keeps its own time), or the exception its
    pipeline raised.

    A case whose host died before acknowledging it (an idle host killed a
    moment ago can look alive) is sent once more. A host that does not
    start, dies with a case, or whose HiGHS solve outlives ``timeout_s`` by
    ``WORKER_GRACE_S`` makes its case an ERROR result naming the cause; no
    other stage has a deadline. Any exception, ``KeyboardInterrupt``
    included, kills the busy hosts and is raised. The next request to a
    lost host's slot forks a fresh host.
    """
    from collections import deque
    from multiprocessing.connection import wait

    n = min(hosts, len(cases))
    request = (backend, command, enum_cap, timeout_s)
    key = (dict(os.environ), os.getcwd())
    results: list = [None] * len(cases)
    todo = deque(_Job(index, (case, *request)) for index, case in enumerate(cases))
    busy: dict[int, _Job] = {}
    try:
        while True:
            for slot in set(range(n)) - set(busy):
                while todo and slot not in busy:
                    job = todo.popleft()
                    job.sent = job.sent or time.perf_counter()
                    try:
                        host = _host(slot, key)
                    except OSError as exc:  # no fork
                        results[job.index] = _lose_host(slot, job, kill=False,
                                                        why=f"solver host failed: {exc}")
                        continue
                    busy[slot] = job
                    try:
                        host.conn.send(job.request)
                    except OSError:  # the host died since its last reply; dead for
                        host._kill()  # sure, it reads as not having taken the case
            if not busy:
                return results
            deadlines = [job.deadline for job in busy.values() if job.deadline is not None]
            ready = wait([_hosts[slot].conn for slot in busy],
                         max(0.0, min(deadlines) - time.perf_counter()) if deadlines else None)
            for slot, job in list(busy.items()):
                if _hosts[slot].conn in ready:
                    try:
                        reply = _hosts[slot].conn.recv()
                    except (EOFError, OSError):  # the host died
                        if not (job.acknowledged or job.resent):  # before it took the case
                            _hosts.pop(slot).stop(kill=False)
                            job.resent = True
                            todo.appendleft(busy.pop(slot))
                            continue
                        reply = _lose_host(slot, job, kill=False)
                    if reply is None or isinstance(reply, float):
                        job.acknowledged = True  # and, for a float, in HiGHS
                        job.deadline = None if reply is None else time.perf_counter() + reply
                        continue
                    if isinstance(reply, SolveResult) and backend != "enum":
                        reply.stats["wall_time_s"] = time.perf_counter() - job.sent
                    results[busy.pop(slot).index] = reply
                elif job.deadline is not None and time.perf_counter() > job.deadline:
                    results[job.index] = _lose_host(slot, busy.pop(slot), kill=True,
                                                    why=f"solver host timed out after {timeout_s:g} s")
    except BaseException:
        for slot, job in busy.items():
            _lose_host(slot, job, kill=True)
        raise


class _Job:
    """A case's request on its way to a reply; ``deadline`` is when its
    host's HiGHS solve is due, while it is in one."""

    def __init__(self, index: int, request: tuple) -> None:
        self.index, self.request = index, request
        self.sent = self.deadline = None
        self.acknowledged = self.resent = False


def _lose_host(slot: int, job: _Job, kill: bool, why: str | None = None) -> SolveResult:
    """Empty ``slot``, reaping its host (killed first if ``kill``); an ERROR
    result for ``job`` that says ``why``, or else the host's exit code."""
    host = _hosts.pop(slot, None)
    stats: dict = {"wall_time_s": time.perf_counter() - job.sent}
    if host is not None:
        code = host.stop(kill)
        why = why or f"solver host exited with code {code} before replying"
        stats["worker"] = {"pid": host.process.pid, "maxrss_mb": None, "import_s": None}
    return SolveResult(ERROR, message=why, stats=stats)


def _serve(conn, owner_end, owner: int) -> None:
    """The solver host's loop, until the owner's end of the pipe closes:
    acknowledge each request with ``None``, then answer it with
    ``_solve_here``'s ``SolveResult``, its ``stats["worker"]`` filled in, or
    with the exception it raised, its traceback added as a note."""
    import resource
    import threading
    import traceback

    owner_end.close()  # so that the owner's death reads as EOF here
    os.dup2(2, 1)  # what HiGHS prints to fd 1 must not land in the owner's output
    os.setpgid(0, 0)  # so that killing the host's group kills its solver command too
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the owner's to handle
    threading.Thread(target=_exit_when_orphaned, args=(owner,), daemon=True).start()
    try:
        while True:
            request = conn.recv()
            conn.send(None)  # acknowledged: from here on the request is this host's
            try:
                reply = _solve_here(conn, *request)
            except Exception as exc:  # raised again by the owner, which lacks this stack
                exc.add_note("".join(traceback.format_exception(exc)).rstrip())
                reply = exc
            if isinstance(reply, SolveResult):
                maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                reply.stats["worker"].update(pid=os.getpid(), maxrss_mb=maxrss_mb)
            conn.send(reply)
    except (EOFError, OSError):
        return  # the owner is gone


def _exit_when_orphaned(owner: int) -> None:
    """Kill this host's process group, the host and any solver command it
    runs, once ``owner`` is no longer its parent, even while the main
    thread is inside HiGHS."""
    while os.getppid() == owner:
        time.sleep(OWNER_CHECK_S)
    os.killpg(0, signal.SIGKILL)


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
