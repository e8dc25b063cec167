"""Reporting and sensitivity sweeps over solved cases.

Startup time reported everywhere is the wall-clock time at which cranking
begins: a unit starting at step s has been down for (s-1) steps, i.e.
(s-1)*step_minutes minutes. Sweep scenarios re-load the case from its
canonical document with one axis changed, so runs are independent and
reproducible; rows of a sweep CSV are generators (plus the average), and
columns are the axis values.

Sweeps run on one process pool per process, started (POSIX ``fork``) at
the first sweep and kept for every later one, so a pool worker and the
solver host it forks pay their start-up (the fork, scipy's import) once
per process, not once per sweep. The pool is reused while its key holds:
the worker count ``min(workers, len(values))``, the owner's pid, the
environment and the working directory, which the workers took at their
fork and which decide ``$BLACKSTART_SOLVER_CMD``, ``PATH`` and ``TMPDIR``,
and while every worker is alive. Otherwise it is shut down, waiting for
its workers, and replaced.

- A pool that fails (a worker died, or the caller was interrupted) is
  dropped; so is one whose worker died between sweeps (an OOM kill, or a
  Ctrl-C at a terminal, which reaches idle workers too). The next sweep
  starts a fresh one.
- A forked child never uses its parent's pool; it starts its own.
- Idle workers exit when their owner is gone. The pool is shut down at
  exit, or by ``stop_sweep_pool()``; its workers' hosts exit with them.
- Between sweeps the pool keeps two threads in the caller, its manager and
  its queue feeder; ``solvers.external`` says why its solver host may
  still be forked beside them.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import functools
import os
import signal
from dataclasses import dataclass, field
from pathlib import Path

from . import solvers
from .caseio import case_to_document, load_case
from .devices import system_power
from .grid import GridCase
from .schedule import Schedule

NEVER = "never"

SWEEP_AXES = ("fc_capacity", "battery_capacity", "battery_soc", "resource_location")


@dataclass
class GsusTable:
    """Per-generator startup time in minutes, with the system average."""

    rows: list[tuple[str, float | None]]
    average: float | None

    def to_csv(self) -> str:
        lines = ["generator,startup_min"]
        for gen_id, minutes in self.rows:
            lines.append(f"{gen_id},{_cell(minutes)}")
        lines.append(f"System Average,{_cell(self.average)}")
        return "\n".join(lines) + "\n"


def gsus_table(schedule: Schedule, case: GridCase) -> GsusTable:
    """Startup minutes for every non-black-start generator."""
    dt = case.time_grid.step_minutes
    rows: list[tuple[str, float | None]] = []
    for g in case.generators:
        if g.is_black_start:
            continue
        s = schedule.gen_start[g.id]
        rows.append((g.id, None if s is None else (s - 1) * dt))
    started = [m for _, m in rows if m is not None]
    average = sum(started) / len(started) if started else None
    return GsusTable(rows=rows, average=average)


def restored_power_series(schedule: Schedule, case: GridCase) -> list[tuple[float, float]]:
    """(minute, MW) samples of systemwide restored power, one per step."""
    dt = case.time_grid.step_minutes
    series = system_power(case, schedule)
    return [(t * dt, series[t - 1]) for t in case.time_grid.steps]


def series_to_csv(series: list[tuple[float, float]]) -> str:
    lines = ["minute,restored_mw"]
    lines.extend(f"{minute:g},{mw:g}" for minute, mw in series)
    return "\n".join(lines) + "\n"


def restoration_stats(schedule: Schedule, case: GridCase) -> dict:
    """Counts of energized infrastructure and generator activity."""
    T = case.time_grid.n_steps
    critical_buses = sum(1 for b in case.buses if schedule.bus_on[b.id][T - 1])
    critical_branches = sum(1 for k in case.branches if schedule.branch_on[k.id][T - 1])
    ramping = []
    for t in case.time_grid.steps:
        count = 0
        for g in case.generators:
            s = schedule.gen_start[g.id]
            if s is None:
                continue
            on_at = s + g.crank_steps
            if on_at <= t < on_at + g.ramp_steps:
                count += 1
        ramping.append(count)
    total = system_power(case, schedule)[T - 1]
    started = [g.id for g in case.generators if schedule.gen_start[g.id] is not None]
    return {
        "critical_buses": critical_buses,
        "critical_branches": critical_branches,
        "total_buses": len(case.buses),
        "total_branches": len(case.branches),
        "restored_power_mw": total,
        "generators_started": len(started),
        "generators_ramping_per_step": ramping,
    }


@dataclass
class SweepSpec:
    case: GridCase
    axis: str
    values: list
    backend: str = "external"
    solver_command: str | None = None
    workers: int = 1
    enum_cap: int = solvers.DEFAULT_COMBINATION_CAP

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {self.axis!r}; expected one of {SWEEP_AXES}")
        if not self.values:
            raise ValueError("sweep needs at least one axis value")
        if self.workers < 1:
            raise ValueError(f"sweep needs at least one worker, got {self.workers}")
        if self.axis == "fc_capacity" and not self.case.fuel_cells:
            raise ValueError("fc_capacity sweep needs at least one fuel cell in the case")
        if self.axis in ("battery_capacity", "battery_soc") and not self.case.batteries:
            raise ValueError(f"{self.axis} sweep needs at least one battery in the case")
        n_devices = len(self.case.fuel_cells) + len(self.case.batteries)
        if self.axis == "resource_location":
            for v in self.values:
                if not isinstance(v, (list, tuple)) or len(v) != n_devices:
                    raise ValueError(
                        "resource_location values must list one bus per fuel cell "
                        f"and battery ({n_devices} entries), got {v!r}"
                    )


@dataclass
class SweepRow:
    value: object
    status: str
    startup_min: dict[str, float | None] = field(default_factory=dict)
    average: float | None = None
    objective: float | None = None
    message: str = ""
    # the solve's ``SolveResult.stats`` (stages, model, highs, worker)
    stats: dict = field(default_factory=dict)


@dataclass
class SweepResult:
    axis: str
    rows: list[SweepRow]

    def to_csv(self) -> str:
        gen_ids = sorted({g for row in self.rows for g in row.startup_min})
        header = [self.axis] + [_value_label(r.value) for r in self.rows]
        lines = [",".join(header)]

        def cells(minutes_of) -> list[str]:
            """One cell per row: the row's minutes if it solved, else its status."""
            return [_cell(minutes_of(row)) if row.status == solvers.OPTIMAL else row.status
                    for row in self.rows]

        for g in gen_ids:
            lines.append(",".join([g, *cells(lambda row: row.startup_min.get(g))]))
        lines.append(",".join(["Average", *cells(lambda row: row.average)]))
        return "\n".join(lines) + "\n"

    def averages(self) -> list[float | None]:
        return [r.average for r in self.rows]


def apply_axis_value(case: GridCase, axis: str, value) -> GridCase:
    """New case with one sweep axis applied; everything else untouched."""
    doc = case_to_document(case)
    if axis == "fc_capacity":
        for f in doc["fuel_cells"]:
            f["p_max"] = float(value)
    elif axis == "battery_capacity":
        for b, base in zip(doc["batteries"], case.batteries):
            scale = float(value) / base.p_max
            b["p_max"] = float(value)
            b["p_min"] = base.p_min * scale
            b["soc_init"] = base.soc_init * scale
    elif axis == "battery_soc":
        frac = float(value)
        if not 0 < frac <= 1:
            raise ValueError(f"battery_soc values are fractions in (0, 1], got {value!r}")
        for b, base in zip(doc["batteries"], case.batteries):
            b["soc_init"] = base.soc_init * frac
    elif axis == "resource_location":
        movable = doc["fuel_cells"] + doc["batteries"]
        for dev, bus in zip(movable, value):
            dev["bus"] = bus
    else:
        raise ValueError(f"unknown sweep axis {axis!r}")
    return load_case(doc)


def _run_scenario(base: GridCase, axis: str, value, backend: str,
                  solver_command: str | None, enum_cap: int) -> SweepRow:
    step = "apply_axis_value"
    try:
        case = apply_axis_value(base, axis, value)
        step = "solve"
        result = solvers.solve(case, backend, solver_command=solver_command,
                               enum_cap=enum_cap)
    except Exception as exc:
        return SweepRow(value=value, status="error",
                        message=f"{step}: {type(exc).__name__}: {exc}")
    if not result.ok or result.schedule is None:
        return SweepRow(value=value, status=result.status, message=result.message,
                        stats=result.stats)
    table = gsus_table(result.schedule, case)
    return SweepRow(
        value=value,
        status=result.status,
        startup_min=dict(table.rows),
        average=table.average,
        objective=result.objective,
        stats=result.stats,
    )


def sweep(spec: SweepSpec) -> SweepResult:
    """Solve one scenario per axis value on this process's sweep pool of
    ``min(spec.workers, len(spec.values))`` processes; failures land in the
    row, not raised.

    A scenario the pool lost (a worker that died, say) is an ``error`` row
    whose message starts with ``pool:``, and the next sweep replaces the
    pool. Any other exception out of the pool, ``KeyboardInterrupt``
    included, drops the pool and is raised.
    """
    scenario = functools.partial(
        _run_scenario, spec.case, spec.axis,
        backend=spec.backend, solver_command=spec.solver_command, enum_cap=spec.enum_cap,
    )
    pool = _sweep_pool(min(spec.workers, len(spec.values)))
    try:
        futures = [pool.submit(scenario, value) for value in spec.values]
        rows = [_pool_row(future, value) for future, value in zip(futures, spec.values)]
    except BaseException:
        stop_sweep_pool()
        raise
    return SweepResult(axis=spec.axis, rows=rows)


def _pool_row(future: concurrent.futures.Future, value) -> SweepRow:
    """The scenario's row; ``_run_scenario`` catches its own failures, so an
    exception here is the pool's."""
    try:
        return future.result()
    except Exception as exc:
        return SweepRow(value=value, status="error",
                        message=f"pool: {type(exc).__name__}: {exc}")


# This process's sweep pool and the key it was started under (module docstring).
_pool: concurrent.futures.ProcessPoolExecutor | None = None
_pool_key: tuple = ()


def _sweep_pool(workers: int) -> concurrent.futures.ProcessPoolExecutor:
    """This process's sweep pool; a new one if the key changed or a worker died."""
    global _pool, _pool_key
    key = (workers, os.getpid(), dict(os.environ), os.getcwd())
    if _pool is None or _pool_key != key or not _serving(_pool):
        import multiprocessing

        stop_sweep_pool()
        _pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker, initargs=(os.getpid(), workers))
        _pool_key = key
    return _pool


def _serving(pool: concurrent.futures.ProcessPoolExecutor) -> bool:
    """Whether every worker of the pool is alive: its manager thread marks
    it broken once it sees a worker gone, and polling each worker catches
    one that died before the manager looked."""
    return not pool._broken and all(p.is_alive() for p in pool._processes.values())


def _start_worker(owner: int, workers: int) -> None:
    """Pool initializer: record ``workers``, the pool's size, as the number
    of solver hosts that solve at once, which the host this worker forks
    inherits and divides the CPUs by. Then, once every
    ``external.OWNER_CHECK_S`` (a SIGALRM timer, which a forked host does
    not inherit), exit if ``owner`` is no longer this worker's parent, so
    that a killed owner leaves no idle worker behind. The worker's host
    then exits too."""
    solvers.external._hosts_at_once = workers

    def check(signum, frame) -> None:
        if os.getppid() != owner:
            os._exit(1)

    signal.signal(signal.SIGALRM, check)
    check_s = solvers.external.OWNER_CHECK_S
    signal.setitimer(signal.ITIMER_REAL, check_s, check_s)


def stop_sweep_pool() -> None:
    """Shut this process's sweep pool down, if it has one, and wait for its
    workers, whose solver hosts exit with them; the next sweep starts a new pool."""
    global _pool
    pool, _pool = _pool, None
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)


def _forget_inherited_pool() -> None:
    """In a forked child: the parent's pool is not this process's to use or
    shut down, and its workers are not this process's children."""
    global _pool
    if _pool is not None:
        import multiprocessing.process

        _pool = None
        multiprocessing.process._children.clear()


os.register_at_fork(after_in_child=_forget_inherited_pool)
# concurrent.futures joins the pool's workers at exit but keeps the pool
# object; freed later, among half-torn-down modules, it prints an ignored
# AttributeError from its weakref callback.
atexit.register(stop_sweep_pool)


def _cell(minutes: float | None) -> str:
    if minutes is None:
        return NEVER
    return f"{minutes:.1f}" if minutes != int(minutes) else f"{int(minutes)}"


def _value_label(value) -> str:
    if isinstance(value, (list, tuple)):
        return "+".join(str(v) for v in value)
    return f"{value:g}" if isinstance(value, float) else str(value)


def write_run_artifacts(out_dir: str | Path, case: GridCase, schedule: Schedule,
                        validation, objective: float | None = None) -> dict[str, Path]:
    """Write the standard artifact set for one solved case."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "schedule": out / "schedule.json",
        "validation": out / "validation.json",
        "gsus": out / "gsus.csv",
        "restored_power": out / "restored_power.csv",
    }
    paths["schedule"].write_text(schedule.dumps())
    paths["validation"].write_text(validation.dumps())
    paths["gsus"].write_text(gsus_table(schedule, case).to_csv())
    paths["restored_power"].write_text(series_to_csv(restored_power_series(schedule, case)))
    return paths
