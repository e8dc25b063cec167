"""Reporting and sensitivity sweeps over solved cases.

Startup time reported everywhere is the wall-clock time at which cranking
begins: a unit starting at step s has been down for (s-1) steps, i.e.
(s-1)*step_minutes minutes. Sweep scenarios re-load the case from its
canonical document with one axis changed, so runs are independent and
reproducible; rows of a sweep CSV are generators (plus the average), and
columns are the axis values.

The caller applies each axis value; each scenario is encoded, solved,
decoded and validated, none of it weakened, on one of ``min(workers,
len(values))`` of this process's solver hosts (``solvers.external``),
which stay for its later solves and sweeps, so a host's start-up (the
fork, the HiGHS import) is paid once per process. A host that dies or
times out fails only its own scenario, as an ``error`` row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from . import solvers
from .caseio import case_to_document, load_case
from .devices import system_power
from .grid import GridCase
from .schedule import Schedule
from .solvers.external import solve_on_hosts

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
        if self.backend not in solvers.BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; "
                             f"expected one of {solvers.BACKENDS}")
        if self.workers < 1:
            raise ValueError(f"sweep needs at least one worker, got {self.workers}")
        if self.axis == "fc_capacity" and not self.case.fuel_cells:
            raise ValueError("fc_capacity sweep needs at least one fuel cell in the case")
        if self.axis in ("battery_capacity", "battery_soc") and not self.case.batteries:
            raise ValueError(f"{self.axis} sweep needs at least one battery in the case")
        n_devices = len(self.case.fuel_cells) + len(self.case.batteries)
        if self.axis == "resource_location":
            buses = {b.id for b in self.case.buses}
            for v in self.values:
                if not isinstance(v, (list, tuple)) or len(v) != n_devices:
                    raise ValueError(
                        "resource_location values must list one bus per fuel cell "
                        f"and battery ({n_devices} entries), got {v!r}"
                    )
                unknown = [bus for bus in v if bus not in buses]
                if unknown:
                    raise ValueError(f"resource_location value {_value_label(v)} names "
                                     f"buses the case lacks: {unknown}")


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


def sweep(spec: SweepSpec) -> SweepResult:
    """Solve one scenario per axis value, on ``min(spec.workers,
    len(spec.values))`` of this process's solver hosts at once; failures
    land in the row, not raised.

    A value that does not apply, or whose solve raised, is an ``error`` row
    that says where; so is one whose host died or timed out. Any other
    exception, ``KeyboardInterrupt`` included, is raised once the busy
    hosts are killed.
    """
    rows: dict[int, SweepRow] = {}
    cases: dict[int, GridCase] = {}
    for i, value in enumerate(spec.values):
        try:
            cases[i] = apply_axis_value(spec.case, spec.axis, value)
        except Exception as exc:
            rows[i] = SweepRow(value=value, status="error",
                               message=f"apply_axis_value: {type(exc).__name__}: {exc}")
    results = solve_on_hosts(list(cases.values()), spec.workers, backend=spec.backend,
                             command=spec.solver_command, enum_cap=spec.enum_cap)
    for (i, case), result in zip(cases.items(), results):
        rows[i] = _scenario_row(spec.values[i], case, result)
    return SweepResult(axis=spec.axis, rows=[rows[i] for i in range(len(spec.values))])


def _scenario_row(value, case: GridCase, result: solvers.SolveResult | Exception) -> SweepRow:
    if isinstance(result, Exception):
        return SweepRow(value=value, status="error",
                        message=f"solve: {type(result).__name__}: {result}")
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
