"""Independent verification of schedules against the constraint system.

The validator recomputes every trajectory from the device semantics and
never trusts solver-reported continuous values; when a schedule carries
solver injections they are cross-checked and any disagreement beyond
1e-6 MW is itself a violation. Every check is tagged with the constraint
family it enforces (eq2, eq29..eq48, ...) so reports can be diffed against
the model's constraint names.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path

from .devices import fuel_cell_trajectory, generator_trajectory, soc_trajectory
from .grid import GridCase
from .schedule import Schedule

BALANCE_TOL = 1e-6
POWER_TOL = 1e-6


class MalformedScheduleError(ValueError):
    """The schedule does not cover the case (shape problem, not content)."""


class ChainError(ValueError):
    """No energization witness exists for the requested bus."""


@dataclass
class Violation:
    tag: str
    entity: str
    step: int | None
    lhs: float | None = None
    rhs: float | None = None
    message: str = ""

    def to_document(self) -> dict:
        return {
            "tag": self.tag,
            "entity": self.entity,
            "step": self.step,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "message": self.message,
        }


@dataclass
class ValidationReport:
    passed: bool
    violations: list[Violation]
    system_power: list[float] = field(default_factory=list)
    soc: dict[str, list[float]] = field(default_factory=dict)
    bus_energized: dict[str, int | None] = field(default_factory=dict)
    branch_energized: dict[str, int | None] = field(default_factory=dict)

    def to_document(self) -> dict:
        return {
            "passed": self.passed,
            "violations": [v.to_document() for v in self.violations],
            "system_power": self.system_power,
            "soc": self.soc,
            "bus_energized": self.bus_energized,
            "branch_energized": self.branch_energized,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_document(), sort_keys=True, indent=2) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.dumps())


def _check_shape(case: GridCase, schedule: Schedule) -> None:
    T = case.time_grid.n_steps
    if schedule.n_steps != T:
        raise MalformedScheduleError(f"schedule spans {schedule.n_steps} steps, case has {T}")
    for g in case.generators:
        if g.id not in schedule.gen_start:
            raise MalformedScheduleError(f"schedule missing generator {g.id}")
    for f in case.fuel_cells:
        if f.id not in schedule.fc_start:
            raise MalformedScheduleError(f"schedule missing fuel cell {f.id}")
    for b in case.batteries:
        if b.id not in schedule.bat_window or b.id not in schedule.bat_dispatch:
            raise MalformedScheduleError(f"schedule missing battery {b.id}")
        if len(schedule.bat_dispatch[b.id]) != T:
            raise MalformedScheduleError(f"battery {b.id}: dispatch length != horizon")
        window = schedule.bat_window[b.id]
        if window is not None and (window[0] > T or window[1] > T + 1):
            raise MalformedScheduleError(f"battery {b.id}: window {tuple(window)} runs past "
                                         f"the horizon of {T} steps")
    for bus in case.buses:
        if bus.id not in schedule.bus_on or len(schedule.bus_on[bus.id]) != T:
            raise MalformedScheduleError(f"schedule missing bus flags for {bus.id}")
    for k in case.branches:
        if k.id not in schedule.branch_on or len(schedule.branch_on[k.id]) != T:
            raise MalformedScheduleError(f"schedule missing branch flags for {k.id}")


def validate(case: GridCase, schedule: Schedule) -> ValidationReport:
    """Check a schedule against every constraint family; list all violations."""
    _check_shape(case, schedule)
    T = case.time_grid.n_steps
    adj = case.adjacency
    v: list[Violation] = []

    def bus_on(b: str, t: int) -> bool:
        return schedule.bus_on[b][t - 1]

    def branch_on(k: str, t: int) -> bool:
        return schedule.branch_on[k][t - 1]

    # (a) complete blackout at step 1
    for b in case.buses:
        if bus_on(b.id, 1):
            v.append(Violation("eq37", b.id, 1, message="bus energized at the blackout step"))
    for k in case.branches:
        if branch_on(k.id, 1):
            v.append(Violation("eq38", k.id, 1, message="branch energized at the blackout step"))
    for g in case.generators:
        if schedule.gen_start[g.id] == 1:
            v.append(Violation("eq35", g.id, 1, message="generator started at the blackout step"))
    for f in case.fuel_cells:
        if schedule.fc_start[f.id] == 1:
            v.append(Violation("eq36", f.id, 1, message="fuel cell started at the blackout step"))

    # (b) self-start devices come up at step 2
    for g in case.generators:
        if g.is_black_start and schedule.gen_start[g.id] != 2:
            v.append(Violation("eq39", g.id, schedule.gen_start[g.id],
                               message="black-start generator must start at step 2"))
    for f in case.fuel_cells:
        if schedule.fc_start[f.id] != 2:
            v.append(Violation("eq40", f.id, schedule.fc_start[f.id],
                               message="fuel cell must start at step 2"))

    # (c) start windows
    for g in case.generators:
        s = schedule.gen_start[g.id]
        if s is None or g.is_black_start:
            continue
        if s < g.start_min:
            v.append(Violation("eq3", g.id, s, lhs=float(s - 1), rhs=float(g.start_min - 1),
                               message="start before the earliest allowed step"))
        if s > g.start_max:
            v.append(Violation("eq4", g.id, s, lhs=float(s - 1), rhs=float(g.start_max - 1),
                               message="start after the latest allowed step"))
    for b in case.batteries:
        window = schedule.bat_window[b.id]
        if window is None:
            continue
        s, e = window
        if s == 1:
            v.append(Violation("eq45", b.id, 1, message="battery discharging at the blackout step"))
        elif s < b.start_min:
            v.append(Violation("eq45", b.id, s, lhs=float(s - 1), rhs=float(b.start_min - 1),
                               message="discharge before the earliest allowed step"))
        if e < s:
            v.append(Violation("eq41", b.id, e, message="discharge window ends before it starts"))

    # trajectories (semantic ground truth): generators and fuel cells from
    # their starts; a battery injects its dispatch inside its window and
    # nothing outside, so the bounds below are checked, not imposed
    traj: dict[str, list[float]] = {}
    for g in case.generators:
        traj[g.id] = generator_trajectory(g, schedule.gen_start[g.id], case.time_grid)
    for f in case.fuel_cells:
        traj[f.id] = fuel_cell_trajectory(f, schedule.fc_start[f.id], case.time_grid)

    # battery dispatch bounds (eq46) and dispatch outside the window
    for b in case.batteries:
        window = schedule.bat_window[b.id]
        dispatch = schedule.bat_dispatch[b.id]
        traj[b.id] = [0.0] * T
        for t in range(1, T + 1):
            p = dispatch[t - 1]
            if window is not None and window[0] <= t < window[1]:
                traj[b.id][t - 1] = p
                if not p >= b.p_min - POWER_TOL:
                    v.append(Violation("eq46lo", b.id, t, lhs=p, rhs=b.p_min,
                                       message="dispatch below minimum output"))
                if not p <= b.p_max + POWER_TOL:
                    v.append(Violation("eq46hi", b.id, t, lhs=p, rhs=b.p_max,
                                       message="dispatch above maximum output"))
            elif not abs(p) <= POWER_TOL:
                v.append(Violation("eq46hi", b.id, t, lhs=p, rhs=0.0,
                                   message="dispatch outside the discharge window"))

    # (d) per-step cranking-power balance
    total = [0.0] * T
    for series in traj.values():
        for i, p in enumerate(series):
            total[i] += p
    for t in range(1, T + 1):
        if total[t - 1] < -BALANCE_TOL:
            v.append(Violation("eq2", "system", t, lhs=total[t - 1], rhs=0.0,
                               message="restored power insufficient for cranking draw"))

    # (e) energization causality
    starts = {}
    for g in case.generators:
        starts[g.id] = (schedule.gen_start[g.id], g.bus)
    for f in case.fuel_cells:
        starts[f.id] = (schedule.fc_start[f.id], f.bus)
    for b in case.batteries:
        window = schedule.bat_window[b.id]
        starts[b.id] = (window[0] if window else None, b.bus)
    for dev_id, (s, bus) in sorted(starts.items()):
        if s is not None and 2 <= s <= T and not bus_on(bus, s):
            v.append(Violation("eq29", dev_id, s,
                               message=f"device starts while bus {bus} is dark"))

    for k in case.branches:
        for t in range(1, T + 1):
            if branch_on(k.id, t):
                if not bus_on(k.from_bus, t):
                    v.append(Violation("eq30", k.id, t,
                                       message=f"branch live while bus {k.from_bus} is dark"))
                if not bus_on(k.to_bus, t):
                    v.append(Violation("eq31", k.id, t,
                                       message=f"branch live while bus {k.to_bus} is dark"))
        for t in range(2, T + 1):
            if branch_on(k.id, t) and not branch_on(k.id, t - 1):
                if not (bus_on(k.from_bus, t - 1) or bus_on(k.to_bus, t - 1)):
                    v.append(Violation("eq33", k.id, t,
                                       message="branch energized with no endpoint live a step earlier"))

    # monotone statuses (buses and branches; device statuses are monotone by
    # construction of the start/window representation)
    for b in case.buses:
        flags = schedule.bus_on[b.id]
        for t in range(1, T):
            if flags[t - 1] and not flags[t]:
                v.append(Violation("eq32", b.id, t + 1, message="bus de-energized"))
    for k in case.branches:
        flags = schedule.branch_on[k.id]
        for t in range(1, T):
            if flags[t - 1] and not flags[t]:
                v.append(Violation("eq32", k.id, t + 1, message="branch de-energized"))

    # bus justification: live bus needs a live incident branch or a source
    by_gen = {g.id: g for g in case.generators}
    for b in case.buses:
        bats_here = adj.batteries[b.id]
        tag = "eq48" if bats_here else "eq34"
        for t in range(1, T + 1):
            if not bus_on(b.id, t):
                continue
            if any(branch_on(k_id, t) for k_id in adj.branches[b.id]):
                continue
            justified = False
            for g_id in adj.generators[b.id]:
                g = by_gen[g_id]
                s = schedule.gen_start[g_id]
                if s is None:
                    continue
                if g.is_black_start and s <= t:
                    justified = True
                if not g.is_black_start and s + g.crank_steps <= t:
                    justified = True
            for f_id in adj.fuel_cells[b.id]:
                s = schedule.fc_start[f_id]
                if s is not None and s <= t:
                    justified = True
            for bt_id in bats_here:
                window = schedule.bat_window[bt_id]
                if window is not None and window[0] <= t < window[1]:
                    justified = True
            if not justified:
                v.append(Violation(tag, b.id, t, message="bus live with no justifying source"))

    # (f) SOC floor
    soc: dict[str, list[float]] = {}
    for b in case.batteries:
        series, low = soc_trajectory(b, traj[b.id], case.time_grid.step_minutes)
        soc[b.id] = series
        for t in low:
            v.append(Violation("eq47", b.id, t, lhs=series[t - 1], rhs=b.soc_min,
                               message="state of charge below the floor"))

    # solver-reported injections must match the semantics
    if schedule.solver_power:
        for g in case.generators:
            _check_power(v, "eq23g", g.id, schedule.solver_power.get(g.id), traj[g.id])
        for f in case.fuel_cells:
            _check_power(v, "eq23", f.id, schedule.solver_power.get(f.id), traj[f.id])

    report = ValidationReport(
        passed=not v,
        violations=v,
        system_power=total,
        soc=soc,
        bus_energized={b.id: schedule.bus_energized_step(b.id) for b in case.buses},
        branch_energized={k.id: schedule.branch_energized_step(k.id) for k in case.branches},
    )
    return report


def _check_power(v: list[Violation], tag: str, dev_id: str,
                 reported: list[float] | None, semantic: list[float]) -> None:
    if reported is None:
        return
    for t, (have, want) in enumerate(zip(reported, semantic), start=1):
        if not abs(have - want) <= POWER_TOL:  # a NaN injection fails too
            v.append(Violation(tag, dev_id, t, lhs=have, rhs=want,
                               message="solver injection disagrees with device semantics"))


def energization_chain(case: GridCase, schedule: Schedule, bus_id: str
                       ) -> list[tuple[str, int]]:
    """Witness chain from an energized bus back to a self-start resource.

    Entries alternate bus, branch, bus, ... with nonincreasing steps; every
    branch hop's step exceeds its upstream bus's step by at least one, and
    the chain ends at a bus hosting a self-start device at its energization
    step.
    """
    _check_shape(case, schedule)
    adj = case.adjacency
    branches = {k.id: k for k in case.branches}

    def bus_step(b: str) -> int | None:
        return schedule.bus_energized_step(b)

    def self_start_at(b: str, step: int) -> bool:
        for g_id in adj.generators[b]:
            g = case.generator(g_id)
            s = schedule.gen_start[g_id]
            if g.is_black_start and s is not None and s <= step:
                return True
        for f_id in adj.fuel_cells[b]:
            s = schedule.fc_start[f_id]
            if s is not None and s <= step:
                return True
        for bt_id in adj.batteries[b]:
            window = schedule.bat_window[bt_id]
            if window is not None and window[0] <= step < window[1]:
                return True
        return False

    step = bus_step(bus_id)
    if step is None:
        raise ChainError(f"bus {bus_id} is never energized")
    chain: list[tuple[str, int]] = [(bus_id, step)]
    current, cur_step = bus_id, step
    seen = {bus_id}
    while not self_start_at(current, cur_step):
        hop = None
        for k_id in adj.branches[current]:
            k_step = schedule.branch_energized_step(k_id)
            if k_step is None or k_step > cur_step:
                continue
            k = branches[k_id]
            other = k.to_bus if k.from_bus == current else k.from_bus
            o_step = bus_step(other)
            if other in seen or o_step is None or o_step > k_step - 1:
                continue
            cand = (o_step, k_step, k_id)
            if hop is None or cand < hop:
                hop = cand
        if hop is None:
            raise ChainError(
                f"no energization witness from bus {bus_id}: stuck at {current}@{cur_step}"
            )
        o_step, k_step, k_id = hop
        k = branches[k_id]
        other = k.to_bus if k.from_bus == current else k.from_bus
        chain.append((k_id, k_step))
        chain.append((other, o_step))
        seen.add(other)
        current, cur_step = other, o_step
    return chain


@dataclass
class MutationOutcome:
    label: str
    expected_tags: tuple[str, ...]
    detected: bool
    tags: tuple[str, ...]


@dataclass
class MutationResult:
    total: int
    detected: int
    outcomes: list[MutationOutcome]

    @property
    def all_caught(self) -> bool:
        return self.detected == self.total

    def detected_tags(self) -> set[str]:
        return {t for o in self.outcomes for t in o.tags}


def mutation_suite(case: GridCase, schedule: Schedule) -> MutationResult:
    """Apply targeted corruptions to a passing schedule; each must be caught.

    Only mutations that provably create a violation are included: shifting a
    start to a slack position inside its window is legal and excluded.
    """
    base = validate(case, schedule)
    if not base.passed:
        raise ValueError("mutation_suite requires a schedule that passes validation")
    T = case.time_grid.n_steps
    mutations: list[tuple[str, tuple[str, ...], Schedule]] = []

    def clone() -> Schedule:
        return copy.deepcopy(schedule)

    def bus_first_on(b: str) -> int | None:
        return schedule.bus_energized_step(b)

    for g in case.generators:
        s = schedule.gen_start[g.id]
        if s is None:
            continue
        if g.is_black_start:
            m = clone()
            m.gen_start[g.id] = 1
            mutations.append((f"{g.id}:start@1", ("eq35", "eq39"), m))
            m = clone()
            m.gen_start[g.id] = 3
            mutations.append((f"{g.id}:start@3", ("eq39",), m))
        else:
            if g.start_min >= 2:
                m = clone()
                m.gen_start[g.id] = g.start_min - 1
                tags = ("eq35",) if g.start_min - 1 == 1 else ("eq3",)
                mutations.append((f"{g.id}:start-before-window", tags, m))
            if s == g.start_max and g.start_max < T:
                m = clone()
                m.gen_start[g.id] = g.start_max + 1
                mutations.append((f"{g.id}:start-after-window", ("eq4",), m))
            if s - 1 >= g.start_min and not schedule.bus_on[g.bus][s - 2]:
                m = clone()
                m.gen_start[g.id] = s - 1
                mutations.append((f"{g.id}:start-on-dark-bus", ("eq29",), m))
    for f in case.fuel_cells:
        m = clone()
        m.fc_start[f.id] = 1
        mutations.append((f"{f.id}:start@1", ("eq36", "eq40"), m))
        m = clone()
        m.fc_start[f.id] = 3
        mutations.append((f"{f.id}:start@3", ("eq40",), m))
    for b in case.batteries:
        window = schedule.bat_window[b.id]
        if window is None:
            continue
        s, e = window
        m = clone()
        new_s = b.start_min - 1
        m.bat_window[b.id] = (new_s, e)
        disp = m.bat_dispatch[b.id]
        disp[new_s - 1] = max(b.p_min, disp[new_s - 1])
        mutations.append((f"{b.id}:discharge-before-window", ("eq45",), m))
        # overdraw: push one in-window step far enough to sink SOC below floor
        m = clone()
        t = e - 1 if e - 1 <= T else T
        hours = case.time_grid.step_minutes / 60.0
        m.bat_dispatch[b.id][t - 1] += (b.soc_init - b.soc_min) / hours + 1.0
        mutations.append((f"{b.id}:overdraw", ("eq47",), m))
        # dispatch above the maximum output
        m = clone()
        m.bat_dispatch[b.id][s - 1] = b.p_max + 5.0
        mutations.append((f"{b.id}:over-max-dispatch", ("eq46hi",), m))
        if b.p_min > POWER_TOL:
            m = clone()
            m.bat_dispatch[b.id][s - 1] = b.p_min / 2.0
            mutations.append((f"{b.id}:under-min-dispatch", ("eq46lo",), m))
        # balance: zero the dispatch at a step where the system needs it
        for t in range(s, min(e, T + 1)):
            others = base.system_power[t - 1] - schedule.bat_dispatch[b.id][t - 1]
            if others < -BALANCE_TOL:
                m = clone()
                m.bat_dispatch[b.id][t - 1] = 0.0
                mutations.append((f"{b.id}:drop-needed-dispatch", ("eq2", "eq46lo"), m))
                break

    # a blackout-step energization on the earliest-lit bus stays monotone
    early = [b.id for b in case.buses if bus_first_on(b.id) == 2]
    if early:
        m = clone()
        m.bus_on[early[0]][0] = True
        mutations.append((f"{early[0]}:lit-at-blackout", ("eq37",), m))
    lit_k = [k.id for k in case.branches if schedule.branch_energized_step(k.id) is not None]
    if lit_k:
        m = clone()
        m.branch_on[lit_k[0]][0] = True
        mutations.append((f"{lit_k[0]}:lit-at-blackout", ("eq38",), m))

    # de-energize one branch-step in the middle of its on-run
    for k in case.branches:
        tau = schedule.branch_energized_step(k.id)
        if tau is not None and tau + 1 <= T and schedule.branch_on[k.id][tau]:
            m = clone()
            m.branch_on[k.id][tau] = False
            mutations.append((f"{k.id}:deenergized-step", ("eq32",), m))
            break
    # break one monotone bus flag mid-run
    for b in case.buses:
        tau = bus_first_on(b.id)
        if tau is not None and tau + 1 <= T and schedule.bus_on[b.id][tau]:
            m = clone()
            m.bus_on[b.id][tau] = False
            mutations.append((f"{b.id}:monotone-break", ("eq32",), m))
            break
    # light a branch one step early: an endpoint must still be dark, or no
    # endpoint was live two steps back
    for k in case.branches:
        tau = schedule.branch_energized_step(k.id)
        if tau is None or tau < 3:
            continue
        from_on = schedule.bus_on[k.from_bus][tau - 2]
        to_on = schedule.bus_on[k.to_bus][tau - 2]
        if not (from_on and to_on):
            m = clone()
            m.branch_on[k.id][tau - 2] = True
            mutations.append((f"{k.id}:lit-early", ("eq30", "eq31"), m))
            break
        if not (schedule.bus_on[k.from_bus][tau - 3] or schedule.bus_on[k.to_bus][tau - 3]):
            m = clone()
            m.branch_on[k.id][tau - 2] = True
            mutations.append((f"{k.id}:lit-early", ("eq33",), m))
            break
    # light a bus one step early with no justification there
    for b in case.buses:
        tau = bus_first_on(b.id)
        if tau is None or tau < 3:
            continue
        t_early = tau - 1
        if any(schedule.branch_on[k_id][t_early - 1]
               for k_id in case.adjacency.branches[b.id]):
            continue
        m = clone()
        m.bus_on[b.id][t_early - 1] = True
        tag = "eq48" if case.adjacency.batteries[b.id] else "eq34"
        mutations.append((f"{b.id}:lit-early", (tag,), m))
        break

    outcomes: list[MutationOutcome] = []
    caught = 0
    for label, expected, mutant in mutations:
        report = validate(case, mutant)
        tags = tuple(sorted({viol.tag for viol in report.violations}))
        detected = not report.passed
        caught += detected
        outcomes.append(MutationOutcome(label, expected, detected, tags))
    return MutationResult(total=len(mutations), detected=caught, outcomes=outcomes)
