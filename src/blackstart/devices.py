"""Closed-form lifecycle trajectories for each device given its start decision.

These are the semantic ground truth: the optimizer encoding and the
validator must both agree with the values produced here. Injections are
net MW at each step; cranking shows up as a negative draw.

Lifecycle of a generator or fuel cell started at step s:

    t <  s                         off, 0 MW
    s <= t < s+crank               cranking, -p_crank MW
    s+crank <= t < s+crank+ramp    ramping, p_max * k / ramp_steps at the
                                   k-th ramp step
    afterwards                     p_max MW

A black-start generator cranks on its own station supply, so its cranking
draw on the grid is zero. A battery injects its dispatch while its
discharge window is open and nothing otherwise; whether that dispatch lies
in [p_min, p_max] is the validator's eq46 check, not a condition here.

This module is the one path from a start decision to MW. ``output_curve``
(``output_curves`` for a whole case) gives a unit's lifecycle once,
``shift_curve`` places it at a start step, ``battery_trajectory`` masks a
dispatch to its window, and ``power_sum`` adds series pointwise in the
order they are given. Everything that needs
a unit's output or the system's (the encoder, the oracle and its greedy
start, the validator, the reports) goes through them.

It is also the one path from a start decision to the buses a unit holds
live (eq34, eq48 at battery buses): ``bus_holders`` gives each unit's
interval and whether it can light a dark bus. The validator, the
energization chain and the oracle read it; only the encoder's eq34/eq48
rows state the rule again, in column form, as an independent check.
"""

from __future__ import annotations

from collections.abc import Iterable

from .grid import Battery, FuelCell, Generator, GridCase
from .schedule import Schedule


def output_curve(unit: Generator | FuelCell) -> list[float]:
    """Net MW the unit injects 0, 1, ... steps after its startup begins, up
    to and including its first step at p_max, which it holds afterwards."""
    draw = 0.0 if isinstance(unit, Generator) and unit.is_black_start else unit.p_crank
    ramp = [unit.p_max * k / unit.ramp_steps for k in range(1, unit.ramp_steps)]
    return [-draw] * unit.crank_steps + ramp + [unit.p_max]


def output_curves(case: GridCase) -> dict[str, list[float]]:
    """Each generator's and fuel cell's ``output_curve`` by id."""
    return {unit.id: output_curve(unit) for unit in (*case.generators, *case.fuel_cells)}


def shift_curve(curve: list[float], start: int | None, n_steps: int) -> list[float]:
    """The MW at steps 1..n_steps of a unit with output ``curve`` whose
    startup begins at step ``start`` (any integer); all 0.0 for None."""
    if start is None:
        return [0.0] * n_steps
    lead = min(max(start - 1, 0), n_steps)  # steps before the startup
    skip = max(1 - start, 0)  # curve steps already behind at step 1
    body = curve[skip:skip + n_steps - lead]
    return [0.0] * lead + body + [curve[-1]] * (n_steps - lead - len(body))


def battery_trajectory(window: tuple[int, int] | None, dispatch: list[float]
                       ) -> list[float]:
    """A battery's net MW per step: its dispatch inside its discharge
    window [start, end), 0.0 outside it and everywhere for None."""
    if window is None:
        return [0.0] * len(dispatch)
    start, end = window
    return [p if start <= t < end else 0.0 for t, p in enumerate(dispatch, start=1)]


def power_sum(series: Iterable[list[float]], n_steps: int) -> list[float]:
    """Pointwise sum of per-device series, added in the order given."""
    total = [0.0] * n_steps
    for one in series:
        for i, p in enumerate(one):
            total[i] += p
    return total


def bus_holders(case: GridCase, gen_start: dict[str, int | None],
                fc_start: dict[str, int | None],
                bat_window: dict[str, tuple[int, int] | None]
                ) -> dict[str, list[tuple[int, int, bool]]]:
    """For each bus with a started unit, one ``(first, until, self_start)``
    per such unit, in case order. The unit holds the bus live at steps
    ``first <= t < until``: a black-start generator or fuel cell from its
    start, any other generator once it has cranked, a battery while its
    window is open (``until`` is n_steps + 1 where it holds to the end).
    ``self_start`` marks the units that can also light a dark bus: all but
    the other generators."""
    end = case.time_grid.n_steps + 1
    holders: dict[str, list[tuple[int, int, bool]]] = {}
    for g in case.generators:
        s = gen_start[g.id]
        if s is not None:
            first = s if g.is_black_start else s + g.crank_steps
            holders.setdefault(g.bus, []).append((first, end, g.is_black_start))
    for f in case.fuel_cells:
        s = fc_start[f.id]
        if s is not None:
            holders.setdefault(f.bus, []).append((s, end, True))
    for b in case.batteries:
        window = bat_window[b.id]
        if window is not None:
            holders.setdefault(b.bus, []).append((*window, True))
    return holders


def soc_trajectory(b: Battery, trajectory: list[float], step_minutes: float
                   ) -> tuple[list[float], list[int]]:
    """Per-step state of charge in MWh and the steps where it dips below soc_min.

    SOC after step t is soc_init minus the energy discharged through t.
    Infeasibility is reported, not raised.
    """
    hours = step_minutes / 60.0
    soc = []
    low: list[int] = []
    level = b.soc_init
    for i, p in enumerate(trajectory):
        level -= p * hours
        soc.append(level)
        if level < b.soc_min - 1e-9:
            low.append(i + 1)
    return soc, low


def device_trajectories(case: GridCase, schedule: Schedule) -> dict[str, list[float]]:
    """Per-device semantic injection series for a complete schedule:
    generators, then fuel cells, then batteries."""
    T = case.time_grid.n_steps
    curves = output_curves(case)
    out: dict[str, list[float]] = {}
    for g in case.generators:
        out[g.id] = shift_curve(curves[g.id], schedule.gen_start[g.id], T)
    for f in case.fuel_cells:
        out[f.id] = shift_curve(curves[f.id], schedule.fc_start[f.id], T)
    for b in case.batteries:
        out[b.id] = battery_trajectory(schedule.bat_window[b.id], schedule.bat_dispatch[b.id])
    return out


def system_power(case: GridCase, schedule: Schedule) -> list[float]:
    """Pointwise sum of all device injections over the horizon."""
    return power_sum(device_trajectories(case, schedule).values(), case.time_grid.n_steps)
