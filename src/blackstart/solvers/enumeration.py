"""Exhaustive-search backend: the independent oracle for small cases.

Decisions enumerated: each non-black-start generator's start step within
its window (or never), and each battery's discharge window (or never).
Black-start generators and fuel cells are pinned to step 2. For every
combination a forward simulation runs the earliest-energization closure,
checks that each decided start lands on an energized bus, and dispatches
batteries greedily at the minimum level that keeps the power balance
nonnegative. Infeasible combinations are discarded; the best survivor by
objective wins, ties broken by the lexicographic start vector over device
ids (earlier starts preferred, then later discharge ends).

Everything here is straight simulation on the device semantics; none of
the MILP machinery is consulted, which is what makes agreement between the
two paths meaningful.

``greedy_schedule`` builds one feasible schedule from a few decisions, by the
same simulation, for the MILP solver to start from.
"""

from __future__ import annotations

import itertools
import math
import time

from ..devices import battery_trajectory, bus_holders, output_curves, power_sum, shift_curve
from ..grid import Battery, Generator, GridCase
from ..milp import objective_value
from ..schedule import Schedule, empty_schedule
from ..validate import validate
from .result import ERROR, INFEASIBLE, OPTIMAL, SolveResult

DEFAULT_COMBINATION_CAP = 500_000


class EnumerationCapError(RuntimeError):
    """The decision space exceeds the configured cap."""


def _gen_options(g: Generator) -> list[int | None]:
    if g.is_black_start:
        return [2]
    return [None, *range(g.start_min, g.start_max + 1)]


def _battery_options(b: Battery, T: int) -> list[tuple[int, int] | None]:
    options: list[tuple[int, int] | None] = [None]
    for s in range(b.start_min, T + 1):
        for e in range(s + 1, T + 2):
            options.append((s, e))
    return options


def energization_closure(case: GridCase, sources: dict[str, int]
                         ) -> tuple[dict[str, int | None], dict[str, int | None]]:
    """Earliest energization step of every bus and branch.

    sources maps bus id -> step at which a self-start device lights it.
    A branch lights one step after either endpoint; it lights its far
    endpoint in the same step it comes up. One pass over the buses in the
    order they light, kept in a bucket per step: a breadth-first search
    whose sources start at their own steps.
    """
    T = case.time_grid.n_steps
    bus_step: dict[str, int | None] = {b.id: None for b in case.buses}
    branch_step: dict[str, int | None] = {k.id: None for k in case.branches}
    ends = {k.id: (k.from_bus, k.to_bus) for k in case.branches}
    lit: list[list[str]] = [[] for _ in range(T + 1)]  # lit[s]: buses lit at step s
    for b_id, s in sources.items():
        if s <= T:
            bus_step[b_id] = s
            lit[s].append(b_id)
    for s in range(T):  # a bus lit at T lights no branch within the horizon
        for b_id in lit[s]:
            for k_id in case.adjacency.branches[b_id]:
                if branch_step[k_id] is None:
                    branch_step[k_id] = s + 1
                    for end in ends[k_id]:
                        if bus_step[end] is None or s + 1 < bus_step[end]:
                            bus_step[end] = s + 1
                            lit[s + 1].append(end)
    return bus_step, branch_step


def _sources(holders: dict[str, list[tuple[int, int, bool]]]) -> dict[str, int]:
    """Bus id -> the first step a self-start unit among its ``holders``
    (``devices.bus_holders``) lights it."""
    sources: dict[str, int] = {}
    for bus, units in holders.items():
        for first, _, self_start in units:
            if self_start and first < sources.get(bus, first + 1):
                sources[bus] = first
    return sources


def self_start_closure(case: GridCase, bat_windows: dict[str, tuple[int, int] | None]
                       ) -> tuple[dict[str, int | None], dict[str, int | None]]:
    """The ``energization_closure`` lit by the self-start units alone:
    black-start generators and fuel cells from step 2, and the batteries
    in ``bat_windows``."""
    starts = {g.id: 2 if g.is_black_start else None for g in case.generators}
    holders = bus_holders(case, starts, {f.id: 2 for f in case.fuel_cells}, bat_windows)
    return energization_closure(case, _sources(holders))


def _simulate(case: GridCase,
              gen_starts: dict[str, int | None],
              bat_windows: dict[str, tuple[int, int] | None],
              curves: dict[str, list[float]],
              closure: tuple[dict[str, int | None], dict[str, int | None]] | None = None
              ) -> Schedule | None:
    """Forward-simulate one decision combination; None if infeasible.
    ``curves`` are the case's ``output_curves``, and ``closure`` is
    ``self_start_closure(case, bat_windows)``, where the caller has it
    already."""
    T = case.time_grid.n_steps
    hours = case.time_grid.step_minutes / 60.0
    fc_start = {f.id: 2 for f in case.fuel_cells}
    holders = bus_holders(case, gen_starts, fc_start, bat_windows)
    bus_step, branch_step = closure or energization_closure(case, _sources(holders))

    # every decided start must land on a bus energized by that step
    for g in case.generators:
        s, lit = gen_starts[g.id], bus_step[g.bus]
        if s is not None and (lit is None or lit > s):
            return None

    # a bus must stay held after a battery window there closes: by another
    # unit, or by a branch from the step the first one is lit (energization
    # is monotone; a lit branch's step is >= 2, so ``filter`` drops only None)
    branches = case.adjacency.branches
    for bus, units in holders.items():
        for _, closes, _ in units:
            if closes <= T:
                by_branch = min(filter(None, map(branch_step.get, branches[bus])), default=T + 1)
                for t in range(closes, by_branch):
                    if not any(first <= t < until for first, until, _ in units):
                        return None

    base = power_sum([*(shift_curve(curves[g.id], gen_starts[g.id], T) for g in case.generators),
                      *(shift_curve(curves[f.id], 2, T) for f in case.fuel_cells)], T)

    dispatch: dict[str, list[float]] = {b.id: [0.0] * T for b in case.batteries}
    soc_left = {b.id: b.soc_init - b.soc_min for b in case.batteries}
    windows = [(b, w) for b in case.batteries if (w := bat_windows[b.id]) is not None]
    for t in range(1, T + 1):
        open_now = [b for b, (start, end) in windows if start <= t < end]
        level = base[t - 1]
        for b in open_now:
            if b.p_min * hours > soc_left[b.id] + 1e-9:
                return None  # window open but the floor output would sink SOC
            dispatch[b.id][t - 1] = b.p_min
            level += b.p_min
        if level < -1e-9:
            need = -level
            for b in open_now:
                headroom = min(b.p_max - b.p_min, soc_left[b.id] / hours - b.p_min)
                extra = min(need, max(headroom, 0.0))
                dispatch[b.id][t - 1] += extra
                need -= extra
                if need <= 1e-9:
                    break
            if need > 1e-9:
                return None
        for b in open_now:
            soc_left[b.id] -= dispatch[b.id][t - 1] * hours

    sched = empty_schedule(case)
    sched.gen_start = dict(gen_starts)
    sched.fc_start = fc_start
    sched.bat_window = dict(bat_windows)
    sched.bat_dispatch = dispatch
    for b in case.buses:
        s = bus_step[b.id]
        sched.bus_on[b.id] = [s is not None and t >= s for t in range(1, T + 1)]
    for k in case.branches:
        s = branch_step[k.id]
        sched.branch_on[k.id] = [s is not None and t >= s for t in range(1, T + 1)]
    return sched


def greedy_schedule(case: GridCase) -> Schedule | None:
    """The best feasible schedule of a few decision sets tried in turn, or
    None where none of them is feasible.

    Black-start generators and fuel cells start at step 2. The batteries
    either never discharge, or all open their windows at their earliest
    start for the same number of steps: 1, 2, 4, ... below the horizon, or
    the whole horizon. For each such choice and each of a few fixed orders,
    each other generator takes its earliest start at which its bus is lit
    and its draw leaves the system's power nonnegative at every step, the
    open batteries counted at their floor plus their headroom, or never
    where there is none. Each of these start vectors is simulated with
    ``_simulate``, which dispatches the batteries as the oracle does, and
    the lowest ``objective_value`` wins, ties to the one tried first.
    """
    T = case.time_grid.n_steps
    lengths: list[int | None] = [None]
    if case.batteries:
        lengths += [2 ** i for i in range(T.bit_length()) if 2 ** i < T] + [T]
    curves = output_curves(case)
    best: tuple[float, Schedule] | None = None
    for length in lengths:
        windows = {b.id: None if length is None
                   else (b.start_min, min(b.start_min + length, T + 1))
                   for b in case.batteries}
        closure = self_start_closure(case, windows)
        for starts in _greedy_starts(case, windows, closure[0], curves):
            sched = _simulate(case, starts, windows, curves, closure)
            if sched is not None:
                obj = objective_value(case, sched)
                if best is None or obj < best[0]:
                    best = (obj, sched)
    return None if best is None else best[1]


def _greedy_starts(case: GridCase, windows: dict[str, tuple[int, int] | None],
                   bus_step: dict[str, int | None], curves: dict[str, list[float]]
                   ) -> list[dict[str, int | None]]:
    """The distinct start vectors from a few fixed orders of the
    non-black-start generators: case order, ``p_max - p_crank``
    descending, cranking energy ascending, and the step their bus is first
    lit."""
    T = case.time_grid.n_steps
    # the self-starting units' output and the open batteries' floors, and
    # the open batteries' headroom above their floors
    floor = power_sum([
        *(shift_curve(curves[g.id], 2, T) for g in case.generators if g.is_black_start),
        *(shift_curve(curves[f.id], 2, T) for f in case.fuel_cells),
        *(battery_trajectory(windows[b.id], [b.p_min] * T) for b in case.batteries)], T)
    cover = power_sum([battery_trajectory(windows[b.id], [b.p_max - b.p_min] * T)
                       for b in case.batteries], T)
    others = [g for g in case.generators if not g.is_black_start]
    profile = {g.id: shift_curve(curves[g.id], 1, T) for g in others}

    def first_lit(g: Generator) -> float:
        lit = bus_step[g.bus]
        return math.inf if lit is None else max(lit, g.start_min)

    orders = {tuple(order): None for order in (
        others,
        sorted(others, key=lambda g: g.p_crank - g.p_max),
        sorted(others, key=lambda g: g.p_crank * g.crank_steps),
        sorted(others, key=first_lit),
    )}
    vectors: dict[tuple, dict[str, int | None]] = {}
    for order in orders:
        level = list(floor)
        chosen = {g.id: _earliest_start(g, first_lit(g), profile[g.id], level, cover)
                  for g in order}
        starts = {g.id: 2 if g.is_black_start else chosen[g.id] for g in case.generators}
        vectors.setdefault(tuple(starts.values()), starts)
    return list(vectors.values())


def _earliest_start(g: Generator, first: float, profile: list[float],
                    level: list[float], cover: list[float]) -> int | None:
    """The earliest start of ``g`` from ``first`` on at which ``level`` plus
    its output stays at or above ``-cover`` at every step, added to
    ``level``; None where there is none. ``profile`` is its output when
    started at step 1."""
    if first == math.inf:
        return None
    for s in range(int(first), g.start_max + 1):
        shifted = range(s - 1, len(level))
        if all(level[i] + profile[i - s + 1] >= -cover[i] - 1e-9 for i in shifted):
            for i in shifted:
                level[i] += profile[i - s + 1]
            return s
    return None


def _tiebreak_key(gen_starts: dict[str, int | None],
                  bat_windows: dict[str, tuple[int, int] | None]) -> tuple:
    """Lexicographic start vector by device id; earlier starts win, then
    later discharge ends (a window held open mirrors a fuel cell)."""
    never = math.inf
    key: list[float] = []
    for g in sorted(gen_starts):
        s = gen_starts[g]
        key.append(never if s is None else s)
    for b in sorted(bat_windows):
        w = bat_windows[b]
        key.append(never if w is None else w[0])
        key.append(0 if w is None else -w[1])
    return tuple(key)


def solve_enumeration(case: GridCase, cap: int = DEFAULT_COMBINATION_CAP) -> SolveResult:
    """Optimal schedule by exhaustive enumeration of decision combinations."""
    t0 = time.monotonic()
    T = case.time_grid.n_steps
    gen_opts = [_gen_options(g) for g in case.generators]
    bat_opts = [_battery_options(b, T) for b in case.batteries]
    n_combos = math.prod([len(o) for o in gen_opts] + [len(o) for o in bat_opts])
    if n_combos > cap:
        raise EnumerationCapError(
            f"{n_combos} decision combinations exceed the cap of {cap}"
        )

    curves = output_curves(case)
    best: tuple[float, tuple, Schedule] | None = None
    explored = 0
    for combo in itertools.product(*gen_opts, *bat_opts):
        explored += 1
        gen_starts = {g.id: combo[i] for i, g in enumerate(case.generators)}
        bat_windows = {b.id: combo[len(gen_opts) + j] for j, b in enumerate(case.batteries)}
        sched = _simulate(case, gen_starts, bat_windows, curves)
        if sched is None:
            continue
        obj = objective_value(case, sched)
        key = _tiebreak_key(gen_starts, bat_windows)
        if best is None or (obj, key) < (best[0], best[1]):
            best = (obj, key, sched)

    report = None if best is None else validate(case, best[2])
    stats = {
        "combinations": n_combos,
        "explored": explored,
        "wall_time_s": time.monotonic() - t0,
    }
    if best is None:
        return SolveResult(status=INFEASIBLE, stats=stats,
                           message="no feasible decision combination")
    obj, _, sched = best
    if not report.passed:
        return SolveResult(
            status=ERROR, stats=stats, schedule=sched, validation=report,
            message="enumeration winner failed validation (internal inconsistency)",
        )
    return SolveResult(
        status=OPTIMAL,
        objective=obj,
        stats=stats,
        schedule=sched,
        validation=report,
    )
