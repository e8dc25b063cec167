"""Time-expanded MILP of the restoration problem, as a solver-agnostic model.

Variable names follow the wire grammar ``<kind>.<entity>.<t>``;
constraint names are ``<eq-tag>.<entity>.t<t>`` (``eq47.<entity>``, a
battery's energy budget, has no step). Both are deterministic for a given
case, so exported models and imported solutions line up across runs and
processes.

Status binaries are monotone step functions of time: a device's start
series u_start is 0 until the start step and 1 afterwards, the generating
series u_on rises exactly crank_steps later, and the at-maximum series
u_max exactly ramp_steps after that. For such series u(t1)·u(t2) =
u(min(t1, t2)), so the paper's products of status binaries and their
envelope rows (its eq6-16) are left out: a fuel cell's output (eq23) sums
u_on and u_max over the steps so far, which is linear already.

The model is a ``model.MilpModel``. ``encode`` declares each variable
family as one block of T columns per entity, so step t of a series is its
block's offset plus t. Each equation family appends its rows in bulk
with ``MilpModel.add_rows``, and the objective is added into the model's
``c``. A solution is a point, a sequence of floats in ``model.names``
order; ``decode`` and ``point_from_schedule`` read and write its values at
the blocks' offsets.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable, Sequence

from .devices import device_trajectories, output_curve, shift_curve
from .grid import GridCase
from .model import EncodingError, MilpModel, row_sides
from .schedule import Schedule

# How far a binary may sit from 0 or 1 and still decode: a stated margin
# above HiGHS's default mip_feasibility_tolerance (1e-6), so that a legal
# answer at the solver's own edge decodes; validate still has the last word.
INTEGRALITY_TOL = 1e-5

GEN_START = "gen_start"
FC_START = "fc_start"
FC_ON = "fc_on"
FC_MAX = "fc_max"
BUS_ON = "bus_on"
BRANCH_ON = "branch_on"
BAT_WS = "bat_ws"
BAT_WE = "bat_we"
GEN_POWER = "gen_power"
FC_POWER = "fc_power"
BAT_POWER = "bat_power"

BINARY_KINDS = {GEN_START, FC_START, FC_ON, FC_MAX, BUS_ON, BRANCH_ON, BAT_WS, BAT_WE}


class DecodeError(ValueError):
    """A point cannot be read back as a schedule."""


def encode(case: GridCase) -> MilpModel:
    """Build the time-expanded startup-sequencing MILP for a case."""
    T = case.time_grid.n_steps
    steps = case.time_grid.steps
    _check_horizon(case)

    m = MilpModel(name="blackstart")
    step_names = [str(t) for t in steps]
    row_steps = [f"t{t}" for t in range(T + 1)]

    def series(prefixes: list[str], lb: float = 0, ub: float = 1,
               integer: bool = True) -> list[int]:
        """Declare ``<prefix>1`` .. ``<prefix>T`` for each prefix, one block
        after another; step t of the i-th is column ``series(...)[i] + t``."""
        first = m.add_vars([p + t for p in prefixes for t in step_names], lb, ub, integer) - 1
        return [first + T * i for i in range(len(prefixes))]

    def rows(entity: str, ts: range, *templates: tuple) -> None:
        """For each t in ``ts``, one row per template ``(tag, terms, sense,
        rhs)``, named ``<tag>.<entity>.t<t>``, with coefficient ``coef`` at
        column ``off + t`` for each ``(off, coef)`` in terms (distinct
        offsets); zero coefficients are dropped."""
        n, per_t, first = len(ts), len(templates), len(m.row_names)
        entries, coefs, sides = [], [], []
        for i, (tag, terms, sense, rhs) in enumerate(templates):
            for off, coef in sorted(terms):
                if coef != 0.0:
                    entries.append((first + i, off))
                    coefs.append(coef)
            sides.append(row_sides(tag, sense, rhs))
        width = len(entries)
        row, col = array("i", [0]) * (width * n), array("i", [0]) * (width * n)
        for e, (r, off) in enumerate(entries):
            row[e::width] = array("i", range(r, r + per_t * n, per_t))
            col[e::width] = array("i", range(off + ts.start, off + ts.stop))
        prefixes = [f"{tag}.{entity}." for tag, *_ in templates]
        m.add_rows([p + t for t in row_steps[ts.start:ts.stop] for p in prefixes],
                   array("d", [lo for lo, _ in sides]) * n, array("d", [hi for _, hi in sides]) * n,
                   row, col, array("d", coefs) * n)

    def flat(names: list[str], sense: str, rhs: float, widths: list[int], cols: Iterable[int],
             coefs: list[float]) -> None:
        """Rows ``names`` with one sense and rhs; row i's entries are the next
        ``widths[i]`` of ``cols`` and ``coefs``: ascending columns, nonzero coefs."""
        first = len(m.row_names)
        lo, hi = row_sides(names[0], sense, rhs)
        m.add_rows(names, array("d", [lo]) * len(names), array("d", [hi]) * len(names),
                   array("i", [i for i, w in enumerate(widths, first) for _ in range(w)]),
                   array("i", cols), array("d", coefs))

    def per_entity(kind: str, entities: tuple) -> dict[str, int]:
        """A ``kind`` series for each entity: its id -> its block's offset."""
        return dict(zip((e.id for e in entities), series([f"{kind}.{e.id}." for e in entities])))

    # --- variables: one block per family and entity, in this order -----------
    gs = per_entity(GEN_START, case.generators)
    fc = {f.id: series([f"{kind}.{f.id}." for kind in (FC_START, FC_ON, FC_MAX)])
          for f in case.fuel_cells}
    bus = per_entity(BUS_ON, case.buses)
    br = per_entity(BRANCH_ON, case.branches)
    win = {bt.id: series([f"{BAT_WS}.{bt.id}.", f"{BAT_WE}.{bt.id}."]) for bt in case.batteries}
    gp = {g.id: series([f"{GEN_POWER}.{g.id}."], -(0.0 if g.is_black_start else g.p_crank),
                       g.p_max, False)[0] for g in case.generators}
    fp = {f.id: series([f"{FC_POWER}.{f.id}."], -f.p_crank, f.p_max, False)[0]
          for f in case.fuel_cells}
    bp = {bt.id: series([f"{BAT_POWER}.{bt.id}."], 0, bt.p_max, False)[0]
          for bt in case.batteries}

    # --- blackout and self-start fixings --------------------------------------
    dark = [*gs.values(), *(offs[0] for offs in fc.values()), *bus.values(), *br.values(),
            *(off for pair in win.values() for off in pair)]
    m.fix([off + 1 for off in dark], 0)  # eq35-38
    for g in case.generators:
        if g.is_black_start:
            m.fix(range(gs[g.id] + 2, gs[g.id] + T + 1), 1)  # eq39
        else:
            m.fix(range(gs[g.id] + 2, gs[g.id] + g.start_min), 0)  # eq3
    for bt in case.batteries:
        m.fix(range(win[bt.id][0] + 2, win[bt.id][0] + bt.start_min), 0)  # eq45

    # --- status monotonicity and start windows --------------------------------
    for g in case.generators:
        s = gs[g.id]
        rows(g.id, range(1, T), ("eq24", [(s, 1), (s + 1, -1)], "<=", 0))
        if not g.is_black_start and g.start_max < T:
            late = range(g.start_max + 1, T + 1)
            flat([f"eq4.{g.id}.t{t}" for t in late], "=", 0, [2] * len(late),
                 [j for t in late for j in (s + g.start_max, s + t)], [-1, 1] * len(late))
    for f in case.fuel_cells:
        s, _, mx = fc[f.id]
        rows(f.id, range(1, T), ("eq24", [(s, 1), (s + 1, -1)], "<=", 0),
             ("eq25", [(mx, 1), (mx + 1, -1)], "<=", 0))

    # --- fuel-cell stage links ------------------------------------------------
    for f in case.fuel_cells:
        s, on, mx = fc[f.id]
        m.fix(range(s + 2, s + T + 1), 1)  # eq40
        m.fix(range(on + 1, on + f.crank_steps + 1), 0)
        m.fix(range(mx + 1, mx + f.ramp_steps + 1), 0)
        eq19 = ("eq19", [(on, 1), (s - f.crank_steps, -1)], "=", 0)
        eq22 = ("eq22", [(mx, 1), (on - f.ramp_steps, -1)], "=", 0)
        early, late = sorted((f.crank_steps, f.ramp_steps))
        rows(f.id, range(early + 1, late + 1), eq19 if f.crank_steps < f.ramp_steps else eq22)
        rows(f.id, range(late + 1, T + 1), eq19, eq22)

    # --- device output ---------------------------------------------------------
    # Fuel cell: -p_crank while started but not yet generating, then
    # p_max/ramp_steps for each step so far that was generating but not yet
    # at maximum: the sums of fc_on and fc_max up to t.
    for f in case.fuel_cells:
        s, on, mx = fc[f.id]
        slope = f.p_max / f.ramp_steps
        cols, coefs, widths = [], [], []
        for t in steps:
            terms = [(s + t, f.p_crank), *((on + tau, -slope) for tau in range(1, t)),
                     (on + t, -slope - f.p_crank), *((mx + tau, slope) for tau in range(1, t + 1)),
                     (fp[f.id] + t, 1.0)]
            live = [(j, a) for j, a in terms if a]
            cols += [j for j, _ in live]
            coefs += [a for _, a in live]
            widths.append(len(live))
        flat([f"eq23.{f.id}.t{t}" for t in steps], "=", 0, widths, cols, coefs)

    # Generator: the start series is monotone, so output is the convolution of
    # the lifecycle increments with the start indicators.
    for g in case.generators:
        out = [0.0, *shift_curve(output_curve(g), 1, T)]  # from the step before the start
        inc = [out[d + 1] - out[d] for d in range(T)]  # d steps after the start
        cols, coefs, widths = [], [], []
        for t in steps:
            taus = [tau for tau in range(2, t + 1) if inc[t - tau] != 0.0]
            cols += [gs[g.id] + tau for tau in taus] + [gp[g.id] + t]
            coefs += [-inc[t - tau] for tau in taus] + [1.0]
            widths.append(len(taus) + 1)
        flat([f"eq23g.{g.id}.t{t}" for t in steps], "=", 0, widths, cols, coefs)

    # --- battery discharge window and SOC ---------------------------------------
    hours = case.time_grid.step_minutes / 60.0
    for bt in case.batteries:
        ws, we = win[bt.id]
        p = bp[bt.id]
        rows(bt.id, steps, ("eq41", [(we, 1), (ws, -1)], "<=", 0),
             ("eq46lo", [(p, 1), (ws, -bt.p_min), (we, bt.p_min)], ">=", 0),
             ("eq46hi", [(p, 1), (ws, -bt.p_max), (we, bt.p_max)], "<=", 0))
        rows(bt.id, range(1, T), ("eq42", [(ws, 1), (ws + 1, -1)], "<=", 0),
             ("eq43", [(we, 1), (we + 1, -1)], "<=", 0))
        flat([f"eq47.{bt.id}"], "<=", bt.soc_init - bt.soc_min, [T], range(p + 1, p + T + 1),
             [hours] * T)

    # --- energization ------------------------------------------------------------
    adj = case.adjacency
    # Every branch has the same rows: eq30 and eq31 at each step, then eq32 at
    # t and eq33 at t + 1 alternating, all <= 0 with coefficients +-1. Its
    # buses' blocks come before its own, so each row lists them first.
    # Entry e of a branch's rows is column ends[end] + step for the e-th
    # (end, step) of ``pattern``, where ends = (from bus, branch, to bus,
    # lower bus block, higher bus block).
    heads = [(tag, f".t{t}") for t in steps for tag in ("eq30.", "eq31.")]
    heads += [(tag, f".t{t + dt}") for t in range(1, T) for tag, dt in (("eq32.", 0), ("eq33.", 1))]
    rel = [i for i, w in enumerate([2] * (2 * T) + [2, 3] * (T - 1)) for _ in range(w)]
    pattern = [(end, t) for t in steps for end in (0, 1, 2, 1)]
    pattern += [(end, t + dt) for t in range(1, T)
                for end, dt in ((1, 0), (1, 1), (3, 0), (4, 0), (1, 1))]
    base, per = len(m.row_names), len(heads)
    rows_of = array("i", [first + r for first in range(base, base + per * len(case.branches), per)
                          for r in rel])
    names, cols = [], array("i")
    for k in case.branches:
        u, v = bus[k.from_bus], bus[k.to_bus]
        ends = (u, br[k.id], v, *sorted((u, v)))
        names += [tag + k.id + t for tag, t in heads]
        cols.fromlist([ends[end] + step for end, step in pattern])
    m.add_rows(names, array("d", [-math.inf]) * len(names), array("d", bytes(8 * len(names))),
               rows_of, cols,
               array("d", [-1, 1] * (2 * T) + [1, -1, -1, -1, 1] * (T - 1)) * len(case.branches))
    # Per bus, eq32, then at each step: a live bus needs a live incident
    # branch or a co-located source: a self-start device from its start, a
    # generator crank_steps after its start, a battery while its window is
    # open (ws - we). Each term is (the step it counts from, offset, coef).
    by_gen = {g.id: g for g in case.generators}
    for b in case.buses:
        j = bus[b.id]
        terms = [(1, j, 1.0), *((1, br[k_id], -1.0) for k_id in adj.branches[b.id])]
        for g in map(by_gen.get, adj.generators[b.id]):
            delay = 0 if g.is_black_start else g.crank_steps
            terms.append((delay + 1, gs[g.id] - delay, -1.0))
        terms += [(1, fc[f_id][0], -1.0) for f_id in adj.fuel_cells[b.id]]
        for bt_id in adj.batteries[b.id]:
            terms += [(1, win[bt_id][0], -1.0), (1, win[bt_id][1], 1.0)]
        tag = "eq48" if adj.batteries[b.id] else "eq34"
        names = [f"eq32.{b.id}.t{t}" for t in range(1, T)] + [f"{tag}.{b.id}.t{t}" for t in steps]
        cols = [c for t in range(1, T) for c in (j + t, j + t + 1)]
        coefs, widths = [1.0, -1.0] * (T - 1), [2] * (T - 1)
        edges = sorted({1, T + 1, *(since for since, _, _ in terms if since <= T)})
        for start, stop in zip(edges, edges[1:]):
            live = sorted((off, coef) for since, off, coef in terms if since <= start)
            cols += [off + t for t in range(start, stop) for off, _ in live]
            coefs += [coef for _, coef in live] * (stop - start)
            widths += [len(live)] * (stop - start)
        flat(names, "<=", 0, widths, cols, coefs)

    # A device may only be in its started state on an energized bus.
    for g in case.generators:
        rows(g.id, steps, ("eq29", [(gs[g.id], 1), (bus[g.bus], -1)], "<=", 0))
    for f in case.fuel_cells:
        rows(f.id, steps, ("eq29", [(fc[f.id][0], 1), (bus[f.bus], -1)], "<=", 0))
    for bt in case.batteries:
        rows(bt.id, steps, ("eq29", [(win[bt.id][0], 1), (bus[bt.bus], -1)], "<=", 0))

    # --- cranking-power balance ----------------------------------------------
    supply = [*gp.values(), *fp.values(), *bp.values()]
    if supply:
        rows("system", steps, ("eq2", [(off, 1.0) for off in supply], ">=", 0))

    # --- objective -------------------------------------------------------------
    # Startup time of a generator is the count of steps its start series is
    # still 0; a unit that never starts pays the full horizon. Each weight is
    # added into the zeros add_vars left in c, so a zero weight stays +0.0.
    for g in case.generators:
        weight = g.p_max - g.p_crank
        m.objective_constant += weight * T
        for j in range(gs[g.id] + 1, gs[g.id] + T + 1):
            m.c[j] += -weight
    if case.beta:
        for b in case.buses:
            if b.importance != 0.0:
                for t in steps:
                    m.c[bus[b.id] + t] += -case.beta * b.importance / t
    return m


def decode(model: MilpModel, x: Sequence[float], case: GridCase) -> Schedule:
    """Read a (near-)integral point, in ``model.names`` order, back into a Schedule."""
    T = case.time_grid.n_steps

    def values(kind: str, entity: str) -> list[float]:
        first = _block(model, kind, entity, T)
        return list(x[first:first + T])

    def rise(kind: str, entity: str) -> int | None:
        series = binary(kind, entity)
        if series != sorted(series):
            raise DecodeError(f"{kind}.{entity}: status sequence is not monotone")
        return series.index(1) + 1 if 1 in series else None

    def binary(kind: str, entity: str) -> list[int]:
        xs = values(kind, entity)
        bits = [round(x) for x in xs]
        for t, x, r in zip(range(1, T + 1), xs, bits):
            if abs(x - r) > INTEGRALITY_TOL or r not in (0, 1):
                raise DecodeError(f"{_n(kind, entity, t)}: value {x} is not integral within "
                                  f"{INTEGRALITY_TOL}")
        return bits

    sched = Schedule(n_steps=T)
    sched.solver_power = {}
    for g in case.generators:
        sched.gen_start[g.id] = rise(GEN_START, g.id)
        sched.solver_power[g.id] = values(GEN_POWER, g.id)
    for f in case.fuel_cells:
        sched.fc_start[f.id] = rise(FC_START, f.id)
        sched.solver_power[f.id] = values(FC_POWER, f.id)
    for bt in case.batteries:
        s = rise(BAT_WS, bt.id)
        e = rise(BAT_WE, bt.id)
        if s is None:
            if e is not None:
                raise DecodeError(f"{bt.id}: discharge end precedes any start")
            sched.bat_window[bt.id] = None
        else:
            end = e if e is not None else T + 1
            if end < s:
                raise DecodeError(f"{bt.id}: discharge end step {end} precedes start {s}")
            sched.bat_window[bt.id] = (s, end)
        sched.bat_dispatch[bt.id] = values(BAT_POWER, bt.id)
    for b in case.buses:
        sched.bus_on[b.id] = [bool(v) for v in binary(BUS_ON, b.id)]
    for k in case.branches:
        sched.branch_on[k.id] = [bool(v) for v in binary(BRANCH_ON, k.id)]
    return sched


def objective_value(case: GridCase, schedule: Schedule) -> float:
    """Recompute the objective from a schedule, independent of any solver."""
    T = case.time_grid.n_steps
    terms = []
    for g in case.generators:
        start = schedule.gen_start[g.id]
        t_start = T if start is None else start - 1
        terms.append((g.p_max - g.p_crank) * t_start)
    if case.beta:
        for b in case.buses:
            flags = schedule.bus_on[b.id]
            terms.extend(
                -case.beta * b.importance / t for t in range(1, T + 1) if flags[t - 1]
            )
    return math.fsum(terms)


def point_from_schedule(model: MilpModel, case: GridCase, schedule: Schedule) -> array:
    """The model point, in ``model.names`` order, that a schedule describes.

    Status series come from the schedule's decisions and injection variables
    from the semantic trajectories, so a valid schedule yields a
    model-feasible point. Each series is written at the columns the encoder
    declared it at.
    """
    T = case.time_grid.n_steps
    x = array("d", bytes(8 * len(model.names)))
    covered = 0

    def put(kind: str, entity: str, values: list[float]) -> None:
        nonlocal covered
        first = _block(model, kind, entity, T)
        x[first:first + len(values)] = array("d", values)
        covered += len(values)

    def step_series(start: int | None) -> list[int]:
        return [1 if start is not None and t >= start else 0 for t in range(1, T + 1)]

    traj = device_trajectories(case, schedule)
    for g in case.generators:
        put(GEN_START, g.id, step_series(schedule.gen_start[g.id]))
        put(GEN_POWER, g.id, traj[g.id])
    for f in case.fuel_cells:
        start = schedule.fc_start[f.id]
        on_start = None if start is None else start + f.crank_steps
        max_start = None if on_start is None else on_start + f.ramp_steps
        for kind, first in zip((FC_START, FC_ON, FC_MAX), (start, on_start, max_start)):
            put(kind, f.id, step_series(first))
        put(FC_POWER, f.id, traj[f.id])
    for bt in case.batteries:
        window = schedule.bat_window[bt.id]
        s, e = window if window is not None else (None, None)
        put(BAT_WS, bt.id, step_series(s))
        put(BAT_WE, bt.id, step_series(e if e is not None and e <= T else None))
        put(BAT_POWER, bt.id, traj[bt.id])
    for b in case.buses:
        put(BUS_ON, b.id, schedule.bus_on[b.id])
    for k in case.branches:
        put(BRANCH_ON, k.id, schedule.branch_on[k.id])
    if covered != len(x):
        raise DecodeError(f"schedule covers {covered} of the model's {len(x)} variables")
    return x


def _check_horizon(case: GridCase) -> None:
    T = case.time_grid.n_steps
    stuck = []
    for g in case.generators:
        earliest = 2 if g.is_black_start else g.start_min
        if earliest + g.crank_steps + g.ramp_steps - 1 > T:
            stuck.append(g.id)
    for f in case.fuel_cells:
        if 2 + f.crank_steps + f.ramp_steps - 1 > T:
            stuck.append(f.id)
    if stuck:
        raise EncodingError(
            f"horizon of {T} steps is too short for {', '.join(stuck)} to finish "
            "cranking and ramping even at the earliest start"
        )


def _block(model: MilpModel, kind: str, entity: str, T: int) -> int:
    """The first column of ``kind.entity``: the block ``encode`` declares as
    ``kind.entity.1`` .. ``kind.entity.T``."""
    j = model.column(_n(kind, entity, 1))
    if j is None or model.names[j + T - 1:j + T] != [_n(kind, entity, T)]:
        raise DecodeError(f"{kind}.{entity}: the model does not hold it as one block")
    return j


def _n(kind: str, entity: str, t: int) -> str:
    return f"{kind}.{entity}.{t}"
