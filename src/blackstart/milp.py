"""Time-expanded MILP of the restoration problem, as a solver-agnostic model.

Variable names follow the wire grammar ``<kind>.<entity>.<t>`` (and
``<kind>.<entity>.<t1>.<t2>`` for the product-linearization families);
constraint names are ``<eq-tag>.<entity>.<t...>``. Both are deterministic
for a given case, so exported models and imported solutions line up across
runs and processes.

Status binaries are monotone step functions of time: a device's start
series u_start is 0 until the start step and 1 afterwards, the generating
series u_on rises exactly crank_steps later, and the at-maximum series
u_max exactly ramp_steps after that. Products of status binaries are
linearized with one lower and two upper envelope inequalities per pair.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import NamedTuple

from .devices import phase_output
from .grid import GridCase
from .schedule import Schedule

# How far a binary may sit from 0 or 1 and still decode: a stated margin
# above HiGHS's default mip_feasibility_tolerance (1e-6), so that a legal
# answer at the solver's own edge decodes; validate still has the last word.
INTEGRALITY_TOL = 1e-5

GEN_START = "gen_start"
FC_START = "fc_start"
FC_ON = "fc_on"
FC_MAX = "fc_max"
FC_ANC = {"start": "fc_anc_start", "on": "fc_anc_on", "max": "fc_anc_max"}
BUS_ON = "bus_on"
BRANCH_ON = "branch_on"
BAT_WS = "bat_ws"
BAT_WE = "bat_we"
GEN_POWER = "gen_power"
FC_POWER = "fc_power"
BAT_POWER = "bat_power"

BINARY_KINDS = {GEN_START, FC_START, FC_ON, FC_MAX, BUS_ON, BRANCH_ON, BAT_WS, BAT_WE}


class EncodingError(ValueError):
    """The case cannot be encoded into a meaningful model."""


class DecodeError(ValueError):
    """An assignment cannot be read back as a schedule."""


@dataclass(frozen=True)
class VarRef:
    """One model variable: kind + entity + step indices, with bounds."""

    kind: str
    entity: str
    steps: tuple[int, ...]
    lb: float
    ub: float
    is_integer: bool

    @cached_property
    def name(self) -> str:
        return ".".join((self.kind, self.entity, *(str(t) for t in self.steps)))


@dataclass(frozen=True)
class Constraint:
    """Linear constraint: sum of terms <sense> rhs, sense in {<=, >=, =}."""

    name: str
    terms: tuple[tuple[str, float], ...]
    sense: str
    rhs: float


class ModelArrays(NamedTuple):
    """A model as flat arrays, in ``MilpModel.variables`` and ``constraints`` order.

    The constraint matrix is COO (``row``, ``col``, ``val``); each row is
    ``row_lo <= a·x <= row_hi`` with infinite sides for one-sided senses;
    ``integrality`` is 1 for an integer variable. The objective is
    ``c·x + constant``, minimized.
    """

    c: array
    row: array
    col: array
    val: array
    row_lo: array
    row_hi: array
    lb: array
    ub: array
    integrality: array
    constant: float


@dataclass
class MilpModel:
    """Immutable-after-build MILP: variables, constraints, minimize objective."""

    name: str
    variables: list[VarRef] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    objective: dict[str, float] = field(default_factory=dict)
    objective_constant: float = 0.0
    _by_name: dict[str, VarRef] = field(default_factory=dict, repr=False)
    _pos: dict[str, int] = field(default_factory=dict, repr=False)

    def add_var(self, kind: str, entity: str, steps: tuple[int, ...],
                lb: float, ub: float, is_integer: bool) -> VarRef:
        ref = VarRef(kind, entity, steps, lb, ub, is_integer)
        if ref.name in self._by_name:
            raise EncodingError(f"duplicate variable {ref.name}")
        self._pos[ref.name] = len(self.variables)
        self.variables.append(ref)
        self._by_name[ref.name] = ref
        return ref

    def fix(self, name: str, value: float) -> None:
        ref = self._by_name[name]
        fixed = VarRef(ref.kind, ref.entity, ref.steps, value, value, ref.is_integer)
        self.variables[self._pos[name]] = fixed
        self._by_name[name] = fixed

    def add_constraint(self, name: str, terms: dict[str, float], sense: str, rhs: float) -> None:
        for var in terms:
            if var not in self._by_name:
                raise EncodingError(f"constraint {name} references undeclared variable {var}")
        if sense not in ("<=", ">=", "="):
            raise EncodingError(f"constraint {name}: bad sense {sense!r}")
        kept = tuple(sorted((v, c) for v, c in terms.items() if c != 0.0))
        self.constraints.append(Constraint(name, kept, sense, rhs))

    def var(self, name: str) -> VarRef:
        return self._by_name[name]

    def has_var(self, name: str) -> bool:
        return name in self._by_name

    def size(self) -> dict[str, int]:
        """Variable, integer-variable, row and constraint-nonzero counts."""
        return {
            "vars": len(self.variables),
            "int_vars": sum(v.is_integer for v in self.variables),
            "rows": len(self.constraints),
            "nnz": sum(len(c.terms) for c in self.constraints),
        }

    def arrays(self) -> ModelArrays:
        """The model as flat ``array.array``s, cheap to pickle and to wrap in numpy."""
        pos = self._pos
        c = array("d", [0.0]) * len(self.variables)
        for name, coef in self.objective.items():
            c[pos[name]] += coef
        row, col, val = array("i"), array("i"), array("d")
        row_lo, row_hi = array("d"), array("d")
        for i, con in enumerate(self.constraints):
            row.extend(repeat(i, len(con.terms)))
            col.extend(pos[name] for name, _ in con.terms)
            val.extend(coef for _, coef in con.terms)
            row_lo.append(-math.inf if con.sense == "<=" else con.rhs)
            row_hi.append(math.inf if con.sense == ">=" else con.rhs)
        return ModelArrays(
            c, row, col, val, row_lo, row_hi,
            lb=array("d", [v.lb for v in self.variables]),
            ub=array("d", [v.ub for v in self.variables]),
            integrality=array("b", [v.is_integer for v in self.variables]),
            constant=self.objective_constant,
        )

    def objective_of(self, assignment: dict[str, float]) -> float:
        """Objective value of an assignment (compensated summation)."""
        return (
            math.fsum(coef * assignment[var] for var, coef in self.objective.items())
            + self.objective_constant
        )

    def check_assignment(self, assignment: dict[str, float], tol: float = 1e-6
                         ) -> list[str]:
        """Names of constraints and bounds the assignment violates."""
        bad: list[str] = []
        for v in self.variables:
            x = assignment[v.name]
            if x < v.lb - tol or x > v.ub + tol:
                bad.append(f"bounds:{v.name}")
        for c in self.constraints:
            lhs = math.fsum(coef * assignment[var] for var, coef in c.terms)
            if c.sense == "<=" and lhs > c.rhs + tol:
                bad.append(c.name)
            elif c.sense == ">=" and lhs < c.rhs - tol:
                bad.append(c.name)
            elif c.sense == "=" and abs(lhs - c.rhs) > tol:
                bad.append(c.name)
        return bad


def encode(case: GridCase) -> MilpModel:
    """Build the time-expanded startup-sequencing MILP for a case."""
    T = case.time_grid.n_steps
    steps = case.time_grid.steps
    _check_horizon(case)

    m = MilpModel(name="blackstart")

    # --- variables -----------------------------------------------------------
    for g in case.generators:
        for t in steps:
            m.add_var(GEN_START, g.id, (t,), 0, 1, True)
    for f in case.fuel_cells:
        for kind in (FC_START, FC_ON, FC_MAX):
            for t in steps:
                m.add_var(kind, f.id, (t,), 0, 1, True)
        for kind in FC_ANC.values():
            for t1 in steps:
                for t2 in steps:
                    m.add_var(kind, f.id, (t1, t2), 0, 1, False)
    for b in case.buses:
        for t in steps:
            m.add_var(BUS_ON, b.id, (t,), 0, 1, True)
    for k in case.branches:
        for t in steps:
            m.add_var(BRANCH_ON, k.id, (t,), 0, 1, True)
    for bt in case.batteries:
        for kind in (BAT_WS, BAT_WE):
            for t in steps:
                m.add_var(kind, bt.id, (t,), 0, 1, True)
    for g in case.generators:
        draw = 0.0 if g.is_black_start else g.p_crank
        for t in steps:
            m.add_var(GEN_POWER, g.id, (t,), -draw, g.p_max, False)
    for f in case.fuel_cells:
        for t in steps:
            m.add_var(FC_POWER, f.id, (t,), -f.p_crank, f.p_max, False)
    for bt in case.batteries:
        for t in steps:
            m.add_var(BAT_POWER, bt.id, (t,), 0, bt.p_max, False)

    # --- blackout and self-start fixings --------------------------------------
    for g in case.generators:
        m.fix(_n(GEN_START, g.id, 1), 0)  # eq35
    for f in case.fuel_cells:
        m.fix(_n(FC_START, f.id, 1), 0)  # eq36
    for b in case.buses:
        m.fix(_n(BUS_ON, b.id, 1), 0)  # eq37
    for k in case.branches:
        m.fix(_n(BRANCH_ON, k.id, 1), 0)  # eq38
    for bt in case.batteries:
        m.fix(_n(BAT_WS, bt.id, 1), 0)
        m.fix(_n(BAT_WE, bt.id, 1), 0)
    for g in case.generators:
        if g.is_black_start:
            for t in range(2, T + 1):
                m.fix(_n(GEN_START, g.id, t), 1)  # eq39
        else:
            for t in range(2, g.start_min):
                m.fix(_n(GEN_START, g.id, t), 0)  # eq3
    for f in case.fuel_cells:
        for t in range(2, T + 1):
            m.fix(_n(FC_START, f.id, t), 1)  # eq40
    for bt in case.batteries:
        for t in range(2, bt.start_min):
            m.fix(_n(BAT_WS, bt.id, t), 0)  # eq45

    # --- status monotonicity and start windows --------------------------------
    for g in case.generators:
        for t in range(1, T):
            m.add_constraint(
                f"eq24.{g.id}.t{t}",
                {_n(GEN_START, g.id, t): 1, _n(GEN_START, g.id, t + 1): -1},
                "<=", 0,
            )
        if not g.is_black_start and g.start_max < T:
            for t in range(g.start_max + 1, T + 1):
                m.add_constraint(
                    f"eq4.{g.id}.t{t}",
                    {_n(GEN_START, g.id, t): 1, _n(GEN_START, g.id, g.start_max): -1},
                    "=", 0,
                )
    for f in case.fuel_cells:
        for t in range(1, T):
            m.add_constraint(
                f"eq24.{f.id}.t{t}",
                {_n(FC_START, f.id, t): 1, _n(FC_START, f.id, t + 1): -1},
                "<=", 0,
            )
            m.add_constraint(
                f"eq25.{f.id}.t{t}",
                {_n(FC_MAX, f.id, t): 1, _n(FC_MAX, f.id, t + 1): -1},
                "<=", 0,
            )

    # --- fuel-cell stage links and product linearization ----------------------
    for f in case.fuel_cells:
        for t in steps:
            if t - f.crank_steps >= 1:
                m.add_constraint(
                    f"eq19.{f.id}.t{t}",
                    {_n(FC_ON, f.id, t): 1, _n(FC_START, f.id, t - f.crank_steps): -1},
                    "=", 0,
                )
            else:
                m.fix(_n(FC_ON, f.id, t), 0)
            if t - f.ramp_steps >= 1:
                m.add_constraint(
                    f"eq22.{f.id}.t{t}",
                    {_n(FC_MAX, f.id, t): 1, _n(FC_ON, f.id, t - f.ramp_steps): -1},
                    "=", 0,
                )
            else:
                m.fix(_n(FC_MAX, f.id, t), 0)
        for fam, status_kind, tags in (
            ("start", FC_START, ("eq6", "eq7", "eq8")),
            ("on", FC_ON, ("eq10", "eq11", "eq12")),
            ("max", FC_MAX, ("eq14", "eq15", "eq16")),
        ):
            anc = FC_ANC[fam]
            lo, up1, up2 = tags
            for t1 in steps:
                for t2 in steps:
                    y = _n2(anc, f.id, t1, t2)
                    u1 = _n(status_kind, f.id, t1)
                    u2 = _n(status_kind, f.id, t2)
                    # u1 and u2 coincide on the diagonal; accumulate so the
                    # lower envelope reads y >= 2u - 1 there
                    terms = {y: 1.0}
                    _add_term(terms, u1, -1.0)
                    _add_term(terms, u2, -1.0)
                    m.add_constraint(f"{lo}.{f.id}.t{t1}.t{t2}", terms, ">=", -1)
                    m.add_constraint(f"{up1}.{f.id}.t{t1}.t{t2}", {y: 1, u1: -1}, "<=", 0)
                    m.add_constraint(f"{up2}.{f.id}.t{t1}.t{t2}", {y: 1, u2: -1}, "<=", 0)

    # --- device output ---------------------------------------------------------
    # Fuel cell: -p_crank while cranking, then p_max/ramp_steps per elapsed
    # generating step until the at-max series catches up and pins p_max.
    for f in case.fuel_cells:
        slope = f.p_max / f.ramp_steps
        for t2 in steps:
            terms = {
                _n(FC_POWER, f.id, t2): 1.0,
                _n(FC_START, f.id, t2): f.p_crank,
            }
            _add_term(terms, _n(FC_ON, f.id, t2), -f.p_crank)
            for t1 in range(1, t2 + 1):
                _add_term(terms, _n2(FC_ANC["on"], f.id, t1, t2), -slope)
                _add_term(terms, _n2(FC_ANC["max"], f.id, t1, t2), slope)
            m.add_constraint(f"eq23.{f.id}.t{t2}", terms, "=", 0)

    # Generator: the start series is monotone, so output is the convolution of
    # the lifecycle increments with the start indicators.
    for g in case.generators:
        draw = 0.0 if g.is_black_start else g.p_crank
        for t in steps:
            terms = {_n(GEN_POWER, g.id, t): 1.0}
            for tau in range(2, t + 1):
                d = t - tau
                inc = (phase_output(g.p_max, draw, g.crank_steps, g.ramp_steps, d)
                       - phase_output(g.p_max, draw, g.crank_steps, g.ramp_steps, d - 1))
                if inc != 0.0:
                    _add_term(terms, _n(GEN_START, g.id, tau), -inc)
            m.add_constraint(f"eq23g.{g.id}.t{t}", terms, "=", 0)

    # --- battery discharge window and SOC ---------------------------------------
    for bt in case.batteries:
        for t in steps:
            m.add_constraint(
                f"eq41.{bt.id}.t{t}",
                {_n(BAT_WE, bt.id, t): 1, _n(BAT_WS, bt.id, t): -1},
                "<=", 0,
            )
            m.add_constraint(
                f"eq46lo.{bt.id}.t{t}",
                {_n(BAT_POWER, bt.id, t): 1,
                 _n(BAT_WS, bt.id, t): -bt.p_min, _n(BAT_WE, bt.id, t): bt.p_min},
                ">=", 0,
            )
            m.add_constraint(
                f"eq46hi.{bt.id}.t{t}",
                {_n(BAT_POWER, bt.id, t): 1,
                 _n(BAT_WS, bt.id, t): -bt.p_max, _n(BAT_WE, bt.id, t): bt.p_max},
                "<=", 0,
            )
        for t in range(1, T):
            m.add_constraint(
                f"eq42.{bt.id}.t{t}",
                {_n(BAT_WS, bt.id, t): 1, _n(BAT_WS, bt.id, t + 1): -1},
                "<=", 0,
            )
            m.add_constraint(
                f"eq43.{bt.id}.t{t}",
                {_n(BAT_WE, bt.id, t): 1, _n(BAT_WE, bt.id, t + 1): -1},
                "<=", 0,
            )
        hours = case.time_grid.step_minutes / 60.0
        m.add_constraint(
            f"eq47.{bt.id}",
            {_n(BAT_POWER, bt.id, t): hours for t in steps},
            "<=", bt.soc_init - bt.soc_min,
        )

    # --- energization ------------------------------------------------------------
    adj = case.adjacency
    by_gen = {g.id: g for g in case.generators}
    for k in case.branches:
        for t in steps:
            m.add_constraint(
                f"eq30.{k.id}.t{t}",
                {_n(BRANCH_ON, k.id, t): 1, _n(BUS_ON, k.from_bus, t): -1},
                "<=", 0,
            )
            m.add_constraint(
                f"eq31.{k.id}.t{t}",
                {_n(BRANCH_ON, k.id, t): 1, _n(BUS_ON, k.to_bus, t): -1},
                "<=", 0,
            )
        for t in range(1, T):
            m.add_constraint(
                f"eq32.{k.id}.t{t}",
                {_n(BRANCH_ON, k.id, t): 1, _n(BRANCH_ON, k.id, t + 1): -1},
                "<=", 0,
            )
            m.add_constraint(
                f"eq33.{k.id}.t{t + 1}",
                {_n(BRANCH_ON, k.id, t + 1): 1,
                 _n(BUS_ON, k.from_bus, t): -1, _n(BUS_ON, k.to_bus, t): -1},
                "<=", 0,
            )
    for b in case.buses:
        for t in range(1, T):
            m.add_constraint(
                f"eq32.{b.id}.t{t}",
                {_n(BUS_ON, b.id, t): 1, _n(BUS_ON, b.id, t + 1): -1},
                "<=", 0,
            )
        # A live bus needs a live incident branch or a co-located source:
        # a self-start device from its start, or a generating unit.
        for t in steps:
            terms = {_n(BUS_ON, b.id, t): 1.0}
            for k_id in adj.branches[b.id]:
                _add_term(terms, _n(BRANCH_ON, k_id, t), -1.0)
            for g_id in adj.generators[b.id]:
                g = by_gen[g_id]
                if g.is_black_start:
                    _add_term(terms, _n(GEN_START, g_id, t), -1.0)
                elif t - g.crank_steps >= 1:
                    _add_term(terms, _n(GEN_START, g_id, t - g.crank_steps), -1.0)
            for f_id in adj.fuel_cells[b.id]:
                _add_term(terms, _n(FC_START, f_id, t), -1.0)
            # a battery is a source while its window is open: ws - we
            for bt_id in adj.batteries[b.id]:
                _add_term(terms, _n(BAT_WS, bt_id, t), -1.0)
                _add_term(terms, _n(BAT_WE, bt_id, t), 1.0)
            tag = "eq48" if adj.batteries[b.id] else "eq34"
            m.add_constraint(f"{tag}.{b.id}.t{t}", terms, "<=", 0)

    # A device may only be in its started state on an energized bus.
    for g in case.generators:
        for t in steps:
            m.add_constraint(
                f"eq29.{g.id}.t{t}",
                {_n(GEN_START, g.id, t): 1, _n(BUS_ON, g.bus, t): -1},
                "<=", 0,
            )
    for f in case.fuel_cells:
        for t in steps:
            m.add_constraint(
                f"eq29.{f.id}.t{t}",
                {_n(FC_START, f.id, t): 1, _n(BUS_ON, f.bus, t): -1},
                "<=", 0,
            )
    for bt in case.batteries:
        for t in steps:
            m.add_constraint(
                f"eq29.{bt.id}.t{t}",
                {_n(BAT_WS, bt.id, t): 1, _n(BUS_ON, bt.bus, t): -1},
                "<=", 0,
            )

    # --- cranking-power balance ----------------------------------------------
    for t in steps:
        terms: dict[str, float] = {}
        for g in case.generators:
            terms[_n(GEN_POWER, g.id, t)] = 1.0
        for f in case.fuel_cells:
            terms[_n(FC_POWER, f.id, t)] = 1.0
        for bt in case.batteries:
            terms[_n(BAT_POWER, bt.id, t)] = 1.0
        if terms:
            m.add_constraint(f"eq2.system.t{t}", terms, ">=", 0)

    # --- objective -------------------------------------------------------------
    # Startup time of a generator is the count of steps its start series is
    # still 0; a unit that never starts pays the full horizon.
    importance = {b.id: b.importance for b in case.buses}
    for g in case.generators:
        weight = g.p_max - g.p_crank
        m.objective_constant += weight * T
        for t in steps:
            _add_term(m.objective, _n(GEN_START, g.id, t), -weight)
    if case.beta:
        for b in case.buses:
            if importance[b.id] == 0.0:
                continue
            for t in steps:
                _add_term(m.objective, _n(BUS_ON, b.id, t), -case.beta * importance[b.id] / t)
    return m


def decode(model: MilpModel, assignment: dict[str, float], case: GridCase) -> Schedule:
    """Read a (near-)integral assignment back into a Schedule."""
    T = case.time_grid.n_steps

    def binval(name: str) -> int:
        x = assignment[name]
        r = round(x)
        if abs(x - r) > INTEGRALITY_TOL or r not in (0, 1):
            raise DecodeError(f"{name}: value {x} is not integral within {INTEGRALITY_TOL}")
        return int(r)

    def rise(kind: str, entity: str) -> int | None:
        series = [binval(_n(kind, entity, t)) for t in range(1, T + 1)]
        for a, b in zip(series, series[1:]):
            if a > b:
                raise DecodeError(f"{kind}.{entity}: status sequence is not monotone")
        for t, v in enumerate(series, start=1):
            if v:
                return t
        return None

    sched = Schedule(n_steps=T)
    sched.solver_power = {}
    for g in case.generators:
        sched.gen_start[g.id] = rise(GEN_START, g.id)
        sched.solver_power[g.id] = [assignment[_n(GEN_POWER, g.id, t)] for t in range(1, T + 1)]
    for f in case.fuel_cells:
        sched.fc_start[f.id] = rise(FC_START, f.id)
        sched.solver_power[f.id] = [assignment[_n(FC_POWER, f.id, t)] for t in range(1, T + 1)]
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
        sched.bat_dispatch[bt.id] = [assignment[_n(BAT_POWER, bt.id, t)] for t in range(1, T + 1)]
    for b in case.buses:
        sched.bus_on[b.id] = [bool(binval(_n(BUS_ON, b.id, t))) for t in range(1, T + 1)]
    for k in case.branches:
        sched.branch_on[k.id] = [bool(binval(_n(BRANCH_ON, k.id, t))) for t in range(1, T + 1)]
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


def assignment_from_schedule(model: MilpModel, case: GridCase, schedule: Schedule
                             ) -> dict[str, float]:
    """Full model assignment consistent with a schedule.

    Status series come from the schedule's decisions, product variables from
    the products of the statuses, and injection variables from the semantic
    trajectories, so a valid schedule yields a model-feasible point.
    """
    from .devices import device_trajectories

    T = case.time_grid.n_steps
    out: dict[str, float] = {}

    def step_series(start: int | None) -> list[int]:
        return [1 if start is not None and t >= start else 0 for t in range(1, T + 1)]

    traj = device_trajectories(case, schedule)
    for g in case.generators:
        series = step_series(schedule.gen_start[g.id])
        for t in range(1, T + 1):
            out[_n(GEN_START, g.id, t)] = series[t - 1]
            out[_n(GEN_POWER, g.id, t)] = traj[g.id][t - 1]
    for f in case.fuel_cells:
        start = schedule.fc_start[f.id]
        on_start = None if start is None else start + f.crank_steps
        max_start = None if on_start is None else on_start + f.ramp_steps
        series = {
            FC_START: step_series(start),
            FC_ON: step_series(on_start),
            FC_MAX: step_series(max_start),
        }
        for kind, s in series.items():
            for t in range(1, T + 1):
                out[_n(kind, f.id, t)] = s[t - 1]
        for fam, kind in (("start", FC_START), ("on", FC_ON), ("max", FC_MAX)):
            s = series[kind]
            for t1 in range(1, T + 1):
                for t2 in range(1, T + 1):
                    out[_n2(FC_ANC[fam], f.id, t1, t2)] = s[t1 - 1] * s[t2 - 1]
        for t in range(1, T + 1):
            out[_n(FC_POWER, f.id, t)] = traj[f.id][t - 1]
    for bt in case.batteries:
        window = schedule.bat_window[bt.id]
        s, e = window if window is not None else (None, None)
        ws = step_series(s)
        we = step_series(e if e is not None and e <= T else None)
        for t in range(1, T + 1):
            out[_n(BAT_WS, bt.id, t)] = ws[t - 1]
            out[_n(BAT_WE, bt.id, t)] = we[t - 1]
            out[_n(BAT_POWER, bt.id, t)] = traj[bt.id][t - 1]
    for b in case.buses:
        for t in range(1, T + 1):
            out[_n(BUS_ON, b.id, t)] = 1.0 if schedule.bus_on[b.id][t - 1] else 0.0
    for k in case.branches:
        for t in range(1, T + 1):
            out[_n(BRANCH_ON, k.id, t)] = 1.0 if schedule.branch_on[k.id][t - 1] else 0.0
    missing = [v.name for v in model.variables if v.name not in out]
    if missing:
        raise DecodeError(f"schedule does not cover variables: {missing[:5]}...")
    return out


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


def _n(kind: str, entity: str, t: int) -> str:
    return f"{kind}.{entity}.{t}"


def _n2(kind: str, entity: str, t1: int, t2: int) -> str:
    return f"{kind}.{entity}.{t1}.{t2}"


def _add_term(terms: dict[str, float], var: str, coef: float) -> None:
    terms[var] = terms.get(var, 0.0) + coef
