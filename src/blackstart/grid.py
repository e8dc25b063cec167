"""Domain types for the grid, the discrete time axis, and derived quantities.

A loaded :class:`GridCase` is immutable and safe to share across concurrent
scenario evaluations. All step indices are 1-based: step 1 is the blackout
step (everything dark), step 2 is the earliest any self-start resource may
come up.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class CaseError(ValueError):
    """A case document violates the schema or a domain invariant."""


@dataclass(frozen=True)
class TimeGrid:
    """Discretization of the restoration window.

    step_minutes is the wall-clock length of one step; n_steps the horizon.
    Wall-clock time of step t (measured from blackout) is t * step_minutes.
    """

    step_minutes: float
    n_steps: int

    def __post_init__(self) -> None:
        if self.step_minutes <= 0:
            raise CaseError("time: step_minutes must be > 0")
        if self.n_steps < 2:
            raise CaseError("time: n_steps must be >= 2 (step 1 is the blackout step)")

    @property
    def steps(self) -> range:
        """Step indices 1..n_steps."""
        return range(1, self.n_steps + 1)


@dataclass(frozen=True)
class Bus:
    id: str
    importance: float = 0.0

    def __post_init__(self) -> None:
        _check_id("bus", self.id)
        if self.importance < 0:
            raise CaseError(f"bus {self.id}: importance must be >= 0")


@dataclass(frozen=True)
class Branch:
    id: str
    from_bus: str
    to_bus: str

    def __post_init__(self) -> None:
        _check_id("branch", self.id)
        if self.from_bus == self.to_bus:
            raise CaseError(f"branch {self.id}: from_bus and to_bus must differ")


@dataclass(frozen=True)
class Generator:
    """A power plant. Non-black-start units draw p_crank MW of cranking power
    for crank_steps steps once started, then ramp linearly to p_max over
    ramp_steps steps. Black-start units self-crank (no grid draw)."""

    id: str
    bus: str
    p_max: float
    p_crank: float
    crank_steps: int
    ramp_steps: int
    start_min: int = 2
    start_max: int = 0  # 0 means "horizon end"; resolved at load
    is_black_start: bool = False

    def __post_init__(self) -> None:
        _check_id("generator", self.id)
        if not 0 < self.p_crank < self.p_max:
            raise CaseError(f"generator {self.id}: need 0 < p_crank < p_max")
        if self.crank_steps < 1:
            raise CaseError(f"generator {self.id}: crank_steps must be >= 1")
        if self.ramp_steps < 1:
            raise CaseError(f"generator {self.id}: ramp_steps must be >= 1")


@dataclass(frozen=True)
class FuelCell:
    """Self-starting resource: begins startup at step 2, draws p_crank during
    crank_steps (may be zero steps), ramps to p_max over ramp_steps."""

    id: str
    bus: str
    p_max: float
    p_crank: float = 0.0
    crank_steps: int = 0
    ramp_steps: int = 1

    def __post_init__(self) -> None:
        _check_id("fuel cell", self.id)
        if not 0 <= self.p_crank < self.p_max:
            raise CaseError(f"fuel cell {self.id}: need 0 <= p_crank < p_max")
        if self.crank_steps < 0:
            raise CaseError(f"fuel cell {self.id}: crank_steps must be >= 0")
        if self.ramp_steps < 1:
            raise CaseError(f"fuel cell {self.id}: ramp_steps must be >= 1")


@dataclass(frozen=True)
class Battery:
    """Discharge-only storage. While its discharge window is open the output
    is a free decision in [p_min, p_max]; energy drawn reduces SOC."""

    id: str
    bus: str
    p_max: float
    p_min: float
    soc_init: float
    soc_min: float = 0.0
    start_min: int = 2

    def __post_init__(self) -> None:
        _check_id("battery", self.id)
        if not 0 <= self.p_min <= self.p_max:
            raise CaseError(f"battery {self.id}: need 0 <= p_min <= p_max")
        if self.soc_min > self.soc_init:
            raise CaseError(f"battery {self.id}: soc_min must be <= soc_init")
        if self.start_min < 2:
            raise CaseError(f"battery {self.id}: start_min must be >= 2")


@dataclass(frozen=True)
class Adjacency:
    """Per-bus incidence, deterministically ordered by id."""

    branches: dict[str, tuple[str, ...]]
    generators: dict[str, tuple[str, ...]]
    fuel_cells: dict[str, tuple[str, ...]]
    batteries: dict[str, tuple[str, ...]]


@dataclass(frozen=True)
class GridCase:
    time_grid: TimeGrid
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    fuel_cells: tuple[FuelCell, ...]
    batteries: tuple[Battery, ...]
    beta: float
    _adjacency: Adjacency = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        bus_ids = [b.id for b in self.buses]
        if len(set(bus_ids)) != len(bus_ids):
            raise CaseError("duplicate bus ids")
        branch_ids = [k.id for k in self.branches]
        if len(set(branch_ids) | set(bus_ids)) != len(branch_ids) + len(bus_ids):
            raise CaseError("branch ids must be unique and distinct from bus ids")
        device_ids = [d.id for d in (*self.generators, *self.fuel_cells, *self.batteries)]
        if len(set(device_ids)) != len(device_ids):
            raise CaseError("device ids must be unique across generators, fuel cells, and batteries")
        known = set(bus_ids)
        for br in self.branches:
            for end in (br.from_bus, br.to_bus):
                if end not in known:
                    raise CaseError(f"branch {br.id}: references unknown bus {end}")
        for dev in (*self.generators, *self.fuel_cells, *self.batteries):
            if dev.bus not in known:
                raise CaseError(f"device {dev.id}: references unknown bus {dev.bus}")
        T = self.time_grid.n_steps
        for g in self.generators:
            if not 2 <= g.start_min <= g.start_max <= T:
                raise CaseError(
                    f"generator {g.id}: need 2 <= start_min <= start_max <= {T}"
                )
            if g.is_black_start and g.start_min != 2:
                raise CaseError(
                    f"generator {g.id}: black-start units start at step 2; "
                    f"start_min {g.start_min} contradicts that"
                )
        if self.beta < 0:
            raise CaseError("objective: beta must be >= 0")
        if not self.self_start_devices():
            raise CaseError(
                "case has no self-start resource (black-start generator, "
                "fuel cell, or battery); restoration cannot begin"
            )
        object.__setattr__(self, "_adjacency", _build_adjacency(self))

    # -- lookups -------------------------------------------------------------

    def bus(self, bus_id: str) -> Bus:
        return _by_id(self.buses, bus_id, "bus")

    def generator(self, gen_id: str) -> Generator:
        return _by_id(self.generators, gen_id, "generator")

    def self_start_devices(self) -> tuple:
        """Devices that need no external power to begin: BS generators,
        fuel cells, batteries."""
        return (
            *(g for g in self.generators if g.is_black_start),
            *self.fuel_cells,
            *self.batteries,
        )

    @property
    def adjacency(self) -> Adjacency:
        """Per-bus lists of incident branches and co-located devices, ordered by id."""
        return self._adjacency


def _build_adjacency(case: GridCase) -> Adjacency:
    branches: dict[str, list[str]] = {b.id: [] for b in case.buses}
    gens: dict[str, list[str]] = {b.id: [] for b in case.buses}
    fcs: dict[str, list[str]] = {b.id: [] for b in case.buses}
    bats: dict[str, list[str]] = {b.id: [] for b in case.buses}
    for br in case.branches:
        branches[br.from_bus].append(br.id)
        branches[br.to_bus].append(br.id)
    for g in case.generators:
        gens[g.bus].append(g.id)
    for f in case.fuel_cells:
        fcs[f.bus].append(f.id)
    for bt in case.batteries:
        bats[bt.bus].append(bt.id)
    return Adjacency(
        branches={b: tuple(sorted(v)) for b, v in branches.items()},
        generators={b: tuple(sorted(v)) for b, v in gens.items()},
        fuel_cells={b: tuple(sorted(v)) for b, v in fcs.items()},
        batteries={b: tuple(sorted(v)) for b, v in bats.items()},
    )


def bus_importance_from_degree(case: GridCase) -> dict[str, float]:
    """Importance weight of each bus as its branch degree.

    Used as the default importance when a case document gives none.
    """
    degree = {b.id: 0.0 for b in case.buses}
    for br in case.branches:
        degree[br.from_bus] += 1.0
        degree[br.to_bus] += 1.0
    return degree


def _by_id(items, item_id: str, kind: str):
    for it in items:
        if it.id == item_id:
            return it
    raise KeyError(f"no {kind} with id {item_id!r}")


def _check_id(kind: str, value: str) -> None:
    if not value or not isinstance(value, str):
        raise CaseError(f"{kind} id must be a nonempty string, got {value!r}")
    if "." in value or any(c.isspace() for c in value):
        raise CaseError(f"{kind} id {value!r} must not contain '.' or whitespace")
