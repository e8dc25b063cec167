"""Restoration schedule: per-device decisions plus per-step energization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .grid import GridCase


def _is_step(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_start(v) -> bool:
    return v is None or _is_step(v)


def _is_window(v) -> bool:
    return v is None or (isinstance(v, list) and len(v) == 2 and all(map(_is_step, v)))


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_list_of(ok):
    return lambda v: isinstance(v, list) and all(map(ok, v))


# What each per-entity field of a schedule document must hold.
_FIELD_TYPES = {
    "gen_start": (_is_start, "an integer step or null"),
    "fc_start": (_is_start, "an integer step or null"),
    "bat_window": (_is_window, "two integer steps or null"),
    "bat_dispatch": (_is_list_of(_is_number), "a list of numbers"),
    "bus_on": (_is_list_of(lambda v: isinstance(v, bool)), "a list of booleans"),
    "branch_on": (_is_list_of(lambda v: isinstance(v, bool)), "a list of booleans"),
}


@dataclass
class Schedule:
    """Decisions and energization trace over a case's horizon.

    Start steps are 1-based; None means the device never starts. A battery
    window (s, e) discharges over steps s..e-1. bus_on/branch_on hold one
    boolean per step (index t-1).
    """

    n_steps: int
    gen_start: dict[str, int | None] = field(default_factory=dict)
    fc_start: dict[str, int | None] = field(default_factory=dict)
    bat_window: dict[str, tuple[int, int] | None] = field(default_factory=dict)
    bat_dispatch: dict[str, list[float]] = field(default_factory=dict)
    bus_on: dict[str, list[bool]] = field(default_factory=dict)
    branch_on: dict[str, list[bool]] = field(default_factory=dict)
    # Continuous injection values reported by a solver, for cross-checking
    # against the semantic trajectories. Optional.
    solver_power: dict[str, list[float]] | None = None

    def energized_step(self, flags: list[bool]) -> int | None:
        """First step at which a monotone on/off series is on."""
        for i, on in enumerate(flags):
            if on:
                return i + 1
        return None

    def bus_energized_step(self, bus_id: str) -> int | None:
        return self.energized_step(self.bus_on[bus_id])

    def branch_energized_step(self, branch_id: str) -> int | None:
        return self.energized_step(self.branch_on[branch_id])

    def to_document(self) -> dict:
        return {
            "n_steps": self.n_steps,
            "gen_start": self.gen_start,
            "fc_start": self.fc_start,
            "bat_window": {
                b: list(w) if w is not None else None for b, w in self.bat_window.items()
            },
            "bat_dispatch": self.bat_dispatch,
            "bus_on": self.bus_on,
            "branch_on": self.branch_on,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_document(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_document(cls, doc: dict) -> "Schedule":
        """Read a schedule document; a value of the wrong type raises ValueError."""
        if not isinstance(doc, dict):
            raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
        n_steps = doc.get("n_steps")
        if not (_is_step(n_steps) and n_steps >= 1):
            raise ValueError(f"n_steps: expected an integer step count >= 1, got {n_steps!r}")
        for key, (ok, what) in _FIELD_TYPES.items():
            items = doc.get(key, {})
            if not isinstance(items, dict):
                raise ValueError(f"{key}: expected an object keyed by id, got {items!r}")
            for k, v in items.items():
                if not ok(v):
                    raise ValueError(f"{key}.{k}: expected {what}, got {v!r}")
        return cls(
            n_steps=n_steps,
            gen_start={k: v for k, v in doc.get("gen_start", {}).items()},
            fc_start={k: v for k, v in doc.get("fc_start", {}).items()},
            bat_window={
                k: tuple(v) if v is not None else None
                for k, v in doc.get("bat_window", {}).items()
            },
            bat_dispatch={k: list(map(float, v)) for k, v in doc.get("bat_dispatch", {}).items()},
            bus_on={k: list(v) for k, v in doc.get("bus_on", {}).items()},
            branch_on={k: list(v) for k, v in doc.get("branch_on", {}).items()},
        )

    @classmethod
    def load(cls, path: str | Path) -> "Schedule":
        return cls.from_document(json.loads(Path(path).read_text()))


def empty_schedule(case: GridCase) -> Schedule:
    """All-dark schedule shell for a case: nothing starts, nothing energizes."""
    T = case.time_grid.n_steps
    return Schedule(
        n_steps=T,
        gen_start={g.id: None for g in case.generators},
        fc_start={f.id: None for f in case.fuel_cells},
        bat_window={b.id: None for b in case.batteries},
        bat_dispatch={b.id: [0.0] * T for b in case.batteries},
        bus_on={b.id: [False] * T for b in case.buses},
        branch_on={k.id: [False] * T for k in case.branches},
    )
