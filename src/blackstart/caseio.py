"""Case-document ingestion and canonical serialization.

Case documents are JSON with the top-level keys ``time``, ``buses``,
``branches``, ``generators``, ``fuel_cells``, ``batteries``, ``objective``.
Power is in MW, energy in MWh, and every duration is in minutes; durations
are converted to whole steps on load and a non-multiple of the step length
is a load error.

Start times in documents are wall-clock startup minutes: a device whose
earliest start is m minutes may first come up at step m / step_minutes + 1
(the blackout occupies step 1).
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Any

from .grid import (
    Battery,
    Branch,
    Bus,
    CaseError,
    FuelCell,
    Generator,
    GridCase,
    TimeGrid,
    bus_importance_from_degree,
)

DEFAULT_STEP_MINUTES = 20.0
DEFAULT_HORIZON_MINUTES = 360.0
DEFAULT_GEN_CRANK_STEPS = 3
DEFAULT_BATTERY_PMIN_FRACTION = 0.10
DEFAULT_BETA_FRACTION = 1e-3

_TOP_KEYS = {"time", "buses", "branches", "generators", "fuel_cells", "batteries", "objective"}


def load_case(document: dict | str | Path) -> GridCase:
    """Build a validated GridCase from a case document (dict, JSON text, or path).

    Defaults applied here: 20-minute steps over a 360-minute horizon,
    generator cranking of 3 steps, battery minimum output of 10% of maximum,
    bus importance equal to branch degree, and a beta weight of
    1e-3 * max_g(p_max - p_crank).
    """
    doc = _as_dict(document)
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise CaseError(f"unknown top-level keys: {sorted(unknown)}")

    time_doc = _section(doc, "time", dict, default={})
    step_minutes = _num("time.step_minutes", _get(
        time_doc, "time", "step_minutes", (int, float), DEFAULT_STEP_MINUTES))
    horizon_minutes = _get(time_doc, "time", "horizon_minutes", (int, float),
                           DEFAULT_HORIZON_MINUTES)
    if step_minutes <= 0:
        raise CaseError("time.step_minutes: must be > 0")
    n_steps = _steps_of("time.horizon_minutes", horizon_minutes, step_minutes, minimum=2)
    time_grid = TimeGrid(step_minutes=step_minutes, n_steps=n_steps)

    buses: list[Bus] = []
    explicit_importance: dict[str, float] = {}
    for i, b in enumerate(_section(doc, "buses", list, required=True)):
        path = f"buses[{i}]"
        _require_keys(path, b, {"id"}, {"importance"})
        bus_id = _get(b, path, "id", str)
        imp = b.get("importance")
        if imp is not None:
            explicit_importance[bus_id] = _num(path + ".importance", imp)
        buses.append(Bus(id=bus_id, importance=explicit_importance.get(bus_id, 0.0)))

    branches: list[Branch] = []
    for i, k in enumerate(_section(doc, "branches", list, default=[])):
        path = f"branches[{i}]"
        _require_keys(path, k, {"id", "from_bus", "to_bus"}, set())
        branches.append(
            Branch(
                id=_get(k, path, "id", str),
                from_bus=_get(k, path, "from_bus", str),
                to_bus=_get(k, path, "to_bus", str),
            )
        )

    generators: list[Generator] = []
    for i, g in enumerate(_section(doc, "generators", list, default=[])):
        path = f"generators[{i}]"
        _require_keys(
            path,
            g,
            {"id", "bus", "p_max", "p_crank", "ramp_minutes"},
            {"crank_minutes", "earliest_start_minutes", "latest_start_minutes", "black_start"},
        )
        black_start = g.get("black_start")
        if black_start is not None and not isinstance(black_start, bool):
            raise CaseError(f"{path}.black_start: expected true or false, got {black_start!r}")
        crank_minutes = g.get("crank_minutes")
        if crank_minutes is None:
            crank_steps = DEFAULT_GEN_CRANK_STEPS
        else:
            crank_steps = _steps_of(path + ".crank_minutes", crank_minutes, step_minutes, minimum=1)
        generators.append(
            Generator(
                id=_get(g, path, "id", str),
                bus=_get(g, path, "bus", str),
                p_max=_num(path + ".p_max", _get(g, path, "p_max", (int, float))),
                p_crank=_num(path + ".p_crank", _get(g, path, "p_crank", (int, float))),
                crank_steps=crank_steps,
                ramp_steps=_steps_of(
                    path + ".ramp_minutes", _get(g, path, "ramp_minutes", (int, float)),
                    step_minutes, minimum=1,
                ),
                start_min=_start_step(path + ".earliest_start_minutes",
                                      g.get("earliest_start_minutes"), step_minutes, default=2),
                start_max=_start_step(path + ".latest_start_minutes",
                                      g.get("latest_start_minutes"), step_minutes, default=n_steps),
                is_black_start=bool(black_start),
            )
        )

    fuel_cells: list[FuelCell] = []
    for i, f in enumerate(_section(doc, "fuel_cells", list, default=[])):
        path = f"fuel_cells[{i}]"
        _require_keys(path, f, {"id", "bus", "p_max"}, {"p_crank", "crank_minutes", "ramp_minutes"})
        crank_minutes = f.get("crank_minutes", 0)
        ramp_minutes = f.get("ramp_minutes", step_minutes)
        fuel_cells.append(
            FuelCell(
                id=_get(f, path, "id", str),
                bus=_get(f, path, "bus", str),
                p_max=_num(path + ".p_max", _get(f, path, "p_max", (int, float))),
                p_crank=_num(path + ".p_crank", f.get("p_crank", 0.0)),
                crank_steps=_steps_of(path + ".crank_minutes", crank_minutes, step_minutes, minimum=0),
                ramp_steps=_steps_of(path + ".ramp_minutes", ramp_minutes, step_minutes, minimum=1),
            )
        )

    batteries: list[Battery] = []
    for i, bt in enumerate(_section(doc, "batteries", list, default=[])):
        path = f"batteries[{i}]"
        _require_keys(
            path, bt,
            {"id", "bus", "p_max", "soc_init"},
            {"p_min", "soc_min", "earliest_start_minutes"},
        )
        p_max = _num(path + ".p_max", _get(bt, path, "p_max", (int, float)))
        p_min = bt.get("p_min")
        batteries.append(
            Battery(
                id=_get(bt, path, "id", str),
                bus=_get(bt, path, "bus", str),
                p_max=p_max,
                p_min=DEFAULT_BATTERY_PMIN_FRACTION * p_max if p_min is None
                else _num(path + ".p_min", p_min),
                soc_init=_num(path + ".soc_init", _get(bt, path, "soc_init", (int, float))),
                soc_min=_num(path + ".soc_min", bt.get("soc_min", 0.0)),
                start_min=_start_step(path + ".earliest_start_minutes",
                                      bt.get("earliest_start_minutes"), step_minutes, default=2),
            )
        )

    objective = _section(doc, "objective", dict, default={})
    _require_keys("objective", objective, set(), {"beta"})
    beta = objective.get("beta")
    if beta is None:
        spreads = [g.p_max - g.p_crank for g in generators]
        beta = DEFAULT_BETA_FRACTION * max(spreads) if spreads else 0.0
    else:
        beta = _num("objective.beta", beta)

    case = GridCase(
        time_grid=time_grid,
        buses=tuple(sorted(buses, key=lambda b: b.id)),
        branches=tuple(sorted(branches, key=lambda k: k.id)),
        generators=tuple(sorted(generators, key=lambda g: g.id)),
        fuel_cells=tuple(sorted(fuel_cells, key=lambda f: f.id)),
        batteries=tuple(sorted(batteries, key=lambda b: b.id)),
        beta=float(beta),
    )

    missing = [b.id for b in case.buses if b.id not in explicit_importance]
    if missing:
        degree = bus_importance_from_degree(case)
        buses = tuple(
            b if b.id in explicit_importance else Bus(id=b.id, importance=degree[b.id])
            for b in case.buses
        )
        case = dataclasses.replace(case, buses=buses)
    return case


def case_to_document(case: GridCase) -> dict:
    """Canonical document for a case: loading it reproduces the case exactly."""
    dt = case.time_grid.step_minutes

    def start_minutes(step: int) -> float:
        return (step - 1) * dt

    return {
        "time": {
            "step_minutes": dt,
            "horizon_minutes": case.time_grid.n_steps * dt,
        },
        "buses": [{"id": b.id, "importance": b.importance} for b in case.buses],
        "branches": [
            {"id": k.id, "from_bus": k.from_bus, "to_bus": k.to_bus} for k in case.branches
        ],
        "generators": [
            {
                "id": g.id,
                "bus": g.bus,
                "p_max": g.p_max,
                "p_crank": g.p_crank,
                "crank_minutes": g.crank_steps * dt,
                "ramp_minutes": g.ramp_steps * dt,
                "earliest_start_minutes": start_minutes(g.start_min),
                "latest_start_minutes": start_minutes(g.start_max),
                "black_start": g.is_black_start,
            }
            for g in case.generators
        ],
        "fuel_cells": [
            {
                "id": f.id,
                "bus": f.bus,
                "p_max": f.p_max,
                "p_crank": f.p_crank,
                "crank_minutes": f.crank_steps * dt,
                "ramp_minutes": f.ramp_steps * dt,
            }
            for f in case.fuel_cells
        ],
        "batteries": [
            {
                "id": bt.id,
                "bus": bt.bus,
                "p_max": bt.p_max,
                "p_min": bt.p_min,
                "soc_init": bt.soc_init,
                "soc_min": bt.soc_min,
                "earliest_start_minutes": start_minutes(bt.start_min),
            }
            for bt in case.batteries
        ],
        "objective": {"beta": case.beta},
    }


def dumps_case(case: GridCase) -> str:
    """Byte-stable JSON text of the canonical document."""
    return json.dumps(case_to_document(case), sort_keys=True, indent=2) + "\n"


# -- helpers ------------------------------------------------------------------


def _as_dict(document: dict | str | Path) -> dict:
    if isinstance(document, dict):
        return document
    if isinstance(document, Path):
        text = document.read_text()
    elif isinstance(document, str):
        p = Path(document)
        # Treat short non-JSON strings as filesystem paths.
        text = p.read_text() if not document.lstrip().startswith("{") else document
    else:
        raise CaseError(f"unsupported document type {type(document).__name__}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseError(f"document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CaseError("document root must be an object")
    return doc


def _section(doc: dict, key: str, kind: type, default=None, required: bool = False):
    if key not in doc:
        if required:
            raise CaseError(f"{key}: section is required")
        return default
    value = doc[key]
    if not isinstance(value, kind):
        raise CaseError(f"{key}: expected {kind.__name__}")
    return value


def _require_keys(path: str, entry: Any, required: set[str], optional: set[str]) -> None:
    if not isinstance(entry, dict):
        raise CaseError(f"{path}: expected object")
    missing = required - set(entry)
    if missing:
        raise CaseError(f"{path}: missing keys {sorted(missing)}")
    unknown = set(entry) - required - optional
    if unknown:
        raise CaseError(f"{path}: unknown keys {sorted(unknown)}")


def _get(entry: dict, path: str, key: str, kinds, default=None):
    value = entry.get(key, default)
    if value is None:
        raise CaseError(f"{path}.{key}: value is required")
    if not isinstance(value, kinds) or isinstance(value, bool):
        want = kinds.__name__ if isinstance(kinds, type) else "number"
        raise CaseError(f"{path}.{key}: expected {want}, got {value!r}")
    return value


def _num(path: str, value: Any) -> float:
    """``value`` as a finite float; ``json`` reads NaN and ±Infinity, and
    an integer too large for a float, without complaint."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CaseError(f"{path}: expected number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise CaseError(f"{path}: expected a finite number, got {number!r}")
    return number


def _steps_of(path: str, minutes: Any, step_minutes: float, minimum: int) -> int:
    minutes = _num(path, minutes)
    steps = minutes / step_minutes
    rounded = round(steps)
    if abs(steps - rounded) > 1e-9:
        raise CaseError(
            f"{path}: {minutes} min is not a multiple of the {step_minutes}-min step"
        )
    if rounded < minimum:
        raise CaseError(f"{path}: {minutes} min is below the minimum of {minimum} step(s)")
    return int(rounded)


def _start_step(path: str, minutes: Any, step_minutes: float, default: int) -> int:
    """Wall-clock startup minutes -> step index (startup time of step s is (s-1)*dt)."""
    if minutes is None:
        return default
    return _steps_of(path, minutes, step_minutes, minimum=1) + 1
