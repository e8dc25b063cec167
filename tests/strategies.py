"""Hypothesis strategies for small case documents.

``case_documents`` draws 2-6 buses on a random tree with up to two extra
branches (so meshes too), a black-start generator or none, up to two other
generators, up to two fuel cells (some with a cranking draw, which can make
a case infeasible), up to two batteries, and 4-9 steps of 20 minutes. Every
document it draws loads and encodes.

``decisions`` draws a start decision for a loaded case, as the three
arguments of ``devices.bus_holders``.
"""

from __future__ import annotations

from hypothesis import strategies as st

STEP = 20


@st.composite
def case_documents(draw) -> dict:
    T = draw(st.integers(4, 9))
    n = draw(st.integers(2, 6))
    buses = [f"b{i}" for i in range(1, n + 1)]
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2)))
    branches = [{"id": f"l{i + 1}_{j + 1}", "from_bus": buses[i], "to_bus": buses[j]}
                for i, j in sorted(edges)]

    def crank_ramp(first: int, least_crank: int) -> tuple[int, int]:
        """Steps that let a unit started at step ``first`` finish within T."""
        crank = draw(st.integers(least_crank, min(3, T - first)))
        return crank, draw(st.integers(1, min(3, T - first + 1 - crank)))

    fuel_cells = []
    for k in range(1, draw(st.integers(0, 2)) + 1):
        crank, ramp = crank_ramp(2, 0)
        p_max = draw(st.sampled_from([10, 20, 30]))
        fuel_cells.append({
            "id": f"fc{k}", "bus": draw(st.sampled_from(buses)), "p_max": p_max,
            "p_crank": draw(st.sampled_from([0, 0, p_max / 4])) if crank else 0,
            "crank_minutes": STEP * crank, "ramp_minutes": STEP * ramp,
        })
    batteries = []
    for k in range(1, draw(st.integers(0, 2)) + 1):
        p_max = draw(st.sampled_from([10, 20, 30]))
        batteries.append({
            "id": f"bt{k}", "bus": draw(st.sampled_from(buses)), "p_max": p_max,
            "p_min": p_max * draw(st.sampled_from([0.1, 0.5, 1.0])),
            "soc_init": p_max * draw(st.sampled_from([1, 2, 3])) / 3,
            "earliest_start_minutes": STEP * draw(st.integers(1, T - 1)),
        })
    generators = []
    if draw(st.booleans()) or not (fuel_cells or batteries):
        crank, ramp = crank_ramp(2, 1)
        generators.append({
            "id": "g1", "bus": draw(st.sampled_from(buses)),
            "p_max": draw(st.sampled_from([60, 80, 100, 120])),
            "p_crank": draw(st.sampled_from([5, 10])), "crank_minutes": STEP * crank,
            "ramp_minutes": STEP * ramp, "black_start": True,
        })
    for k in range(2, draw(st.integers(0, 2)) + 2):
        first = draw(st.integers(2, T - 1))
        crank, ramp = crank_ramp(first, 1)
        last = draw(st.integers(first, T))
        generators.append({
            "id": f"g{k}", "bus": draw(st.sampled_from(buses)),
            "p_max": draw(st.sampled_from([40, 60, 80])),
            "p_crank": draw(st.sampled_from([10, 15, 25])),
            "crank_minutes": STEP * crank, "ramp_minutes": STEP * ramp,
            "earliest_start_minutes": STEP * (first - 1),
            "latest_start_minutes": STEP * (last - 1),
        })
    return {
        "time": {"step_minutes": STEP, "horizon_minutes": STEP * T},
        "buses": [{"id": b} for b in buses],
        "branches": branches,
        "generators": generators,
        "fuel_cells": fuel_cells,
        "batteries": batteries,
        "objective": {},
    }


@st.composite
def decisions(draw, case) -> tuple[dict, dict, dict]:
    """Any start step or None per generator and fuel cell, and any window or
    None per battery, empty ones too."""
    T = case.time_grid.n_steps
    start = st.none() | st.integers(1, T + 1)
    window = st.none() | st.integers(1, T).flatmap(
        lambda s: st.tuples(st.just(s), st.integers(s, T + 1)))
    return ({g.id: draw(start) for g in case.generators},
            {f.id: draw(start) for f in case.fuel_cells},
            {b.id: draw(window) for b in case.batteries})
