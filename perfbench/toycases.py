"""Seeded small case documents for the toy_oracle workload.

Each document has 2-6 buses on a random tree, one black-start generator plus
0-2 others, 0-1 fuel cells, 0-2 batteries and 4-9 steps of 20 minutes. Its
decision count (what the enumeration oracle walks) is kept at or below
``MAX_COMBINATIONS`` so that one oracle solve stays well under the solver
child's start-up time.
"""

from __future__ import annotations

import math
import random

MAX_COMBINATIONS = 2000
STEP = 20


def _combinations(doc: dict) -> int:
    """Decision combinations the enumeration oracle walks for ``doc``."""
    T = doc["time"]["horizon_minutes"] // STEP
    counts = []
    for g in doc["generators"]:
        if not g.get("black_start"):
            first = g["earliest_start_minutes"] // STEP + 1
            last = g["latest_start_minutes"] // STEP + 1
            counts.append(last - first + 2)
    for b in doc["batteries"]:
        first = b["earliest_start_minutes"] // STEP + 1
        counts.append(sum(T + 1 - s for s in range(first, T + 1)) + 1)
    return math.prod(counts)


def _draw(rng: random.Random) -> dict:
    T = rng.randint(4, 9)
    buses = [f"b{i}" for i in range(1, rng.randint(2, 6) + 1)]
    branches = []
    for i in range(1, len(buses)):
        j = rng.randrange(i)
        branches.append({"id": f"l{j + 1}_{i + 1}", "from_bus": buses[j], "to_bus": buses[i]})

    def crank_ramp() -> tuple[int, int]:
        # The encoder needs start + crank + ramp - 1 <= T even for the earliest start (2).
        crank = rng.randint(1, min(3, T - 2))
        return crank, rng.randint(1, min(3, T - 1 - crank))

    crank, ramp = crank_ramp()
    generators = [{
        "id": "g1", "bus": buses[0], "p_max": rng.choice([60, 80, 100, 120]),
        "p_crank": rng.choice([5, 10]), "crank_minutes": STEP * crank,
        "ramp_minutes": STEP * ramp, "black_start": True,
    }]
    for k in range(2, rng.randint(1, 3) + 1):
        crank, ramp = crank_ramp()
        first = rng.randint(2, T + 1 - crank - ramp)
        last = rng.randint(first, T)
        generators.append({
            "id": f"g{k}", "bus": rng.choice(buses[1:]),
            "p_max": rng.choice([40, 60, 80]), "p_crank": rng.choice([10, 15, 25]),
            "crank_minutes": STEP * crank, "ramp_minutes": STEP * ramp,
            "earliest_start_minutes": STEP * (first - 1),
            "latest_start_minutes": STEP * (last - 1),
        })
    fuel_cells = [
        {"id": "fc1", "bus": rng.choice(buses), "p_max": rng.choice([10, 20, 30]),
         "ramp_minutes": STEP * rng.randint(1, 2)}
        for _ in range(rng.randint(0, 1))
    ]
    batteries = []
    for k in range(1, rng.randint(0, 2) + 1):
        p_max = rng.choice([10, 20, 30])
        batteries.append({
            "id": f"bt{k}", "bus": rng.choice(buses), "p_max": p_max,
            "p_min": p_max * rng.choice([0.1, 0.5, 1.0]),
            "soc_init": p_max * rng.choice([1, 2, 3]) / 3,
            "earliest_start_minutes": STEP * rng.randint(1, T - 1),
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


def generate(seed: int, n: int) -> list[dict]:
    """``n`` case documents drawn from ``seed``; the same seed gives the same list."""
    rng = random.Random(seed)
    docs: list[dict] = []
    while len(docs) < n:
        doc = _draw(rng)
        if _combinations(doc) <= MAX_COMBINATIONS:
            docs.append(doc)
    return docs
