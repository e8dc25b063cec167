import random
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from blackstart import load_case, solve_enumeration, validate
from blackstart.cases import bundled_cases
from blackstart.devices import bus_holders
from blackstart.solvers import EnumerationCapError, energization_closure
from blackstart.solvers import enumeration
from blackstart.validate import ValidationReport, Violation

from conftest import bundled_document, doc_variant, load_bundled
from strategies import case_documents, decisions


def test_toy_t5_optimum(toy_cases, toy_enum):
    result = toy_enum["toy_t5"]
    assert result.status == "optimal"
    assert result.schedule.gen_start == {"g1": 2, "g2": 3, "g3": 4}
    assert result.schedule.fc_start == {"fc1": 2}
    assert result.stats["combinations"] == 64


def test_enumeration_winner_validates(toy_cases, toy_enum):
    for name, result in toy_enum.items():
        assert result.status == "optimal", name
        report = validate(toy_cases[name], result.schedule)
        assert report.passed, (name, report.violations)


def test_enumeration_is_deterministic(toy_cases):
    a = solve_enumeration(toy_cases["toy_bt_tight"])
    b = solve_enumeration(toy_cases["toy_bt_tight"])
    assert a.objective == b.objective
    assert a.point is None and b.point is None
    assert a.schedule.to_document() == b.schedule.to_document()
    assert a.stats["combinations"] == b.stats["combinations"]


def test_disconnected_nbs_generator_never_starts():
    doc = bundled_document("toy_path3")
    doc["branches"] = [doc["branches"][0]]  # drop l2_3; b3 becomes an island
    case = load_case(doc)
    result = solve_enumeration(case)
    assert result.status == "optimal"
    assert result.schedule.gen_start["g2"] is None
    assert result.schedule.bus_on["b3"] == [False] * 8


def test_start_window_after_reachability_forces_later_start():
    # hand-walked closure on the 3-bus path: b3 lights at step 4, but the
    # window opens only at step 6, so step 6 is the earliest feasible start
    doc = doc_variant(
        bundled_document("toy_path3"), **{"generators.1.earliest_start_minutes": 100}
    )
    case = load_case(doc)
    result = solve_enumeration(case)
    assert result.schedule.gen_start["g2"] == 6


def test_reachability_after_window_start_uses_energization_step(toy_enum):
    # plain path case: closure reaches b3 at step 4 and power is available
    assert toy_enum["toy_path3"].schedule.gen_start["g2"] == 4


def test_closure_hand_walk_three_bus_path(toy_cases):
    case = toy_cases["toy_path3"]
    bus_step, branch_step = energization_closure(case, {"b1": 2})
    assert bus_step == {"b1": 2, "b2": 3, "b3": 4}
    assert branch_step == {"l1_2": 3, "l2_3": 4}


def test_closure_ring(toy_cases):
    case = toy_cases["toy_t5"]
    bus_step, branch_step = energization_closure(case, {"b1": 2, "b2": 2})
    assert bus_step == {"b1": 2, "b2": 2, "b3": 3, "b4": 4, "b5": 3}
    assert branch_step["l1_2"] == 3
    assert branch_step["l3_4"] == 4


def test_cap_exceeded_raises(toy_cases):
    with pytest.raises(EnumerationCapError, match="cap"):
        solve_enumeration(toy_cases["toy_t5"], cap=3)


def test_infeasible_case_reports_infeasible():
    # fuel cell that drags its own cranking power down with nothing to cover it
    doc = {
        "time": {"step_minutes": 20, "horizon_minutes": 160},
        "buses": [{"id": "b1"}],
        "branches": [],
        "generators": [],
        "fuel_cells": [
            {"id": "fc1", "bus": "b1", "p_max": 20, "p_crank": 5,
             "crank_minutes": 40, "ramp_minutes": 20}
        ],
        "batteries": [],
    }
    result = solve_enumeration(load_case(doc))
    assert result.status == "infeasible"


def test_battery_keeps_window_open_when_it_lights_the_grid(toy_cases, toy_enum):
    # in the unconstrained-energy toy the battery must mirror a fuel cell:
    # open at step 2 and stay open through the horizon
    result = toy_enum["toy_bt"]
    assert result.schedule.bat_window["bt1"] == (2, 9)
    assert result.schedule.bat_dispatch["bt1"][1:] == [20.0] * 7


def test_a_battery_on_an_island_holds_its_bus_to_the_end():
    # no branch reaches b2, so once bt1's window closes nothing holds b2
    # (eq48); its energy lasts two steps, so only the last two can light it
    doc = {
        "time": {"step_minutes": 20, "horizon_minutes": 120},
        "buses": [{"id": "b1"}, {"id": "b2", "importance": 1}],
        "branches": [],
        "generators": [{"id": "g1", "bus": "b1", "p_max": 50, "p_crank": 5,
                        "crank_minutes": 20, "ramp_minutes": 20, "black_start": True}],
        "fuel_cells": [],
        "batteries": [{"id": "bt1", "bus": "b2", "p_max": 10, "p_min": 10, "soc_init": 7,
                       "soc_min": 0, "earliest_start_minutes": 20}],
    }
    result = solve_enumeration(load_case(doc))
    assert result.status == "optimal", result.message
    assert result.schedule.bat_window["bt1"] == (5, 7)
    assert result.schedule.bus_on["b2"] == [False] * 4 + [True] * 2


def test_battery_tight_soc_budget(toy_cases, toy_enum):
    case = toy_cases["toy_bt_tight"]
    result = toy_enum["toy_bt_tight"]
    b = case.batteries[0]
    used = sum(result.schedule.bat_dispatch["bt1"]) * case.time_grid.step_minutes / 60
    assert used <= b.soc_init - b.soc_min + 1e-9
    report = validate(case, result.schedule)
    assert report.passed


def fixed_point_closure(case, sources):
    """The closure by relaxing every branch until nothing changes: the
    definition ``energization_closure`` must agree with."""
    T = case.time_grid.n_steps
    bus_step = {b.id: None for b in case.buses}
    branch_step = {k.id: None for k in case.branches}
    for b_id, s in sources.items():
        if s <= T:
            bus_step[b_id] = s
    changed = True
    while changed:
        changed = False
        for k in case.branches:
            reach = min((s for s in (bus_step[k.from_bus], bus_step[k.to_bus]) if s is not None),
                        default=None)
            if reach is None or reach + 1 > T:
                continue
            if branch_step[k.id] is None or reach + 1 < branch_step[k.id]:
                branch_step[k.id] = reach + 1
                changed = True
            for end in (k.from_bus, k.to_bus):
                if bus_step[end] is None or branch_step[k.id] < bus_step[end]:
                    bus_step[end] = branch_step[k.id]
                    changed = True
    return bus_step, branch_step


def assert_closures_agree(case, rng):
    T = case.time_grid.n_steps
    buses = [b.id for b in case.buses]
    for _ in range(5):
        picked = rng.sample(buses, rng.randint(1, min(4, len(buses))))
        sources = {b_id: rng.randint(1, T + 1) for b_id in picked}
        assert energization_closure(case, sources) == fixed_point_closure(case, sources), sources


@pytest.mark.parametrize("name", bundled_cases())
def test_the_closure_is_the_fixed_point_on_bundled_cases(name):
    assert_closures_agree(load_bundled(name), random.Random(name))


@settings(max_examples=40, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case_documents(), st.randoms(use_true_random=False))
def test_the_closure_is_the_fixed_point_on_drawn_cases(doc, rng):
    assert_closures_agree(load_case(doc), rng)


def paper_sources(case, gen_start, fc_start, bat_window):
    """Bus id -> the first step a black-start generator, fuel cell or
    battery there starts, read unit by unit."""
    firsts = [(g.bus, gen_start[g.id]) for g in case.generators if g.is_black_start]
    firsts += [(f.bus, fc_start[f.id]) for f in case.fuel_cells]
    firsts += [(b.bus, w[0]) for b in case.batteries if (w := bat_window[b.id]) is not None]
    sources = {}
    for bus, s in firsts:
        if s is not None:
            sources[bus] = min(s, sources.get(bus, s))
    return sources


@settings(max_examples=40, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case_documents(), st.data())
def test_the_closure_of_the_holders_sources_is_the_fixed_point(doc, data):
    case = load_case(doc)
    drawn = data.draw(decisions(case))
    holders = bus_holders(case, *drawn)
    want = fixed_point_closure(case, paper_sources(case, *drawn))
    assert energization_closure(case, enumeration._sources(holders)) == want
    _, _, bat_window = drawn
    pinned = ({g.id: 2 if g.is_black_start else None for g in case.generators},
              {f.id: 2 for f in case.fuel_cells}, bat_window)
    assert enumeration.self_start_closure(case, bat_window) == fixed_point_closure(
        case, paper_sources(case, *pinned))


def test_an_error_result_times_the_validation_too(toy_cases, monkeypatch):
    def slow_failing_validate(case, schedule):
        time.sleep(0.05)
        return ValidationReport(passed=False, violations=[Violation("eq2", "system", 2)])

    monkeypatch.setattr(enumeration, "validate", slow_failing_validate)
    result = solve_enumeration(toy_cases["toy_path3"])
    assert result.status == "error"
    assert result.stats["wall_time_s"] >= 0.05
