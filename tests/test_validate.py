import copy

import pytest

from blackstart import (
    ChainError,
    MalformedScheduleError,
    energization_chain,
    load_case,
    mutation_suite,
    system_power,
    validate,
)
from blackstart.schedule import Schedule, empty_schedule

from conftest import TOY_NAMES


def test_oracle_optimal_schedules_pass(toy_cases, toy_enum):
    for name in TOY_NAMES:
        report = validate(toy_cases[name], toy_enum[name].schedule)
        assert report.passed, (name, report.violations)


def test_start_before_energization_is_single_eq29(toy_cases, toy_enum):
    case = toy_cases["toy_t5"]
    sched = copy.deepcopy(toy_enum["toy_t5"].schedule)
    # b4 lights at step 4; moving g3 to step 3 leaves balance and windows intact
    assert sched.gen_start["g3"] == 4
    sched.gen_start["g3"] = 3
    report = validate(case, sched)
    assert not report.passed
    assert [v.tag for v in report.violations] == ["eq29"]
    assert report.violations[0].entity == "g3"


def test_battery_overdraw_flagged_at_the_right_step():
    # 50 MWh battery discharging 50 MW: the fourth 20-minute step overdraws
    doc = {
        "time": {"step_minutes": 20, "horizon_minutes": 160},
        "buses": [{"id": "b1"}],
        "branches": [],
        "generators": [],
        "fuel_cells": [],
        "batteries": [{"id": "bt1", "bus": "b1", "p_max": 50, "p_min": 5,
                       "soc_init": 50, "soc_min": 0, "earliest_start_minutes": 20}],
    }
    case = load_case(doc)
    sched = empty_schedule(case)
    sched.bat_window["bt1"] = (2, 6)
    sched.bat_dispatch["bt1"] = [0, 50, 50, 50, 50, 0, 0, 0]
    sched.bus_on["b1"] = [False] + [True] * 7
    report = validate(case, sched)
    tags = {(v.tag, v.step) for v in report.violations}
    assert ("eq47", 5) in tags
    assert report.soc["bt1"][4] == pytest.approx(-50 / 3)
    # three steps exactly drain it; with the window shortened it passes
    sched.bat_window["bt1"] = (2, 5)
    sched.bat_dispatch["bt1"] = [0, 50, 50, 50, 0, 0, 0, 0]
    fixed = validate(case, sched)
    assert ("eq47", 5) not in {(v.tag, v.step) for v in fixed.violations}


def test_battery_dispatch_out_of_bounds_is_flagged_and_reported_raw():
    doc = {
        "time": {"step_minutes": 20, "horizon_minutes": 160},
        "buses": [{"id": "b1"}],
        "branches": [],
        "generators": [],
        "fuel_cells": [],
        "batteries": [{"id": "bt1", "bus": "b1", "p_max": 20, "p_min": 5,
                       "soc_init": 50, "soc_min": 0, "earliest_start_minutes": 20}],
    }
    case = load_case(doc)
    sched = empty_schedule(case)
    sched.bat_window["bt1"] = (2, 5)
    # outside, above p_max, below p_min, in bounds, outside, outside ...
    sched.bat_dispatch["bt1"] = [3.0, 25.0, 2.0, 10.0, 7.0, 0.0, 0.0, 0.0]
    sched.bus_on["b1"] = [False] + [True] * 7
    report = validate(case, sched)
    eq46 = [(v.tag, v.step) for v in report.violations if v.tag.startswith("eq46")]
    assert eq46 == [("eq46hi", 1), ("eq46hi", 2), ("eq46lo", 3), ("eq46hi", 5)]
    raw = [0.0, 25.0, 2.0, 10.0, 0.0, 0.0, 0.0, 0.0]
    assert report.system_power == raw
    assert system_power(case, sched) == raw
    hours = 20 / 60
    level, soc = 50.0, []
    for p in raw:
        level -= p * hours
        soc.append(level)
    assert report.soc["bt1"] == pytest.approx(soc)


def test_balance_violation_tagged_eq2(toy_cases, toy_enum):
    case = toy_cases["toy_bt_tight"]
    sched = copy.deepcopy(toy_enum["toy_bt_tight"].schedule)
    s, e = sched.bat_window["bt1"]
    # zero out the step covering g2's crank
    need = [t for t in range(s, e) if sched.bat_dispatch["bt1"][t - 1] > 3]
    sched.bat_dispatch["bt1"][need[0] - 1] = 3.0
    report = validate(case, sched)
    assert any(v.tag == "eq2" for v in report.violations)


def test_all_violations_reported_not_just_first(toy_cases, toy_enum):
    case = toy_cases["toy_t5"]
    sched = copy.deepcopy(toy_enum["toy_t5"].schedule)
    sched.gen_start["g3"] = 3          # eq29
    sched.bus_on["b5"][1] = True       # eq34 at step 2 (no justification yet)
    report = validate(case, sched)
    tags = {v.tag for v in report.violations}
    assert {"eq29", "eq34"} <= tags


def test_solver_power_mismatch_reported(toy_cases, toy_enum):
    case = toy_cases["toy_t5"]
    sched = copy.deepcopy(toy_enum["toy_t5"].schedule)
    sched.solver_power = {"fc1": [0.0] * 8}
    report = validate(case, sched)
    assert any(v.tag == "eq23" and v.entity == "fc1" for v in report.violations)


def test_nan_solver_power_is_a_violation(toy_cases, toy_enum):
    case = toy_cases["toy_bt"]
    sched = copy.deepcopy(toy_enum["toy_bt"].schedule)
    sched.solver_power = {"g2": [float("nan")] * case.time_grid.n_steps}
    report = validate(case, sched)
    assert {(v.tag, v.entity) for v in report.violations} == {("eq23g", "g2")}


def test_malformed_schedule_raises(toy_cases):
    case = toy_cases["toy_t5"]
    with pytest.raises(MalformedScheduleError):
        validate(case, Schedule(n_steps=8))
    short = empty_schedule(case)
    short.bus_on["b1"] = [False]
    with pytest.raises(MalformedScheduleError):
        validate(case, short)


@pytest.mark.parametrize("window", [(2, 15), (9, 9), (2, 10)])
def test_a_battery_window_past_the_horizon_is_malformed(toy_cases, toy_enum, window):
    """toy_bt has 8 steps, so a window may open at step 8 at the latest and
    close at step 9, after the horizon."""
    sched = copy.deepcopy(toy_enum["toy_bt"].schedule)
    assert sched.bat_window["bt1"] == (2, 9)
    assert validate(toy_cases["toy_bt"], sched).passed
    sched.bat_window["bt1"] = window
    with pytest.raises(MalformedScheduleError, match="bt1: window .* runs past the horizon"):
        validate(toy_cases["toy_bt"], sched)


@pytest.mark.parametrize("key, series", [
    ("bus_on", ["false", 0]),
    ("bus_on", [True, 1]),
    ("branch_on", [None, False]),
    ("bat_dispatch", [0.0, True]),
    ("bat_dispatch", ["5", 0]),
])
def test_schedule_document_flags_and_dispatch_are_typed(key, series):
    """Flags are JSON booleans and dispatch values numbers; a string "false"
    once read as an energized bus."""
    with pytest.raises(ValueError, match=f"{key}.x"):
        Schedule.from_document({"n_steps": 2, key: {"x": series}})


@pytest.mark.parametrize("doc", [
    {"n_steps": 8.5}, {"n_steps": True}, {"n_steps": 0}, {"n_steps": "8"}, {}, [],
], ids=["fraction", "boolean", "zero", "string", "missing", "not-an-object"])
def test_schedule_document_step_count_is_a_positive_integer(doc):
    """``8.5`` once loaded as 8 steps and ``true`` as 1."""
    with pytest.raises(ValueError, match="n_steps|JSON object"):
        Schedule.from_document(doc)


def test_report_serializes(toy_cases, toy_enum):
    report = validate(toy_cases["toy_t5"], toy_enum["toy_t5"].schedule)
    doc = report.to_document()
    assert doc["passed"] is True
    assert doc["bus_energized"]["b4"] == 4
    assert isinstance(report.dumps(), str)


# -- energization chains -------------------------------------------------------


def test_chain_three_bus_path_hand_walk(toy_cases, toy_enum):
    case = toy_cases["toy_path3"]
    sched = toy_enum["toy_path3"].schedule
    chain = energization_chain(case, sched, "b3")
    assert chain == [("b3", 4), ("l2_3", 4), ("b2", 3), ("l1_2", 3), ("b1", 2)]


def test_chain_single_node_for_self_start_bus(toy_cases, toy_enum):
    chain = energization_chain(
        toy_cases["toy_path3"], toy_enum["toy_path3"].schedule, "b1"
    )
    assert chain == [("b1", 2)]


def test_chain_error_for_dark_bus(toy_cases):
    case = toy_cases["toy_path3"]
    sched = empty_schedule(case)
    sched.gen_start.update({"g1": 2, "g2": None})
    sched.bus_on["b1"] = [False] + [True] * 7
    with pytest.raises(ChainError, match="never energized"):
        energization_chain(case, sched, "b3")


def test_chain_exists_for_every_energized_bus(toy_cases, toy_enum):
    for name in TOY_NAMES:
        case = toy_cases[name]
        sched = toy_enum[name].schedule
        for bus in case.buses:
            if sched.bus_energized_step(bus.id) is None:
                continue
            chain = energization_chain(case, sched, bus.id)
            # alternating bus, branch, bus...; steps nonincreasing; branch hops
            # exceed their upstream bus's step by at least one
            steps = [s for _, s in chain]
            assert all(a >= b for a, b in zip(steps, steps[1:]))
            for i in range(1, len(chain) - 1, 2):
                branch_steps = chain[i][1]
                upstream_bus_step = chain[i + 1][1]
                assert branch_steps >= upstream_bus_step + 1


# -- mutation suite -------------------------------------------------------------


def test_mutation_suite_catches_everything(toy_cases, toy_enum):
    for name in TOY_NAMES:
        result = mutation_suite(toy_cases[name], toy_enum[name].schedule)
        assert result.total > 0
        assert result.all_caught, [
            o.label for o in result.outcomes if not o.detected
        ]


def test_mutation_tag_inventory_covers_constraint_families(toy_cases, toy_enum):
    tags = set()
    for name in TOY_NAMES:
        tags |= mutation_suite(toy_cases[name], toy_enum[name].schedule).detected_tags()
    required = {
        "eq2", "eq3", "eq29", "eq30", "eq32", "eq34",
        "eq35", "eq37", "eq38", "eq39", "eq40",
        "eq45", "eq46hi", "eq46lo", "eq47",
    }
    missing = required - tags
    assert not missing, f"no mutation produced: {sorted(missing)}"


def test_slack_start_shifts_inside_windows_are_excluded(toy_cases, toy_enum):
    # g2 starts at 4 with a window reaching the horizon: +1 is legal, excluded
    result = mutation_suite(toy_cases["toy_path3"], toy_enum["toy_path3"].schedule)
    assert not any("after-window" in o.label for o in result.outcomes)


def test_empty_mutation_set_passes_trivially():
    doc = {
        "time": {"step_minutes": 20, "horizon_minutes": 160},
        "buses": [{"id": "b1"}],
        "branches": [],
        "generators": [],
        "fuel_cells": [],
        "batteries": [{"id": "bt1", "bus": "b1", "p_max": 10, "p_min": 1,
                       "soc_init": 10, "earliest_start_minutes": 20}],
    }
    case = load_case(doc)
    sched = empty_schedule(case)  # nothing starts, nothing energizes
    assert validate(case, sched).passed
    result = mutation_suite(case, sched)
    assert result.total == 0 and result.detected == 0 and result.all_caught


def test_mutation_suite_requires_a_passing_schedule(toy_cases, toy_enum):
    bad = copy.deepcopy(toy_enum["toy_t5"].schedule)
    bad.gen_start["g2"] = 1
    with pytest.raises(ValueError, match="passes validation"):
        mutation_suite(toy_cases["toy_t5"], bad)
