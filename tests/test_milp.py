import itertools
import math

import pytest

from blackstart import (
    DecodeError,
    EncodingError,
    assignment_from_schedule,
    decode,
    encode,
    load_case,
    objective_value,
    validate,
)
from blackstart.devices import device_trajectories
from blackstart.milp import BINARY_KINDS, FC_ANC, _n, _n2
from blackstart.schedule import empty_schedule
from blackstart.solvers.enumeration import _battery_options, _gen_options, _simulate

from conftest import doc_variant


def fc_only_doc(n_steps=4):
    return {
        "time": {"step_minutes": 20, "horizon_minutes": 20 * n_steps},
        "buses": [{"id": "b1"}],
        "branches": [],
        "generators": [],
        "fuel_cells": [
            {"id": "fc1", "bus": "b1", "p_max": 20, "crank_minutes": 0,
             "ramp_minutes": 20}
        ],
        "batteries": [],
    }


def test_ancillary_and_status_variable_counts():
    model = encode(load_case(fc_only_doc(4)))
    anc = [v for v in model.variables if v.kind in FC_ANC.values()]
    status = [v for v in model.variables if v.kind in ("fc_start", "fc_on", "fc_max")]
    assert len(anc) == 3 * 1 * 4 * 4  # three families over t1 x t2
    assert len(status) == 3 * 1 * 4


def test_no_fc_no_battery_model_has_no_product_or_window_vars(minimal_two_bus_doc):
    model = encode(load_case(minimal_two_bus_doc))
    kinds = {v.kind for v in model.variables}
    assert kinds == {"gen_start", "gen_power", "bus_on", "branch_on"}


def test_encode_is_deterministic(toy_cases):
    a = encode(toy_cases["toy_t5"])
    b = encode(toy_cases["toy_t5"])
    assert [v.name for v in a.variables] == [v.name for v in b.variables]
    assert [c.name for c in a.constraints] == [c.name for c in b.constraints]
    assert a.objective == b.objective and a.objective_constant == b.objective_constant


def test_horizon_too_short_is_an_encode_error(minimal_two_bus_doc):
    doc = doc_variant(minimal_two_bus_doc, **{"generators.0.ramp_minutes": 200})
    with pytest.raises(EncodingError, match="horizon"):
        encode(load_case(doc))


def test_constraint_names_follow_the_grammar(toy_cases):
    model = encode(toy_cases["toy_t5"])
    names = {c.name for c in model.constraints}
    assert "eq33.l1_2.t4" in names
    assert "eq2.system.t5" in names
    assert any(n.startswith("eq23.fc1.") for n in names)
    assert any(n.startswith("eq6.fc1.t1.t") for n in names)
    var_names = set()
    for v in model.variables:
        assert v.name.split(".")[0] == v.kind
        var_names.add(v.name)
    assert "bus_on.b1.3" in var_names


def _all_feasible_schedules(case):
    gens = list(case.generators)
    gen_opts = [_gen_options(g, case.time_grid.n_steps) for g in gens]
    bat_opts = [_battery_options(b, case.time_grid.n_steps) for b in case.batteries]
    for combo in itertools.product(*gen_opts, *bat_opts):
        gen_starts = {g.id: combo[i] for i, g in enumerate(gens)}
        windows = {b.id: combo[len(gens) + j] for j, b in enumerate(case.batteries)}
        sched = _simulate(case, gen_starts, windows)
        if sched is not None:
            yield sched


def test_every_feasible_toy_solution_matches_device_semantics(toy_cases):
    """Integral model solutions decode to trajectories identical to the
    closed-form device semantics, across the whole toy decision space."""
    case = toy_cases["toy_t5"]
    model = encode(case)
    checked = 0
    for sched in _all_feasible_schedules(case):
        assignment = assignment_from_schedule(model, case, sched)
        assert model.check_assignment(assignment, tol=1e-7) == []
        decoded = decode(model, assignment, case)
        semantics = device_trajectories(case, decoded)
        for dev_id, series in semantics.items():
            reported = decoded.solver_power.get(dev_id)
            if reported is None:
                continue
            assert all(
                math.isclose(a, b, abs_tol=1e-9) for a, b in zip(reported, series)
            ), f"{dev_id} trajectories diverge"
        assert math.isclose(
            model.objective_of(assignment), objective_value(case, decoded), abs_tol=1e-9
        )
        checked += 1
    assert checked > 10


def test_battery_toy_solutions_match_semantics(toy_cases):
    case = toy_cases["toy_bt_tight"]
    model = encode(case)
    count = 0
    for sched in _all_feasible_schedules(case):
        assignment = assignment_from_schedule(model, case, sched)
        assert model.check_assignment(assignment, tol=1e-7) == []
        decoded = decode(model, assignment, case)
        assert decoded.bat_window == sched.bat_window
        assert math.isclose(
            model.objective_of(assignment), objective_value(case, decoded), abs_tol=1e-9
        )
        count += 1
    assert count > 5


def test_decode_start_step(toy_cases):
    case = toy_cases["toy_path3"]
    model = encode(case)
    sched = empty_schedule(case)
    sched.gen_start.update({"g1": 2, "g2": 3})
    sched.bus_on["b1"] = [False] + [True] * 7
    sched.bus_on["b2"] = [False, False] + [True] * 6
    sched.bus_on["b3"] = [False, False] + [True] * 6
    sched.branch_on["l1_2"] = [False, False] + [True] * 6
    sched.branch_on["l2_3"] = [False, False] + [True] * 6
    assignment = assignment_from_schedule(model, case, sched)
    decoded = decode(model, assignment, case)
    assert decoded.gen_start == {"g1": 2, "g2": 3}
    # start series (0,0,1,1,...) means two dark steps before startup
    assert sum(1 - assignment[_n("gen_start", "g2", t)] for t in range(1, 9)) == 2


def test_decode_battery_window():
    doc = {
        "time": {"step_minutes": 20, "horizon_minutes": 100},
        "buses": [{"id": "b1"}],
        "branches": [],
        "generators": [],
        "fuel_cells": [],
        "batteries": [{"id": "bt1", "bus": "b1", "p_max": 10, "p_min": 0,
                       "soc_init": 100, "earliest_start_minutes": 20}],
    }
    case = load_case(doc)
    model = encode(case)
    assignment = {v.name: 0.0 for v in model.variables}
    ws = [0, 0, 1, 1, 1]
    we = [0, 0, 0, 0, 1]
    for t in range(1, 6):
        assignment[_n("bat_ws", "bt1", t)] = ws[t - 1]
        assignment[_n("bat_we", "bt1", t)] = we[t - 1]
        assignment[_n("bus_on", "b1", t)] = ws[t - 1]
        assignment[_n("bat_power", "bt1", t)] = 10.0 if ws[t - 1] and not we[t - 1] else 0.0
    decoded = decode(model, assignment, case)
    assert decoded.bat_window["bt1"] == (3, 5)


def test_decode_all_zero_assignment_is_all_never():
    # only self-start requirement is a battery, so the blackout fixings hold
    doc = {
        "time": {"step_minutes": 20, "horizon_minutes": 160},
        "buses": [{"id": "b1"}, {"id": "b2"}],
        "branches": [{"id": "l1_2", "from_bus": "b1", "to_bus": "b2"}],
        "generators": [
            {"id": "g1", "bus": "b1", "p_max": 100, "p_crank": 10,
             "crank_minutes": 40, "ramp_minutes": 40}
        ],
        "fuel_cells": [],
        "batteries": [{"id": "bt1", "bus": "b2", "p_max": 10, "p_min": 1,
                       "soc_init": 10, "earliest_start_minutes": 20}],
        "objective": {"beta": 0},
    }
    case = load_case(doc)
    model = encode(case)
    assignment = {v.name: 0.0 for v in model.variables}
    decoded = decode(model, assignment, case)
    assert decoded.gen_start == {"g1": None}
    assert decoded.bat_window == {"bt1": None}
    # the first objective term is at its ceiling when nothing starts
    assert model.objective_of(assignment) == objective_value(case, decoded)
    assert model.objective_of(assignment) == pytest.approx(90 * 8)


def test_decode_rejects_non_integral(toy_cases):
    case = toy_cases["toy_path3"]
    model = encode(case)
    sched = empty_schedule(case)
    sched.gen_start.update({"g1": 2, "g2": None})
    sched.bus_on["b1"] = [False] + [True] * 7
    assignment = assignment_from_schedule(model, case, sched)
    assignment["gen_start.g2.5"] = 0.4
    with pytest.raises(DecodeError, match="integral"):
        decode(model, assignment, case)


def test_decode_accepts_a_binary_at_the_solver_tolerance_edge(toy_cases):
    """HiGHS may return a binary up to its mip_feasibility_tolerance (1e-6)
    from 0 or 1; decode keeps a margin above that, and 0.5 still fails."""
    case = toy_cases["toy_path3"]
    model = encode(case)
    sched = empty_schedule(case)
    sched.gen_start.update({"g1": 2, "g2": None})
    sched.bus_on["b1"] = [False] + [True] * 7
    assignment = assignment_from_schedule(model, case, sched)
    assignment["bus_on.b1.3"] = 1 - 5e-6
    decoded = decode(model, assignment, case)
    assert decoded.bus_on["b1"] == sched.bus_on["b1"]
    assert validate(case, decoded).passed
    assignment["bus_on.b1.3"] = 0.5
    with pytest.raises(DecodeError, match="integral"):
        decode(model, assignment, case)


def test_decode_rejects_non_monotone(toy_cases):
    case = toy_cases["toy_path3"]
    model = encode(case)
    sched = empty_schedule(case)
    sched.gen_start.update({"g1": 2, "g2": None})
    sched.bus_on["b1"] = [False] + [True] * 7
    assignment = assignment_from_schedule(model, case, sched)
    assignment["gen_start.g2.5"] = 1.0  # rises then falls back to 0
    with pytest.raises(DecodeError, match="monotone"):
        decode(model, assignment, case)


def test_objective_single_generator():
    doc = {
        "time": {"step_minutes": 20, "horizon_minutes": 160},
        "buses": [{"id": "b1"}],
        "branches": [],
        "generators": [
            {"id": "g1", "bus": "b1", "p_max": 100, "p_crank": 10,
             "crank_minutes": 20, "ramp_minutes": 20, "black_start": True}
        ],
        "fuel_cells": [],
        "batteries": [],
        "objective": {"beta": 0},
    }
    case = load_case(doc)
    sched = empty_schedule(case)
    sched.gen_start["g1"] = 3
    assert objective_value(case, sched) == pytest.approx(90 * 2)
    # never started pays the full horizon
    sched.gen_start["g1"] = None
    assert objective_value(case, sched) == pytest.approx(90 * 8)
    model = encode(case)
    assert model.objective_constant == pytest.approx(90 * 8)


def test_objective_matches_enumeration_optimum(toy_cases, toy_enum):
    case = toy_cases["toy_t5"]
    result = toy_enum["toy_t5"]
    assert objective_value(case, result.schedule) == pytest.approx(result.objective, abs=1e-9)
    model = encode(case)
    assert model.objective_of(result.assignment) == pytest.approx(result.objective, abs=1e-9)


@pytest.mark.parametrize("name", ["toy_t5", "toy_fc", "toy_bt"])
def test_model_arrays_agree_with_the_model(toy_cases, toy_enum, name):
    """Objective and row activities from the flat arrays match the model's
    own evaluation of the oracle's optimum."""
    model = encode(toy_cases[name])
    arrays = model.arrays()
    x = [toy_enum[name].assignment[v.name] for v in model.variables]
    assert math.fsum(c * xi for c, xi in zip(arrays.c, x)) + arrays.constant == pytest.approx(
        model.objective_of(toy_enum[name].assignment), abs=1e-9)
    activity = [0.0] * len(model.constraints)
    for i, j, a in zip(arrays.row, arrays.col, arrays.val):
        activity[i] += a * x[j]
    for con, lo, hi, ax in zip(model.constraints, arrays.row_lo, arrays.row_hi, activity):
        assert lo - 1e-9 <= ax <= hi + 1e-9, con.name
        assert (lo, hi) == {"<=": (-math.inf, con.rhs), ">=": (con.rhs, math.inf),
                            "=": (con.rhs, con.rhs)}[con.sense]
    assert list(arrays.lb) == [v.lb for v in model.variables]
    assert list(arrays.ub) == [v.ub for v in model.variables]
    assert list(arrays.integrality) == [int(v.is_integer) for v in model.variables]


def test_linearization_identity_in_solutions(toy_external, toy_cases):
    """y == u*u exactly (after integral rounding) in solver solutions."""
    for name in ("toy_t5", "toy_fc"):
        case = toy_cases[name]
        result = toy_external[name]
        assert result.status == "optimal"
        a = result.assignment
        T = case.time_grid.n_steps
        for f in case.fuel_cells:
            for fam, kind in (("start", "fc_start"), ("on", "fc_on"), ("max", "fc_max")):
                for t1 in range(1, T + 1):
                    for t2 in range(1, T + 1):
                        y = round(a[_n2(FC_ANC[fam], f.id, t1, t2)])
                        u1 = round(a[_n(kind, f.id, t1)])
                        u2 = round(a[_n(kind, f.id, t2)])
                        assert y == u1 * u2


def test_status_monotone_in_solutions(toy_external, toy_cases):
    for name, result in toy_external.items():
        assert result.status == "optimal", f"{name}: {result.message}"
        case = toy_cases[name]
        a = result.assignment
        T = case.time_grid.n_steps
        for v in encode(case).variables:
            if v.kind not in BINARY_KINDS or v.steps[0] != 1:
                continue
            series = [round(a[_n(v.kind, v.entity, t)]) for t in range(1, T + 1)]
            assert all(x <= y for x, y in zip(series, series[1:])), (name, v.kind, v.entity)
