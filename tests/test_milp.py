import itertools
import math
from array import array

import pytest
from hypothesis import HealthCheck, given, settings

from blackstart import (
    DecodeError,
    EncodingError,
    decode,
    encode,
    export_mps,
    import_mps,
    load_case,
    objective_value,
    point_from_schedule,
    solve_enumeration,
    validate,
)
from blackstart.cases import bundled_case_path
from blackstart.devices import device_trajectories, output_curves
from blackstart.milp import (
    BAT_POWER,
    BINARY_KINDS,
    FC_POWER,
    GEN_POWER,
    MilpModel,
    _n,
)
from blackstart.model import row_sense, row_sides
from blackstart.schedule import empty_schedule
from blackstart.solvers.enumeration import _battery_options, _gen_options, _simulate

from conftest import DRAWN_DOCUMENTS, doc_variant, load_bundled
from strategies import case_documents


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
    """A fuel cell has its three status series and no product columns."""
    doc = fc_only_doc(4)
    doc["fuel_cells"].append({**doc["fuel_cells"][0], "id": "fc2"})
    model = encode(load_case(doc))
    assert not [name for name in model.names if name.startswith("fc_anc_")]
    for f_id in ("fc1", "fc2"):
        series = {f"{kind}.{f_id}" for kind in ("fc_start", "fc_on", "fc_max")}
        assert sum(name.rsplit(".", 1)[0] in series for name in model.names) == 3 * 4


def test_no_fc_no_battery_model_has_no_product_or_window_vars(minimal_two_bus_doc):
    model = encode(load_case(minimal_two_bus_doc))
    kinds = {name.split(".")[0] for name in model.names}
    assert kinds == {"gen_start", "gen_power", "bus_on", "branch_on"}


def test_encode_is_deterministic(toy_cases):
    a = encode(toy_cases["toy_t5"])
    b = encode(toy_cases["toy_t5"])
    assert a.names == b.names
    assert a.row_names == b.row_names
    assert a.arrays() == b.arrays()


def test_horizon_too_short_is_an_encode_error(minimal_two_bus_doc):
    doc = doc_variant(minimal_two_bus_doc, **{"generators.0.ramp_minutes": 200})
    with pytest.raises(EncodingError, match="horizon"):
        encode(load_case(doc))


def _one_var_model():
    model = MilpModel(name="guards")
    model.add_vars(["x.a.1"], 0, 1, True)
    return model


def _one_row(model, cols, vals):
    """Append one ``<= 1`` row ``r1`` with entries at ``cols``."""
    model.add_rows(["r1"], array("d", [-math.inf]), array("d", [1.0]),
                   array("i", [0] * len(cols)), array("i", cols), array("d", vals))


def test_duplicate_variable_is_an_encode_error():
    model = _one_var_model()
    with pytest.raises(EncodingError, match=r"duplicate variable x\.a\.1"):
        model.add_vars(["y.a.1", "x.a.1"], 0, 5, False)


def test_a_row_on_an_undeclared_column_is_an_encode_error():
    model = _one_var_model()
    with pytest.raises(EncodingError, match=r"rows 0-0: .*columns do not line up"):
        _one_row(model, [0, 1], [1.0, 1.0])
    model = _one_var_model()
    _one_row(model, [0], [2.0])
    assert model.row_names == ["r1"] and model.check_assignment([0.5]) == []
    assert model.check_assignment([0.6]) == ["r1"]


def test_constraint_with_a_bad_sense_is_an_encode_error():
    with pytest.raises(EncodingError, match=r"constraint r1: bad sense '<'"):
        row_sides("r1", "<", 1)
    for sense in ("<=", ">=", "="):
        assert row_sense(*row_sides("r1", sense, 3.0)) == (sense, 3.0)


def test_constraint_names_follow_the_grammar(toy_cases):
    model = encode(toy_cases["toy_t5"])
    names = set(model.row_names)
    assert "eq33.l1_2.t4" in names
    assert "eq2.system.t5" in names
    assert any(n.startswith("eq23.fc1.") for n in names)
    assert not any(n.startswith("eq6.") for n in names)
    for name in model.names:
        kind, entity, *steps = name.split(".")
        assert kind in BINARY_KINDS | {GEN_POWER, FC_POWER, BAT_POWER}, name
        assert entity and len(steps) == 1 and steps[0].isdigit(), name
    assert "bus_on.b1.3" in model.names


def _all_feasible_schedules(case):
    gens = list(case.generators)
    gen_opts = [_gen_options(g) for g in gens]
    bat_opts = [_battery_options(b, case.time_grid.n_steps) for b in case.batteries]
    curves = output_curves(case)
    for combo in itertools.product(*gen_opts, *bat_opts):
        gen_starts = {g.id: combo[i] for i, g in enumerate(gens)}
        windows = {b.id: combo[len(gens) + j] for j, b in enumerate(case.batteries)}
        sched = _simulate(case, gen_starts, windows, curves)
        if sched is not None:
            yield sched


def test_every_feasible_toy_solution_matches_device_semantics(toy_cases):
    """Integral model solutions decode to trajectories identical to the
    closed-form device semantics, across the whole toy decision space."""
    case = toy_cases["toy_t5"]
    model = encode(case)
    checked = 0
    for sched in _all_feasible_schedules(case):
        x = point_from_schedule(model, case, sched)
        assert model.check_assignment(x, tol=1e-7) == []
        decoded = decode(model, x, case)
        semantics = device_trajectories(case, decoded)
        for dev_id, series in semantics.items():
            reported = decoded.solver_power.get(dev_id)
            if reported is None:
                continue
            assert all(
                math.isclose(a, b, abs_tol=1e-9) for a, b in zip(reported, series)
            ), f"{dev_id} trajectories diverge"
        assert math.isclose(
            model.objective_of(x), objective_value(case, decoded), abs_tol=1e-9
        )
        checked += 1
    assert checked > 10


def test_battery_toy_solutions_match_semantics(toy_cases):
    case = toy_cases["toy_bt_tight"]
    model = encode(case)
    count = 0
    for sched in _all_feasible_schedules(case):
        x = point_from_schedule(model, case, sched)
        assert model.check_assignment(x, tol=1e-7) == []
        decoded = decode(model, x, case)
        assert decoded.bat_window == sched.bat_window
        assert math.isclose(
            model.objective_of(x), objective_value(case, decoded), abs_tol=1e-9
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
    x = point_from_schedule(model, case, sched)
    decoded = decode(model, x, case)
    assert decoded.gen_start == {"g1": 2, "g2": 3}
    # start series (0,0,1,1,...) means two dark steps before startup
    assert sum(1 - x[model.column(_n("gen_start", "g2", t))] for t in range(1, 9)) == 2


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
    x = [0.0] * len(model.names)
    ws = [0, 0, 1, 1, 1]
    we = [0, 0, 0, 0, 1]
    for t in range(1, 6):
        x[model.column(_n("bat_ws", "bt1", t))] = ws[t - 1]
        x[model.column(_n("bat_we", "bt1", t))] = we[t - 1]
        x[model.column(_n("bus_on", "b1", t))] = ws[t - 1]
        x[model.column(_n("bat_power", "bt1", t))] = 10.0 if ws[t - 1] and not we[t - 1] else 0.0
    decoded = decode(model, x, case)
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
    x = [0.0] * len(model.names)
    decoded = decode(model, x, case)
    assert decoded.gen_start == {"g1": None}
    assert decoded.bat_window == {"bt1": None}
    # the first objective term is at its ceiling when nothing starts
    assert model.objective_of(x) == objective_value(case, decoded)
    assert model.objective_of(x) == pytest.approx(90 * 8)


def test_decode_rejects_non_integral(toy_cases):
    case = toy_cases["toy_path3"]
    model = encode(case)
    sched = empty_schedule(case)
    sched.gen_start.update({"g1": 2, "g2": None})
    sched.bus_on["b1"] = [False] + [True] * 7
    x = point_from_schedule(model, case, sched)
    x[model.column("gen_start.g2.5")] = 0.4
    with pytest.raises(DecodeError, match="integral"):
        decode(model, x, case)


def test_decode_accepts_a_binary_at_the_solver_tolerance_edge(toy_cases):
    """HiGHS may return a binary up to its mip_feasibility_tolerance (1e-6)
    from 0 or 1; decode keeps a margin above that, and 0.5 still fails."""
    case = toy_cases["toy_path3"]
    model = encode(case)
    sched = empty_schedule(case)
    sched.gen_start.update({"g1": 2, "g2": None})
    sched.bus_on["b1"] = [False] + [True] * 7
    x = point_from_schedule(model, case, sched)
    x[model.column("bus_on.b1.3")] = 1 - 5e-6
    decoded = decode(model, x, case)
    assert decoded.bus_on["b1"] == sched.bus_on["b1"]
    assert validate(case, decoded).passed
    x[model.column("bus_on.b1.3")] = 0.5
    with pytest.raises(DecodeError, match="integral"):
        decode(model, x, case)


def test_decode_rejects_non_monotone(toy_cases):
    case = toy_cases["toy_path3"]
    model = encode(case)
    sched = empty_schedule(case)
    sched.gen_start.update({"g1": 2, "g2": None})
    sched.bus_on["b1"] = [False] + [True] * 7
    x = point_from_schedule(model, case, sched)
    x[model.column("gen_start.g2.5")] = 1.0  # rises then falls back to 0
    with pytest.raises(DecodeError, match="monotone"):
        decode(model, x, case)


def test_decode_and_the_start_need_each_series_as_one_block(toy_cases):
    """Both read a series at its first column's offset, so a model that
    does not hold it as one block is refused, not misread."""
    case = toy_cases["toy_path3"]
    model = encode(case)
    sched = empty_schedule(case)
    sched.gen_start.update({"g1": 2, "g2": None})
    x = point_from_schedule(model, case, sched)
    reversed_model = MilpModel(name="reversed")
    reversed_model.add_vars(model.names[::-1], 0, 1, True)
    with pytest.raises(DecodeError, match="gen_start.g1: the model does not hold it as one block"):
        decode(reversed_model, x[::-1], case)
    with pytest.raises(DecodeError, match="one block"):
        point_from_schedule(reversed_model, case, sched)


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


def test_a_zero_objective_weight_stays_positive_zero(minimal_two_bus_doc):
    """A bus weight ``-beta * importance / t`` that underflows is -0.0;
    ``encode`` adds it into the zeros of ``c``, which gives +0.0 as HiGHS's
    pinned input has it, and the MPS export writes no objective entry for
    it. (A generator's weight ``p_max - p_crank`` cannot be zero: the loader
    requires ``p_crank < p_max``.)"""
    doc = doc_variant(minimal_two_bus_doc, **{
        "objective.beta": 1e-200, "buses.1": {"id": "b2", "importance": 1e-200}})
    case = load_case(doc)
    assert math.copysign(1.0, -case.beta * case.buses[1].importance / 1) == -1.0
    model = encode(case)
    c = model.arrays().c
    T = case.time_grid.n_steps
    zeros = [model.column(_n("bus_on", "b2", t)) for t in range(1, T + 1)]
    assert [c[j] for j in zeros] == [0.0] * T
    assert [j for j, cj in enumerate(c) if math.copysign(1.0, cj) < 0 and cj == 0.0] == []
    written = {line.split()[0] for line in export_mps(model).splitlines()
               if line.startswith("    ") and line.split()[1:2] == ["obj"]}
    assert not written & {model.names[j] for j in zeros}
    assert {f"bus_on.b1.{t}" for t in range(1, T + 1)} <= written
    schedule = solve_enumeration(case).schedule
    x = point_from_schedule(model, case, schedule)
    assert model.objective_of(x) == objective_value(case, schedule)


def test_objective_matches_enumeration_optimum(toy_cases, toy_enum):
    case = toy_cases["toy_t5"]
    result = toy_enum["toy_t5"]
    assert objective_value(case, result.schedule) == pytest.approx(result.objective, abs=1e-9)
    model = encode(case)
    x = point_from_schedule(model, case, result.schedule)
    assert model.objective_of(x) == pytest.approx(result.objective, abs=1e-9)


@pytest.mark.parametrize("name", ["toy_t5", "toy_fc", "toy_bt"])
def test_model_arrays_agree_with_the_model(toy_cases, toy_enum, name):
    """Objective and row activities from the flat arrays match the model's
    own evaluation of the oracle's optimum."""
    case = toy_cases[name]
    model = encode(case)
    arrays = model.arrays()
    x = point_from_schedule(model, case, toy_enum[name].schedule)
    assert math.fsum(c * xi for c, xi in zip(arrays.c, x)) + arrays.constant == pytest.approx(
        model.objective_of(x), abs=1e-9)
    assert model.objective_of(x) == pytest.approx(toy_enum[name].objective, abs=1e-9)
    activity = [0.0] * len(model.row_names)
    for i, j, a in zip(arrays.row, arrays.col, arrays.val):
        activity[i] += a * x[j]
    for row, lo, hi, ax in zip(model.row_names, arrays.row_lo, arrays.row_hi, activity):
        assert lo - 1e-9 <= ax <= hi + 1e-9, row
        assert lo <= hi and (lo == hi or math.inf in (-lo, hi)), row
    assert model.check_assignment(x) == []
    assert len(arrays.lb) == len(arrays.ub) == len(arrays.integrality) == len(model.names)
    assert set(arrays.integrality) <= {0, 1}


FUEL_CELL_CASES = ["toy_fc", "toy_t5", "ieee39_fc50"] + sorted(
    name for name, doc in DRAWN_DOCUMENTS.items() if doc["fuel_cells"])


@pytest.mark.parametrize("name", FUEL_CELL_CASES)
def test_eq23_is_exact_for_every_fuel_cell_start(name):
    """For every start of every fuel cell (crank draws, crank and ramp
    lengths among the drawn cases), the device model's output satisfies the
    cell's eq23 rows, and moving any of its ``fc_power`` values breaks them:
    eq23 pins the output to the device model given the status series."""
    case = load_case(DRAWN_DOCUMENTS.get(name) or bundled_case_path(name))
    model = encode(case)
    T = case.time_grid.n_steps
    for f in case.fuel_cells:
        rows = [f"eq23.{f.id}.t{t}" for t in range(1, T + 1)]
        for start in (None, *range(2, T + 1)):
            sched = empty_schedule(case)
            sched.fc_start[f.id] = start
            x = point_from_schedule(model, case, sched)
            assert [r for r in model.check_assignment(x) if r in rows] == []
            for t in range(1, T + 1):
                x[model.column(_n(FC_POWER, f.id, t))] += 1e-3
            assert [r for r in model.check_assignment(x) if r in rows] == rows


def test_status_monotone_in_solutions(toy_external, toy_cases):
    for name, result in toy_external.items():
        assert result.status == "optimal", f"{name}: {result.message}"
        case = toy_cases[name]
        model = encode(case)
        T = case.time_grid.n_steps
        for var in model.names:
            kind, entity, *steps = var.split(".")
            if kind not in BINARY_KINDS or steps != ["1"]:
                continue
            series = [round(result.point[model.column(_n(kind, entity, t))])
                      for t in range(1, T + 1)]
            assert all(x <= y for x, y in zip(series, series[1:])), (name, kind, entity)


def assert_the_stored_form(model):
    """The form every row append keeps: each row's columns strictly
    ascending, no stored zero, unique column and row names, ``size()`` the
    count of what is stored, and an MPS round trip that gives the same arrays."""
    arrays = model.arrays()
    entries = list(zip(arrays.row, arrays.col))
    assert entries == sorted(entries)
    assert all(i == k and j < col for (i, j), (k, col) in zip(entries, entries[1:]) if i == k)
    assert all(i < len(model.row_names) and j < len(model.names) for i, j in entries)
    assert 0.0 not in arrays.val
    assert len(set(model.names)) == len(model.names)
    assert len(set(model.row_names)) == len(model.row_names)
    assert model.size() == {
        "vars": len(arrays.lb), "int_vars": sum(arrays.integrality),
        "rows": len(arrays.row_lo), "nnz": len(arrays.val),
    }
    assert len(arrays.ub) == len(arrays.integrality) == len(arrays.c) == len(model.names)
    assert len(arrays.row_hi) == len(model.row_names)
    assert len(arrays.row) == len(arrays.col) == len(arrays.val)
    assert import_mps(export_mps(model)).arrays() == arrays


@settings(max_examples=40, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case_documents())
def test_encoded_models_keep_the_stored_form(doc):
    assert_the_stored_form(encode(load_case(doc)))


@pytest.mark.parametrize("name", ["toy_fc", "toy_bt_tight", "ieee39_bt50"])
def test_bundled_models_keep_the_stored_form(name):
    assert_the_stored_form(encode(load_bundled(name)))
