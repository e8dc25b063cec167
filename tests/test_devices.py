import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blackstart import (
    Battery,
    FuelCell,
    Generator,
    load_case,
    soc_trajectory,
    system_power,
)
from blackstart.devices import battery_trajectory, bus_holders, output_curve, shift_curve
from blackstart.schedule import empty_schedule

from conftest import doc_variant
from strategies import case_documents, decisions

FC = FuelCell(id="fc", bus="b", p_max=50, p_crank=5, crank_steps=3, ramp_steps=2)
GEN = Generator(id="g", bus="b", p_max=100, p_crank=10, crank_steps=3, ramp_steps=2,
                start_min=2, start_max=10)
BS_GEN = Generator(id="gb", bus="b", p_max=100, p_crank=10, crank_steps=3, ramp_steps=2,
                   start_min=2, start_max=10, is_black_start=True)
BAT = Battery(id="bt", bus="b", p_max=60, p_min=5, soc_init=50, soc_min=0)


def power(unit, start, t):
    """MW of ``unit`` at step t when its startup begins at step ``start``."""
    return shift_curve(output_curve(unit), start, t)[t - 1]


# hand-evaluated lifecycle: off / crank at -p_crank / linear ramp / saturate
def test_fuel_cell_phases():
    assert power(FC, 2, 1) == 0
    assert power(FC, 2, 3) == -5
    assert power(FC, 2, 5) == 25  # first ramp step: 50 * 1/2
    assert power(FC, 2, 6) == 50
    assert power(FC, 2, 7) == 50


def test_fuel_cell_never_started():
    assert all(power(FC, None, t) == 0 for t in range(1, 10))


def test_generator_phases():
    assert power(GEN, 4, 5) == -10
    assert all(power(GEN, 4, t) == 0 for t in (1, 2, 3))
    assert power(GEN, 4, 7) == 50
    assert power(GEN, 4, 9) == 100  # 4 + 3 crank + 2 ramp complete


def test_black_start_generator_cranks_without_grid_draw():
    assert power(BS_GEN, 2, 2) == 0
    assert power(BS_GEN, 2, 4) == 0
    assert power(BS_GEN, 2, 5) == 50
    assert power(BS_GEN, 2, 6) == 100


def test_zero_crank_unit_ramps_immediately():
    fc = FuelCell(id="f", bus="b", p_max=20, p_crank=0, crank_steps=0, ramp_steps=1)
    assert power(fc, 2, 2) == 20
    assert power(fc, 2, 1) == 0


def test_battery_window():
    # open at steps 3..5; a dispatch outside the window is masked, not rejected
    series = battery_trajectory((3, 6), [7.0, 7.0, 30.0, 50.0, 40.0, 0.0, 7.0, 7.0])
    assert series == [0.0, 0.0, 30.0, 50.0, 40.0, 0.0, 0.0, 0.0]


def test_battery_empty_window_is_all_zero():
    assert battery_trajectory((3, 3), [0.0] * 8) == [0.0] * 8
    assert battery_trajectory(None, [5.0] * 8) == [0.0] * 8


def test_soc_trajectory_arithmetic():
    soc, low = soc_trajectory(BAT, [0, 50, 50, 50, 0, 0, 0, 0], 20)
    assert soc[1] == pytest.approx(50 - 50 / 3)
    assert soc[2] == pytest.approx(50 - 100 / 3)
    assert soc[3] == pytest.approx(0, abs=1e-9)
    assert low == []


def test_soc_fourth_step_overdraws():
    soc, low = soc_trajectory(BAT, [0, 50, 50, 50, 50, 0, 0, 0], 20)
    assert soc[4] == pytest.approx(-50 / 3)
    assert low == [5, 6, 7, 8]


def test_soc_constant_with_zero_dispatch():
    soc, low = soc_trajectory(BAT, [0.0] * 8, 20)
    assert soc == [50.0] * 8 and low == []


def _case_single_bs(minimal_doc):
    return load_case(minimal_doc)


def test_system_power_single_bs_generator(minimal_two_bus_doc):
    case = _case_single_bs(minimal_two_bus_doc)
    sched = empty_schedule(case)
    sched.gen_start["g1"] = 2
    g = case.generators[0]
    expected = shift_curve(output_curve(g), 2, case.time_grid.n_steps)
    assert system_power(case, sched) == expected


def test_system_power_fc_plus_cranking_generator(minimal_two_bus_doc):
    doc = doc_variant(minimal_two_bus_doc, **{"generators.0.black_start": False})
    doc["fuel_cells"] = [
        {"id": "fc1", "bus": "b2", "p_max": 50, "crank_minutes": 0, "ramp_minutes": 20}
    ]
    case = load_case(doc)
    sched = empty_schedule(case)
    sched.fc_start["fc1"] = 2
    sched.gen_start["g1"] = 3
    series = system_power(case, sched)
    # fully ramped 50 MW fuel cell against a -10 MW crank
    assert series[2] == pytest.approx(40)
    assert series[3] == pytest.approx(40)


def test_system_power_all_never(minimal_two_bus_doc):
    case = _case_single_bs(minimal_two_bus_doc)
    sched = empty_schedule(case)
    assert system_power(case, sched) == [0.0] * case.time_grid.n_steps


unit_params = st.tuples(
    st.sampled_from(["fuel_cell", "generator", "black_start"]),
    st.floats(min_value=1, max_value=500),   # p_max
    st.floats(min_value=0, max_value=0.9),   # crank fraction of p_max
    st.integers(min_value=0, max_value=4),   # crank_steps (at least 1 for a generator)
    st.integers(min_value=1, max_value=5),   # ramp_steps
)


def lifecycle(p_max, draw, crank_steps, ramp_steps, start, t):
    """The module docstring's lifecycle table, row by row: MW at step t."""
    if start is None or t < start:
        return 0.0  # off
    if t < start + crank_steps:
        return -draw  # cranking; -0.0 for a black-start unit
    k = t - start - crank_steps + 1  # the k-th ramp step
    return p_max * k / ramp_steps if k < ramp_steps else p_max


@settings(max_examples=200, deadline=None)
@given(unit_params)
def test_trajectory_properties(params):
    kind, p_max, crank_frac, crank_steps, ramp_steps = params
    if kind == "fuel_cell":
        unit = FuelCell(id="f", bus="b", p_max=p_max, p_crank=crank_frac * p_max,
                        crank_steps=crank_steps, ramp_steps=ramp_steps)
        draw = unit.p_crank
    else:
        unit = Generator(id="g", bus="b", p_max=p_max, p_crank=max(crank_frac, 0.01) * p_max,
                         crank_steps=max(crank_steps, 1), ramp_steps=ramp_steps,
                         is_black_start=kind == "black_start")
        draw = 0.0 if unit.is_black_start else unit.p_crank
    crank_steps, T = unit.crank_steps, 30
    curve = output_curve(unit)
    for start in [None, *range(-2, T + 3)]:
        table = [lifecycle(p_max, draw, crank_steps, ramp_steps, start, t)
                 for t in range(1, T + 1)]
        # repr tells -0.0 from 0.0
        assert list(map(repr, shift_curve(curve, start, T))) == list(map(repr, table)), start
    for start in range(2, 13):
        series = shift_curve(curve, start, T)
        assert all(p == 0 for p in series[: start - 1])
        ramp_from = start + crank_steps
        tail = series[ramp_from - 1:]
        assert all(a <= b + 1e-12 for a, b in zip(tail, tail[1:]))
        done = start + crank_steps + ramp_steps
        assert all(p == p_max for p in series[done - 1:])
        assert min(series) == (-draw if crank_steps else 0.0)
        assert max(series) == p_max


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=0, max_value=30), min_size=8, max_size=8),
)
def test_soc_monotone_and_energy_capped(dispatch):
    b = Battery(id="bt", bus="b", p_max=30, p_min=0, soc_init=20, soc_min=2)
    soc, low = soc_trajectory(b, dispatch, 20)
    assert all(a >= b2 - 1e-12 for a, b2 in zip(soc, soc[1:]))
    if not low:
        discharged = sum(dispatch) * 20 / 60
        assert discharged <= b.soc_init - b.soc_min + 1e-9


def _linear_case_doc():
    return {
        "time": {"step_minutes": 20, "horizon_minutes": 160},
        "buses": [{"id": "b1"}, {"id": "b2"}],
        "branches": [{"id": "l1_2", "from_bus": "b1", "to_bus": "b2"}],
        "generators": [
            {"id": "g1", "bus": "b1", "p_max": 100, "p_crank": 10,
             "crank_minutes": 40, "ramp_minutes": 40, "black_start": True},
            {"id": "g2", "bus": "b2", "p_max": 40, "p_crank": 4,
             "crank_minutes": 20, "ramp_minutes": 20},
        ],
        "fuel_cells": [],
        "batteries": [],
    }


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=2, max_value=8),
)
def test_system_power_is_linear(s1, s2):
    case = load_case(_linear_case_doc())
    both = empty_schedule(case)
    both.gen_start.update({"g1": s1, "g2": s2})
    only1 = empty_schedule(case)
    only1.gen_start["g1"] = s1
    only2 = empty_schedule(case)
    only2.gen_start["g2"] = s2
    combined = system_power(case, both)
    split = [a + b for a, b in zip(system_power(case, only1), system_power(case, only2))]
    assert all(math.isclose(a, b, abs_tol=1e-12) for a, b in zip(combined, split))


def paper_holds(case, gen_start, fc_start, bat_window, bus, t):
    """eq34/eq48 read unit by unit: whether a co-located unit holds ``bus``
    live at step ``t``, and whether a self-start one does."""
    held = lit = False
    for g in case.generators:
        s = gen_start[g.id]
        if g.bus == bus and s is not None:
            if g.is_black_start and s <= t:
                held = lit = True
            if not g.is_black_start and s + g.crank_steps <= t:
                held = True
    for f in case.fuel_cells:
        s = fc_start[f.id]
        if f.bus == bus and s is not None and s <= t:
            held = lit = True
    for b in case.batteries:
        w = bat_window[b.id]
        if b.bus == bus and w is not None and w[0] <= t < w[1]:
            held = lit = True
    return held, lit


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(case_documents(), st.data())
def test_bus_holders_agree_with_eq34_and_eq48_step_by_step(doc, data):
    case = load_case(doc)
    drawn = data.draw(decisions(case))
    holders = bus_holders(case, *drawn)
    gen_start, fc_start, bat_window = drawn
    started = ({g.bus for g in case.generators if gen_start[g.id] is not None}
               | {f.bus for f in case.fuel_cells if fc_start[f.id] is not None}
               | {b.bus for b in case.batteries if bat_window[b.id] is not None})
    assert set(holders) == started
    for bus in case.buses:
        units = holders.get(bus.id, [])
        for t in range(1, case.time_grid.n_steps + 1):
            held = any(first <= t < until for first, until, _ in units)
            lit = any(self_start and first <= t < until for first, until, self_start in units)
            assert (held, lit) == paper_holds(case, *drawn, bus.id, t), (bus.id, t)
