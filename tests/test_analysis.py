import pytest

from blackstart import load_case
from blackstart.analysis import (
    SweepSpec,
    apply_axis_value,
    gsus_table,
    restoration_stats,
    restored_power_series,
    series_to_csv,
    sweep,
)
from blackstart.devices import generator_trajectory
from blackstart.schedule import empty_schedule

from conftest import bundled_document, load_bundled


def test_gsus_startup_minutes(toy_cases, toy_enum):
    case = toy_cases["toy_t5"]
    table = gsus_table(toy_enum["toy_t5"].schedule, case)
    rows = dict(table.rows)
    assert rows == {"g2": 40.0, "g3": 60.0}  # starts at steps 3 and 4
    assert "g1" not in rows  # black-start unit is not a GSUS row
    assert table.average == pytest.approx(50.0)


def test_gsus_average_recomputes(toy_cases, toy_enum):
    table = gsus_table(toy_enum["toy_t5"].schedule, toy_cases["toy_t5"])
    started = [m for _, m in table.rows if m is not None]
    assert table.average == pytest.approx(sum(started) / len(started), abs=1e-9)


def test_gsus_all_never_renders_sentinel(toy_cases):
    case = toy_cases["toy_path3"]
    sched = empty_schedule(case)
    sched.gen_start.update({"g1": 2, "g2": None})
    table = gsus_table(sched, case)
    assert table.rows == [("g2", None)]
    assert table.average is None
    csv = table.to_csv()
    assert "g2,never" in csv and "System Average,never" in csv


def test_gsus_times_are_step_multiples(toy_cases, toy_enum):
    for name, result in toy_enum.items():
        case = toy_cases[name]
        dt = case.time_grid.step_minutes
        for _, minutes in gsus_table(result.schedule, case).rows:
            if minutes is not None:
                assert minutes % dt == 0


def test_restored_power_series_single_bs(minimal_two_bus_doc):
    case = load_case(minimal_two_bus_doc)
    sched = empty_schedule(case)
    sched.gen_start["g1"] = 2
    series = restored_power_series(sched, case)
    expected = generator_trajectory(case.generators[0], 2, case.time_grid)
    assert [mw for _, mw in series] == expected
    assert [minute for minute, _ in series] == [20 * t for t in range(1, 9)]


def test_restored_power_all_never_is_zero(minimal_two_bus_doc):
    case = load_case(minimal_two_bus_doc)
    series = restored_power_series(empty_schedule(case), case)
    assert all(mw == 0 for _, mw in series)


def test_series_csv_dialect(toy_cases, toy_enum):
    text = series_to_csv(restored_power_series(toy_enum["toy_t5"].schedule, toy_cases["toy_t5"]))
    lines = text.split("\n")
    assert lines[0] == "minute,restored_mw"
    assert "\r" not in text
    assert text.endswith("\n")


def test_fc_and_bt_series_identical(toy_cases, toy_enum):
    fc_series = restored_power_series(toy_enum["toy_fc"].schedule, toy_cases["toy_fc"])
    bt_series = restored_power_series(toy_enum["toy_bt"].schedule, toy_cases["toy_bt"])
    assert fc_series == bt_series


def test_stats_full_restoration(toy_cases, toy_enum):
    stats = restoration_stats(toy_enum["toy_t5"].schedule, toy_cases["toy_t5"])
    assert stats["critical_buses"] == 5
    assert stats["critical_branches"] == 5
    assert stats["generators_started"] == 3
    assert stats["restored_power_mw"] == pytest.approx(100 + 80 + 60 + 20)


def test_stats_dark_buses_counted():
    doc = bundled_document("toy_path3")
    doc["branches"] = [doc["branches"][0]]
    case = load_case(doc)
    sched = empty_schedule(case)
    sched.gen_start.update({"g1": 2, "g2": None})
    sched.bus_on["b1"] = [False] + [True] * 7
    sched.bus_on["b2"] = [False, False] + [True] * 6
    sched.branch_on["l1_2"] = [False, False] + [True] * 6
    stats = restoration_stats(sched, case)
    assert stats["critical_buses"] == len(case.buses) - 1
    assert stats["generators_ramping_per_step"][3] == 1  # g1 ramps at step 4


def test_apply_axis_fc_capacity(toy_cases):
    case = apply_axis_value(toy_cases["toy_t5"], "fc_capacity", 7.5)
    assert [f.p_max for f in case.fuel_cells] == [7.5]


def test_apply_axis_battery_capacity():
    base = load_bundled("ieee39_bt50")
    scaled = apply_axis_value(base, "battery_capacity", 100)
    for b in scaled.batteries:
        assert b.p_max == 100
        assert b.p_min == pytest.approx(10.0)   # ratio preserved
        assert b.soc_init == pytest.approx(100)  # one-hour rating preserved


def test_apply_axis_battery_soc():
    base = load_bundled("ieee39_bt30")
    low = apply_axis_value(base, "battery_soc", 0.3)
    for b, orig in zip(low.batteries, base.batteries):
        assert b.soc_init == pytest.approx(0.3 * orig.soc_init)
    with pytest.raises(ValueError, match="fraction"):
        apply_axis_value(base, "battery_soc", 30)


def test_apply_axis_resource_location():
    base = load_bundled("ieee39_fc50")
    moved = apply_axis_value(base, "resource_location", ["b11", "b19"])
    assert sorted(f.bus for f in moved.fuel_cells) == ["b11", "b19"]


def test_sweep_spec_validation(toy_cases):
    with pytest.raises(ValueError, match="axis"):
        SweepSpec(case=toy_cases["toy_t5"], axis="nope", values=[1])
    with pytest.raises(ValueError, match="at least one"):
        SweepSpec(case=toy_cases["toy_t5"], axis="fc_capacity", values=[])
    with pytest.raises(ValueError, match="battery"):
        SweepSpec(case=toy_cases["toy_t5"], axis="battery_soc", values=[0.5])
    with pytest.raises(ValueError, match="one bus per"):
        SweepSpec(case=toy_cases["toy_t5"], axis="resource_location", values=[["b1", "b2"]])
    with pytest.raises(ValueError, match="worker"):
        SweepSpec(case=toy_cases["toy_t5"], axis="fc_capacity", values=[10], workers=0)


def test_sweep_on_toy_is_deterministic(toy_cases):
    spec = SweepSpec(case=toy_cases["toy_t5"], axis="fc_capacity",
                     values=[10, 20], backend="enum")
    a = sweep(spec).to_csv()
    b = sweep(spec).to_csv()
    assert a == b
    assert a.startswith("fc_capacity,10,20\n")


def test_sweep_records_scenario_failures_and_continues(toy_cases):
    spec = SweepSpec(case=toy_cases["toy_t5"], axis="fc_capacity",
                     values=[-5, 20], backend="enum")
    result = sweep(spec)
    assert result.rows[0].status == "error"
    assert result.rows[1].status == "optimal"
    csv = result.to_csv()
    assert "error" in csv


def test_sweep_error_row_keeps_the_exception_type(toy_cases):
    spec = SweepSpec(case=toy_cases["toy_bt"], axis="battery_soc", values=[1.5],
                     backend="enum")
    row = sweep(spec).rows[0]
    assert row.status == "error"
    assert row.message.startswith("apply_axis_value: ValueError: ")
    assert "1.5" in row.message


def test_a_resource_location_on_a_bus_the_case_lacks_is_a_bad_spec(toy_cases):
    with pytest.raises(ValueError, match=r"names buses the case lacks: \['nowhere'\]"):
        SweepSpec(case=toy_cases["toy_fc"], axis="resource_location", values=[["nowhere"]])


def test_sweep_error_row_names_the_solve_step(toy_cases):
    spec = SweepSpec(case=toy_cases["toy_t5"], axis="fc_capacity",
                     values=[10], backend="enum", enum_cap=1)
    row = sweep(spec).rows[0]
    assert row.status == "error"
    assert row.message.startswith("solve: EnumerationCapError: ")


def test_sweep_parallel_matches_serial(toy_cases):
    spec = SweepSpec(case=toy_cases["toy_t5"], axis="fc_capacity",
                     values=[10, 20, 30], backend="enum")
    serial = sweep(spec).to_csv()
    spec.workers = 3
    parallel = sweep(spec).to_csv()
    assert serial == parallel


def test_sweep_on_two_workers_matches_one_with_the_default_solver(toy_cases):
    spec = SweepSpec(case=toy_cases["toy_fc"], axis="fc_capacity", values=[10, 30])
    one = sweep(spec)
    spec.workers = 2
    two = sweep(spec)
    assert [row.status for row in one.rows] == ["optimal", "optimal"]
    assert one.to_csv() == two.to_csv()
    for row in one.rows + two.rows:
        assert {"stages", "model", "highs", "worker"} <= set(row.stats)
        assert {"time_s", "reduce_s", "reduced_rows", "reduced_cols", "version",
                "start_objective"} <= set(row.stats["highs"])
        assert row.stats["highs"]["start_objective"] >= row.objective - 1e-9
        assert row.stats["stages"]["start"] > 0
    # one worker, so one solver host serves both scenarios
    assert len({row.stats["worker"]["pid"] for row in one.rows}) == 1


def test_location_sweep_changes_the_sequence():
    # top-degree buses versus near-generator buses give different sequences
    base = load_bundled("ieee39_fc50")
    result = sweep(SweepSpec(case=base, axis="resource_location",
                             values=[["b6", "b16"], ["b11", "b19"]]))
    assert all(r.status == "optimal" for r in result.rows)
    assert result.rows[0].startup_min != result.rows[1].startup_min
