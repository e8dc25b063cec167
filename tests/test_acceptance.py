"""Acceptance gate: every criterion prints one pass/fail line.

The heavyweight scenario solves (the bundled 39-bus-style case through the
external MILP backend) are shared across criteria via module fixtures.
"""

import time
from pathlib import Path

import pytest

from blackstart import (
    encode,
    energization_chain,
    export_mps,
    import_mps,
    models_structurally_equal,
    mutation_suite,
    solve_external,
    validate,
)
from blackstart.analysis import SweepSpec, gsus_table, restored_power_series, sweep
from blackstart.devices import output_curve, shift_curve
from blackstart.milp import FC_POWER, _n

from conftest import TOY_NAMES, load_bundled

DATA = Path(__file__).parent / "data"


def report(criterion: str, passed: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)


@pytest.fixture(scope="module")
def ieee39_solved():
    cases = {name: load_bundled(name) for name in ("ieee39_nores", "ieee39_fc50", "ieee39_bt50")}
    return {name: (case, solve_external(case)) for name, case in cases.items()}


@pytest.fixture(scope="module")
def capacity_sweeps():
    fc_case = load_bundled("ieee39_fc50")
    bt_case = load_bundled("ieee39_bt50")
    fc = sweep(SweepSpec(case=fc_case, axis="fc_capacity",
                         values=[5, 10, 15, 20, 30, 40, 50, 100]))
    bt = sweep(SweepSpec(case=bt_case, axis="battery_capacity",
                         values=[5, 10, 20, 30, 50, 80, 100, 120]))
    return fc, bt


def test_criterion_1_oracle_equivalence(toy_cases, toy_enum):
    """Enumeration and the MILP path agree on toy optima within 1e-6 rel."""
    t0 = time.monotonic()
    worst = 0.0
    for name in TOY_NAMES:
        case = toy_cases[name]
        enum = toy_enum[name]
        ext = solve_external(case)
        assert enum.status == "optimal", f"{name}: enumeration {enum.status}"
        assert ext.status == "optimal", f"{name}: external {ext.status} {ext.message}"
        rel = abs(enum.objective - ext.objective) / (1 + abs(enum.objective))
        worst = max(worst, rel)
        assert rel <= 1e-6, f"{name}: relative objective gap {rel}"
        assert validate(case, enum.schedule).passed
        assert validate(case, ext.schedule).passed
    elapsed = time.monotonic() - t0
    ok = elapsed < 60
    report("1 oracle-equivalence", ok,
           f"{len(TOY_NAMES)} cases, worst rel gap {worst:.2e}, {elapsed:.1f}s")
    assert ok, f"toy equivalence took {elapsed:.1f}s (budget 60s)"


def test_criterion_2_fc_battery_equivalence(toy_cases, toy_enum):
    """Energy-unconstrained battery mirrors the fuel cell: same GSUS, same series."""
    fc_case, bt_case = toy_cases["toy_fc"], toy_cases["toy_bt"]
    b = bt_case.batteries[0]
    horizon_energy = b.p_max * bt_case.time_grid.n_steps * bt_case.time_grid.step_minutes / 60
    assert b.soc_init >= horizon_energy, "battery too small for the equivalence setup"
    fc_res, bt_res = toy_enum["toy_fc"], toy_enum["toy_bt"]
    fc_gsus = gsus_table(fc_res.schedule, fc_case)
    bt_gsus = gsus_table(bt_res.schedule, bt_case)
    same_gsus = fc_gsus.rows == bt_gsus.rows
    fc_series = restored_power_series(fc_res.schedule, fc_case)
    bt_series = restored_power_series(bt_res.schedule, bt_case)
    same_series = fc_series == bt_series
    report("2 fc-battery-equivalence", same_gsus and same_series,
           f"gsus={fc_gsus.rows} series match={same_series}")
    assert same_gsus and same_series


def test_criterion_3_capacity_monotonicity(capacity_sweeps):
    """Average startup time never worsens as resource capacity grows."""
    fc, bt = capacity_sweeps
    fc_avgs = fc.averages()
    bt_avgs = bt.averages()
    assert all(a is not None for a in fc_avgs + bt_avgs)
    fc_ok = all(a >= b - 1e-9 for a, b in zip(fc_avgs, fc_avgs[1:]))
    bt_ok = all(a >= b - 1e-9 for a, b in zip(bt_avgs, bt_avgs[1:]))
    report("3 capacity-monotonicity", fc_ok and bt_ok,
           f"fc={[round(a, 1) for a in fc_avgs]} bt={[round(a, 1) for a in bt_avgs]}")
    assert fc_ok, f"fuel-cell sweep not monotone: {fc_avgs}"
    assert bt_ok, f"battery sweep not monotone: {bt_avgs}"


def test_criterion_4_soc_degradation():
    """Average startup time never improves as the initial SOC falls."""
    case = load_bundled("ieee39_bt30")
    result = sweep(SweepSpec(case=case, axis="battery_soc",
                             values=[1.0, 0.7, 0.5, 0.3, 0.1]))
    avgs = result.averages()
    assert all(a is not None for a in avgs)
    ok = all(a <= b + 1e-9 for a, b in zip(avgs, avgs[1:]))
    report("4 soc-degradation", ok, f"averages={[round(a, 1) for a in avgs]}")
    assert ok, f"SOC sweep not monotone: {avgs}"


def test_criterion_5_resource_benefit(ieee39_solved):
    """Resources at the two highest-degree buses strictly cut the average."""
    averages = {}
    for name, (case, result) in ieee39_solved.items():
        assert result.status == "optimal", f"{name}: {result.status} {result.message}"
        averages[name] = gsus_table(result.schedule, case).average
    fc_gain = averages["ieee39_fc50"] < averages["ieee39_nores"]
    bt_gain = averages["ieee39_bt50"] < averages["ieee39_nores"]
    report("5 resource-benefit", fc_gain and bt_gain,
           f"bare={averages['ieee39_nores']:.1f} fc={averages['ieee39_fc50']:.1f} "
           f"bt={averages['ieee39_bt50']:.1f} min")
    assert fc_gain and bt_gain


def test_criterion_6_constraint_system_integrity(toy_cases, toy_enum, ieee39_solved):
    """Mutations all caught; fuel-cell output is the device model's; statuses
    monotone; SOC and balance hold."""
    all_caught = True
    for name in TOY_NAMES:
        case = toy_cases[name]
        result = mutation_suite(case, toy_enum[name].schedule)
        assert result.total > 0 or not case.generators
        all_caught &= result.all_caught
        assert result.all_caught, f"{name}: missed {result.total - result.detected}"
    solved = {name: (toy_cases[name], solve_external(toy_cases[name])) for name in TOY_NAMES}
    for name, (case, ext) in {**solved, "ieee39_fc50": ieee39_solved["ieee39_fc50"]}.items():
        assert ext.status == "optimal", f"{name}: {ext.status} {ext.message}"
        model = encode(case)
        for f in case.fuel_cells:
            semantics = shift_curve(output_curve(f), ext.schedule.fc_start[f.id],
                                    case.time_grid.n_steps)
            for t, p in zip(case.time_grid.steps, semantics):
                value = ext.point[model.column(_n(FC_POWER, f.id, t))]
                assert abs(value - p) <= 1e-6, (name, f.id, t)
    for name, (case, ext) in solved.items():
        rep = validate(case, ext.schedule)
        assert rep.passed
        assert all(p >= -1e-6 for p in rep.system_power)
        for b in case.batteries:
            assert all(s >= b.soc_min - 1e-9 for s in rep.soc[b.id])
        for flags in (*ext.schedule.bus_on.values(), *ext.schedule.branch_on.values()):
            assert all(x <= y for x, y in zip(flags, flags[1:]))
    report("6 constraint-integrity", all_caught, "all targeted mutations detected")
    assert all_caught


def test_criterion_7_mps_round_trip(toy_cases):
    """Export/import is the structural identity; the golden file is byte-stable."""
    names = TOY_NAMES + ["ieee39_nores", "ieee39_fc50", "ieee39_bt30"]
    for name in names:
        model = encode(load_bundled(name))
        assert models_structurally_equal(model, import_mps(export_mps(model))), name
    golden = (DATA / "toy_path3.mps").read_text()
    regenerated = export_mps(encode(load_bundled("toy_path3")))
    stable = regenerated == golden
    report("7 mps-round-trip", stable, f"{len(names)} models, golden byte-stable={stable}")
    assert stable


def test_criterion_8_energization_causality(toy_cases, toy_enum, ieee39_solved):
    """Every energized bus has a witness chain obeying one hop per step."""
    solved = [(toy_cases[name], toy_enum[name].schedule) for name in TOY_NAMES]
    solved += [(case, result.schedule) for case, result in ieee39_solved.values()]
    buses_checked = 0
    for case, schedule in solved:
        for bus in case.buses:
            step = schedule.bus_energized_step(bus.id)
            if step is None:
                continue
            chain = energization_chain(case, schedule, bus.id)
            assert chain[0] == (bus.id, step)
            steps = [s for _, s in chain]
            assert all(a >= b for a, b in zip(steps, steps[1:]))
            for i in range(1, len(chain) - 1, 2):
                assert chain[i][1] >= chain[i + 1][1] + 1, (bus.id, chain)
            buses_checked += 1
    report("8 energization-causality", True, f"{buses_checked} bus witnesses")
