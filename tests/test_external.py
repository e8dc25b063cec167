import json
import os
import shlex
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

from blackstart import decode, encode, load_case, read_mps, solve_enumeration, validate
from blackstart.cases import bundled_case_path
from blackstart.solvers import (
    ENV_SOLVER_CMD,
    highs_cli,
    import_solution,
    resolve_solver_command,
    solve_external,
)
from blackstart.solvers.external import SolutionFormatError

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"
FORKED_STAGES = {"encode", "solver", "decode", "validate"}
COMMAND_STAGES = {"encode", "export", "solver", "import_solution", "decode", "validate"}


def write_solution_text(model, assignment):
    return "\n".join(f"{name} {value!r}" for name, value in assignment.items()) + "\n"


def stub_command(tmp_path, name, body):
    """Executable python stub invoked as `<python> <stub> {mps} {sol}`."""
    script = tmp_path / name
    script.write_text(body)
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return f"{shlex.quote(sys.executable)} {shlex.quote(str(script))} {{mps}} {{sol}}"


@pytest.fixture()
def known_good(toy_cases, toy_enum, tmp_path):
    case = toy_cases["toy_t5"]
    model = encode(case)
    assignment = toy_enum["toy_t5"].assignment
    sol = tmp_path / "good.sol"
    sol.write_text(write_solution_text(model, assignment))
    return case, model, assignment, sol


def copy_stub(tmp_path, sol):
    return stub_command(
        tmp_path, "copy_stub.py",
        "import shutil, sys\nshutil.copy(%r, sys.argv[2])\n" % str(sol),
    )


def test_stub_solver_copies_known_good_solution(known_good, tmp_path):
    case, model, assignment, sol = known_good
    result = solve_external(case, command=copy_stub(tmp_path, sol))
    assert result.status == "optimal"
    assert result.schedule.gen_start == {"g1": 2, "g2": 3, "g3": 4}
    for name, value in assignment.items():
        assert result.assignment[name] == pytest.approx(value, abs=1e-9)


def test_nonzero_exit_is_error(known_good, tmp_path):
    case = known_good[0]
    cmd = stub_command(tmp_path, "fail_stub.py", "import sys\nsys.exit(7)\n")
    result = solve_external(case, command=cmd)
    assert result.status == "error"
    assert "7" in result.message
    assert set(result.stats["stages"]) == {"encode", "export", "solver"}


def test_infeasible_sentinel(known_good, tmp_path):
    case = known_good[0]
    cmd = stub_command(
        tmp_path, "infeasible_stub.py",
        "import sys\nopen(sys.argv[2], 'w').write('=infeasible=\\n')\n",
    )
    result = solve_external(case, command=cmd)
    assert result.status == "infeasible"


def test_corrupt_solution_fails_validation(known_good, tmp_path):
    case, model, assignment, sol = known_good
    corrupt = dict(assignment)
    corrupt["gen_power.g2.4"] = 55.0  # semantic trajectory says 80
    bad = tmp_path / "bad.sol"
    bad.write_text(write_solution_text(model, corrupt))
    cmd = stub_command(
        tmp_path, "corrupt_stub.py",
        "import shutil, sys\nshutil.copy(%r, sys.argv[2])\n" % str(bad),
    )
    result = solve_external(case, command=cmd)
    assert result.status == "error"
    assert result.validation is not None
    assert any(v.tag == "eq23g" for v in result.validation.violations)


def test_missing_solution_file_is_error(known_good, tmp_path):
    case = known_good[0]
    cmd = stub_command(tmp_path, "noop_stub.py", "pass\n")
    result = solve_external(case, command=cmd)
    assert result.status == "error"
    assert "no solution" in result.message


def test_import_all_zero_is_all_dark(known_good):
    case, model, _, _ = known_good
    text = "\n".join(f"{v.name} 0" for v in model.variables)
    assignment = import_solution(model, text)
    assert set(assignment) == {v.name for v in model.variables}
    assert all(v == 0.0 for v in assignment.values())


def test_import_missing_names_default_to_zero(known_good):
    _, model, _, _ = known_good
    assignment = import_solution(model, "# only a comment\n")
    assert all(v == 0.0 for v in assignment.values())


def test_import_tolerates_near_integral_values(known_good, toy_cases):
    case, model, assignment, _ = known_good
    text = write_solution_text(model, assignment).replace(
        "bus_on.b1.3 1.0", "bus_on.b1.3 1.0000001"
    )
    parsed = import_solution(model, text)
    assert parsed["bus_on.b1.3"] == pytest.approx(1.0, abs=1e-6)
    from blackstart import decode

    sched = decode(model, parsed, case)
    assert sched.bus_on["b1"][2] is True


def test_import_unknown_name_rejected(known_good):
    _, model, _, _ = known_good
    with pytest.raises(SolutionFormatError, match="foo.bar.1"):
        import_solution(model, "foo.bar.1 0\n")


def test_import_unparseable_value_rejected(known_good):
    _, model, _, _ = known_good
    with pytest.raises(SolutionFormatError, match="unparseable"):
        import_solution(model, "gen_start.g1.2 twelve\n")


def test_env_var_selects_solver(monkeypatch):
    monkeypatch.setenv(ENV_SOLVER_CMD, "mysolver {mps} {sol}")
    assert resolve_solver_command() == "mysolver {mps} {sol}"
    monkeypatch.delenv(ENV_SOLVER_CMD)
    assert resolve_solver_command() is None
    assert resolve_solver_command("explicit {mps} {sol}") == "explicit {mps} {sol}"


def test_real_backend_matches_enumeration(toy_cases, toy_enum, toy_external):
    for name in toy_cases:
        enum = toy_enum[name]
        ext = toy_external[name]
        assert ext.status == "optimal", (name, ext.message)
        rel = abs(enum.objective - ext.objective) / (1 + abs(enum.objective))
        assert rel <= 1e-6, name
        assert ext.validation.passed


def assert_stage_timings_and_model_size(stats, model, stages):
    assert set(stats["stages"]) == stages
    assert all(seconds >= 0 for seconds in stats["stages"].values())
    assert sum(stats["stages"].values()) <= stats["wall_time_s"]
    assert stats["model"] == {
        "vars": len(model.variables),
        "int_vars": sum(v.is_integer for v in model.variables),
        "rows": len(model.constraints),
        "nnz": sum(len(c.terms) for c in model.constraints),
    }


def test_stats_carry_stage_timings_and_model_size(toy_cases, toy_external):
    model = encode(toy_cases["toy_fc"])
    assert_stage_timings_and_model_size(toy_external["toy_fc"].stats, model, FORKED_STAGES)


def test_command_stats_carry_all_six_stages(known_good, tmp_path):
    case, model, _, sol = known_good
    result = solve_external(case, command=copy_stub(tmp_path, sol))
    assert result.status == "optimal"
    assert_stage_timings_and_model_size(result.stats, model, COMMAND_STAGES)


def test_stats_carry_highs_info(toy_external):
    highs = toy_external["toy_fc"].stats["highs"]
    assert highs["status"] == 0
    assert highs["mip_gap"] == 0
    assert isinstance(highs["mip_node_count"], int) and highs["mip_node_count"] >= 0
    assert highs["objective"] == pytest.approx(toy_external["toy_fc"].objective, rel=1e-9)
    assert highs["message"]


def test_worker_that_exits_is_error(known_good, monkeypatch, fresh_solver_host):
    def exit_at_once(model, time_limit=None):
        os._exit(3)

    monkeypatch.setattr(highs_cli, "solve_model", exit_at_once)
    result = solve_external(known_good[0])
    assert result.status == "error"
    assert "code 3" in result.message
    assert set(result.stats["stages"]) == {"encode", "solver"}


def test_worker_that_outlives_the_timeout_is_killed(known_good, monkeypatch, fresh_solver_host):
    def sleep(model, time_limit=None):
        time.sleep(60)

    monkeypatch.setattr(highs_cli, "solve_model", sleep)
    started = time.perf_counter()
    result = solve_external(known_good[0], timeout_s=0.5)
    assert time.perf_counter() - started < 10
    assert result.status == "error"
    assert "timed out" in result.message


def test_worker_that_returns_too_few_values_is_error(known_good, monkeypatch, fresh_solver_host):
    def short(model, time_limit=None):
        return "optimal", [0.0], {"message": "stub"}

    monkeypatch.setattr(highs_cli, "solve_model", short)
    result = solve_external(known_good[0])
    assert result.status == "error"
    assert "1 values" in result.message


def test_infeasible_model_on_the_default_path_matches_the_oracle():
    doc = {  # the fuel cell's own cranking draw has nothing to cover it
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
    case = load_case(doc)
    assert solve_enumeration(case).status == "infeasible"
    result = solve_external(case)
    assert result.status == "infeasible", result.message
    assert result.stats["highs"]["status"] == 2


def test_default_solve_from_a_bare_checkout_leaves_the_caller_without_scipy(tmp_path):
    """A fresh interpreter with ``src`` on its own path only, no PYTHONPATH,
    solves by default, and scipy stays out of it (it is the solver's)."""
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import blackstart as bs\n"
        "result = bs.solve_external(bs.load_case(bs.bundled_case_path('toy_t5')))\n"
        "assert result.status == 'optimal', result.message\n"
        "assert 'scipy' not in sys.modules\n"
        "assert 'numpy' not in sys.modules\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", ENV_SOLVER_CMD)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_battery_window_closed_at_its_opening_step_is_no_source():
    """A window that opens and closes at one step must not energize the battery's bus.

    On this generated case (``perfbench/toycases.generate(9, 2)[1]``) the
    MILP once chose exactly that schedule, which validation rejects; the
    oracle's optimum does without it.
    """
    case = load_case(DATA / "generated_bt_window.json")
    oracle = solve_enumeration(case)
    result = solve_external(case)
    assert oracle.status == "optimal"
    assert result.status == "optimal", result.message
    assert result.objective == pytest.approx(oracle.objective, rel=1e-6)


def test_solve_mps_front_end_needs_two_arguments(capsys):
    assert highs_cli.main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_solve_mps_front_end_on_the_golden_file(tmp_path, toy_cases, toy_external):
    case = toy_cases["toy_path3"]
    sol = tmp_path / "toy_path3.sol"
    assert highs_cli.main([str(DATA / "toy_path3.mps"), str(sol)]) == 0
    model = read_mps(DATA / "toy_path3.mps")
    assignment = import_solution(model, sol.read_text())
    assert validate(case, decode(model, assignment, case)).passed
    assert model.objective_of(assignment) == pytest.approx(
        toy_external["toy_path3"].objective, rel=1e-9)


@pytest.mark.parametrize("name", ["bus_on.b1.3", "gen_power.g2.4"])
def test_non_finite_solver_value_is_a_bad_document(known_good, tmp_path, name):
    case, model, assignment, _ = known_good
    sol = tmp_path / "nan.sol"
    sol.write_text(write_solution_text(model, {**assignment, name: float("nan")}))
    result = solve_external(case, command=copy_stub(tmp_path, sol))
    assert result.status == "error"
    assert "bad solution document" in result.message and "non-finite" in result.message


def test_import_rejects_infinite_values(known_good):
    _, model, _, _ = known_good
    with pytest.raises(SolutionFormatError, match="non-finite"):
        import_solution(model, "gen_power.g2.4 inf\n")


BUNDLED_GSUS = json.loads((DATA / "bundled_gsus.json").read_text())


@pytest.mark.parametrize("name", sorted(BUNDLED_GSUS))
def test_bundled_case_keeps_its_objective_and_gsus(name):
    """Which equal-cost schedule the solver returns may change with its
    settings; the objective and the startup sequence (gen_start, fc_start)
    may not."""
    want = BUNDLED_GSUS[name]
    result = solve_external(load_case(bundled_case_path(name)))
    assert result.status == "optimal", result.message
    assert result.objective == pytest.approx(want["objective"], rel=1e-9)
    doc = result.schedule.to_document()
    assert (doc["gen_start"], doc["fc_start"]) == (want["gen_start"], want["fc_start"])
