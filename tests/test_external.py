import json
import os
import shlex
import stat
import subprocess
import sys
import time
from array import array
from pathlib import Path

import pytest

from blackstart import (
    decode,
    encode,
    export_mps,
    import_mps,
    load_case,
    models_structurally_equal,
    point_from_schedule,
    read_mps,
    solve_enumeration,
    validate,
)
from blackstart.cases import bundled_case_path
from blackstart.milp import MilpModel
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
FORKED_STAGES = {"encode", "start", "solver", "decode", "validate"}
COMMAND_STAGES = {"encode", "export", "solver", "import_solution", "decode", "validate"}


def write_solution_text(model, x):
    return "\n".join(f"{name} {value!r}" for name, value in zip(model.names, x)) + "\n"


def with_value(model, x, name, value):
    """A copy of point ``x`` with variable ``name`` set to ``value``."""
    x = list(x)
    x[model.column(name)] = value
    return x


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
    x = point_from_schedule(model, case, toy_enum["toy_t5"].schedule)
    sol = tmp_path / "good.sol"
    sol.write_text(write_solution_text(model, x))
    return case, model, x, sol


def copy_stub(tmp_path, sol):
    return stub_command(
        tmp_path, "copy_stub.py",
        "import shutil, sys\nshutil.copy(%r, sys.argv[2])\n" % str(sol),
    )


def test_stub_solver_copies_known_good_solution(known_good, tmp_path):
    case, model, x, sol = known_good
    result = solve_external(case, command=copy_stub(tmp_path, sol))
    assert result.status == "optimal"
    assert result.schedule.gen_start == {"g1": 2, "g2": 3, "g3": 4}
    assert len(result.point) == len(model.names)
    assert list(result.point) == pytest.approx(list(x), abs=1e-9)


@pytest.mark.parametrize("path", ["highs", "command", "command_invalid"])
def test_the_point_is_a_double_array_on_every_path(known_good, tmp_path, toy_external, path):
    case, model, x, sol = known_good
    if path == "highs":
        result, status = toy_external["toy_fc"], "optimal"
    else:
        if path == "command_invalid":  # an error that keeps its point
            sol = tmp_path / "bad.sol"
            sol.write_text(write_solution_text(model, with_value(model, x, "gen_power.g2.4", 55.0)))
        result = solve_external(case, command=copy_stub(tmp_path, sol))
        status = "optimal" if path == "command" else "error"
    assert result.status == status, result.message
    assert isinstance(result.point, array) and result.point.typecode == "d"


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
    case, model, x, sol = known_good
    corrupt = with_value(model, x, "gen_power.g2.4", 55.0)  # semantic trajectory says 80
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
    text = "\n".join(f"{name} 0" for name in model.names)
    x = import_solution(model, text)
    assert len(x) == len(model.names)
    assert all(v == 0.0 for v in x)
    schedule = decode(model, x, case)
    assert set(schedule.gen_start.values()) == {None}
    assert not any(any(flags) for flags in schedule.bus_on.values())


def test_import_missing_names_default_to_zero(known_good):
    _, model, _, _ = known_good
    x = import_solution(model, "# only a comment\n")
    assert len(x) == len(model.names)
    assert all(v == 0.0 for v in x)


def test_import_tolerates_near_integral_values(known_good, toy_cases):
    case, model, x, _ = known_good
    text = write_solution_text(model, x).replace(
        "bus_on.b1.3 1.0", "bus_on.b1.3 1.0000001"
    )
    parsed = import_solution(model, text)
    assert parsed[model.column("bus_on.b1.3")] == 1.0000001
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


def test_import_repeated_name_rejected(known_good):
    """A name given twice is an error that names both lines, not a silent
    last-one-wins."""
    _, model, _, _ = known_good
    with pytest.raises(SolutionFormatError,
                       match=r"line 3: variable 'gen_start.g1.6' repeats line 1"):
        import_solution(model, "gen_start.g1.6 0\n# a comment\ngen_start.g1.6 1\n")


def test_repeated_solver_value_is_a_bad_document(known_good, tmp_path):
    case, model, x, sol = known_good
    dup = tmp_path / "dup.sol"
    dup.write_text(sol.read_text() + "gen_start.g1.6 0\n")
    result = solve_external(case, command=copy_stub(tmp_path, dup))
    assert result.status == "error"
    assert "bad solution document" in result.message and "repeats line" in result.message


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
    arrays = model.arrays()
    assert stats["model"] == {
        "vars": len(model.names),
        "int_vars": sum(arrays.integrality),
        "rows": len(model.row_names),
        "nnz": sum(v != 0.0 for v in arrays.val),
    }


def test_stats_carry_stage_timings_and_model_size(toy_cases, toy_external):
    model = encode(toy_cases["toy_fc"])
    assert_stage_timings_and_model_size(toy_external["toy_fc"].stats, model, FORKED_STAGES)


def test_command_stats_carry_all_six_stages(known_good, tmp_path):
    case, model, _, sol = known_good
    result = solve_external(case, command=copy_stub(tmp_path, sol))
    assert result.status == "optimal"
    assert_stage_timings_and_model_size(result.stats, model, COMMAND_STAGES)


@pytest.mark.parametrize("name", ["toy_fc", "ieee39_bt50"])
def test_the_default_solve_never_builds_the_model_views(name, monkeypatch, fresh_solver_host):
    """encode, arrays, HiGHS's values, decode and validate need no
    ``VarRef`` or ``Constraint``: the solve path reads the stored arrays, and
    so do MPS export and import, the structural comparison and the check.
    The host is forked after the patch, so the patch reaches the pipeline."""
    def refuse(model):
        raise AssertionError("the solve path built a model view")

    monkeypatch.setattr(MilpModel, "variables", property(refuse))
    monkeypatch.setattr(MilpModel, "constraints", property(refuse))
    case = load_case(bundled_case_path(name))
    result = solve_external(case)
    assert result.status == "optimal", result.message
    assert result.validation.passed
    assert validate(case, result.schedule).passed
    model = encode(case)
    back = import_mps(export_mps(model))
    assert models_structurally_equal(model, back)
    assert back.check_assignment(result.point) == []


def test_stats_carry_highs_info(toy_external):
    highs = toy_external["toy_fc"].stats["highs"]
    assert highs["status"] == 0
    assert highs["mip_gap"] == 0
    assert isinstance(highs["mip_node_count"], int) and highs["mip_node_count"] >= 0
    assert highs["objective"] == pytest.approx(toy_external["toy_fc"].objective, rel=1e-9)
    assert highs["message"]


def test_worker_that_exits_is_error(known_good, monkeypatch, fresh_solver_host):
    def exit_at_once(model, time_limit=None, start=None):
        os._exit(3)

    monkeypatch.setattr(highs_cli, "solve_model", exit_at_once)
    result = solve_external(known_good[0])
    assert result.status == "error"
    assert "code 3" in result.message
    # the pipeline's stages died with the host; the owner knows only which host it was
    assert set(result.stats) == {"worker", "wall_time_s"}
    assert result.stats["worker"]["pid"] != os.getpid()


def test_worker_that_outlives_the_timeout_is_killed(known_good, monkeypatch, fresh_solver_host):
    def sleep(model, time_limit=None, start=None):
        time.sleep(60)

    monkeypatch.setattr(highs_cli, "solve_model", sleep)
    started = time.perf_counter()
    result = solve_external(known_good[0], timeout_s=0.5)
    assert time.perf_counter() - started < 10
    assert result.status == "error"
    assert "timed out" in result.message


def test_worker_that_returns_too_few_values_is_error(known_good, monkeypatch, fresh_solver_host):
    def short(model, time_limit=None, start=None):
        return "optimal", [0.0], {"message": "stub"}

    monkeypatch.setattr(highs_cli, "solve_model", short)
    result = solve_external(known_good[0])
    assert result.status == "error"
    assert "1 values" in result.message


SELF_DRAINING_FC = {  # the fuel cell's own cranking draw has nothing to cover it
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


def test_infeasible_model_on_the_default_path_matches_the_oracle():
    case = load_case(SELF_DRAINING_FC)
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


@pytest.mark.parametrize("module", ["blackstart", "blackstart.cli"])
def test_importing_the_package_and_its_cli_loads_no_numpy_scipy_or_multiprocessing(module):
    """``import blackstart`` is every caller's setup cost: numpy and scipy
    load only in a solver host, and ``external`` imports multiprocessing only
    where it forks one (at the top, it cost the import about 15 ms). Each
    module is imported alone, in a fresh interpreter."""
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        f"import {module}\n"
        "heavy = ('numpy', 'scipy', 'multiprocessing')\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] in heavy))\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", ENV_SOLVER_CMD)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


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


def test_solve_mps_front_end_writes_the_sentinel_the_reader_knows(tmp_path):
    model = encode(load_case(SELF_DRAINING_FC))
    mps, sol = tmp_path / "fc.mps", tmp_path / "fc.sol"
    mps.write_text(export_mps(model))
    assert highs_cli.main([str(mps), str(sol)]) == 0
    assert import_solution(model, sol.read_text()) is None


def test_solve_mps_front_end_on_the_golden_file(tmp_path, toy_cases, toy_external):
    case = toy_cases["toy_path3"]
    sol = tmp_path / "toy_path3.sol"
    assert highs_cli.main([str(DATA / "toy_path3.mps"), str(sol)]) == 0
    model = read_mps(DATA / "toy_path3.mps")
    x = import_solution(model, sol.read_text())
    assert validate(case, decode(model, x, case)).passed
    assert model.objective_of(x) == pytest.approx(
        toy_external["toy_path3"].objective, rel=1e-9)


@pytest.mark.parametrize("old, new, err", [
    ("    rhs obj -640.0\n", "    rhs obj -640.0\n    rhs eq2.system.t2 nan\n",
     "line 567: 'nan' is not a finite number"),
    (" N obj\n", " N obj\n L\n", "line 6: a row is a type and a name"),
    ("BOUNDS\n", "BOUNDS\n UP bnd\n", "line 568: UP bound without a column or value"),
    ("BOUNDS\n", "BOUNDS\n UP bnd w.a.1 3\n", "line 568: bound on undeclared column w.a.1"),
    ("    rhs obj -640.0\n", "    rhs obj -640.0\n    rhs eq2.system.t2\n",
     "line 567: odd row/value tokens"),
    ("", "", "No such file or directory"),
], ids=["rhs-nan", "row-without-name", "bound-without-column", "bound-on-undeclared-column",
        "rhs-without-value", "missing-file"])
def test_solve_mps_front_end_rejects_a_bad_file(tmp_path, capsys, old, new, err):
    """A file that does not read or parse (a NaN, a malformed line, no file
    at all) must fail on the file, before HiGHS sees it, with one stderr
    line, exit 2, and never write the sentinel."""
    mps = tmp_path / "bad.mps"
    if old:
        mps.write_text((DATA / "toy_path3.mps").read_text().replace(old, new, 1))
    sol = tmp_path / "bad.sol"
    assert highs_cli.main([str(mps), str(sol)]) == 2
    assert not sol.exists()
    stderr = capsys.readouterr().err.splitlines()
    assert len(stderr) == 1 and err in stderr[0] and str(mps) in stderr[0]


def test_solve_mps_front_end_rejects_an_unreadable_number(tmp_path):
    golden = (DATA / "toy_path3.mps").read_text()
    line = golden.splitlines().index("    rhs obj -640.0") + 2  # the line added below it
    mps = tmp_path / "abc.mps"
    mps.write_text(golden.replace("    rhs obj -640.0\n",
                                  "    rhs obj -640.0\n    rhs eq2.system.t2 abc\n"))
    sol = tmp_path / "abc.sol"
    proc = subprocess.run([sys.executable, "-m", "blackstart.solvers.highs_cli", str(mps), str(sol)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"bad MPS file {mps}: line {line}: 'abc' is not a number"]
    assert not sol.exists()


@pytest.mark.parametrize("name", ["bus_on.b1.3", "gen_power.g2.4"])
def test_non_finite_solver_value_is_a_bad_document(known_good, tmp_path, name):
    case, model, x, _ = known_good
    sol = tmp_path / "nan.sol"
    sol.write_text(write_solution_text(model, with_value(model, x, name, float("nan"))))
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
    may not. HiGHS keeps the heuristic start, which ``solve_model`` drops,
    silently, where it disagrees with a column the reduction fixed, such as
    one the host's energization fixing raised."""
    want = BUNDLED_GSUS[name]
    result = solve_external(load_case(bundled_case_path(name)))
    assert result.status == "optimal", result.message
    assert result.stats["highs"]["start_objective"] is not None
    assert result.objective == pytest.approx(want["objective"], rel=1e-9)
    doc = result.schedule.to_document()
    assert (doc["gen_start"], doc["fc_start"]) == (want["gen_start"], want["fc_start"])
