import json
import math
import os
import shlex
import stat
import sys

import pytest

from blackstart import import_mps
from blackstart.cases import bundled_case_path
from blackstart.cli import main
from blackstart.solvers import external

from conftest import bundled_document, doc_variant


def case_arg(name):
    return str(bundled_case_path(name))


def test_run_writes_artifacts(tmp_path, capsys):
    rc = main(["run", "--case", case_arg("toy_t5"), "--backend", "enum",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    for artifact in ("schedule.json", "validation.json", "gsus.csv", "restored_power.csv"):
        assert (tmp_path / artifact).exists()
    summary = json.loads(capsys.readouterr().out)
    assert summary["status"] == "optimal"


def test_a_line_the_solver_host_prints_stays_out_of_the_summary(tmp_path, capfd, monkeypatch,
                                                                fresh_solver_host):
    """HiGHS may write to file descriptor 1 inside the host, as scipy's
    binding has been seen to; ``run``'s stdout must still be one JSON
    summary."""
    solve_here = external._solve_here
    line = b"HighsMipSolverData::transformNewIntegerFeasibleSolution tmpSolver.run();\n"

    def noisy(*args):
        os.write(1, line)
        return solve_here(*args)

    monkeypatch.setattr(external, "_solve_here", noisy)
    rc = main(["run", "--case", case_arg("toy_t5"), "--out-dir", str(tmp_path)])
    assert rc == 0
    out, err = capfd.readouterr()
    assert json.loads(out)["status"] == "optimal"
    assert line.decode() in err


def test_run_summary_carries_solver_stats(tmp_path, capsys):
    rc = main(["run", "--case", case_arg("toy_t5"), "--out-dir", str(tmp_path)])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert set(stats["stages"]) == {"encode", "start", "solver", "decode", "validate"}
    assert sum(stats["stages"].values()) <= stats["wall_time_s"]
    assert set(stats["model"]) == {"vars", "int_vars", "rows", "nnz"}
    assert stats["highs"]["status"] == 0
    assert stats["highs"]["mip_gap"] == 0
    model, highs = stats["model"], stats["highs"]
    assert 0 < highs["reduced_rows"] < model["rows"]
    assert 0 < highs["reduced_cols"] < model["vars"]
    assert 0 < highs["forced_on"] < model["int_vars"]
    assert 0 < highs["substituted"] < model["vars"] - model["int_vars"]
    assert 0 < highs["reduce_s"] and 0 < highs["time_s"]
    assert highs["reduce_s"] + highs["time_s"] < stats["stages"]["solver"]
    assert isinstance(stats["worker"]["pid"], int)
    assert stats["worker"]["maxrss_mb"] > 0
    assert highs["version"].count(".") == 2
    # toy_t5's heuristic start is its optimum
    assert highs["start_objective"] == pytest.approx(highs["objective"], rel=1e-9)
    assert stats["stages"]["start"] > 0


def test_run_load_error_exit_code(tmp_path):
    bad = doc_variant(bundled_document("toy_path3"), **{"generators.0.black_start": False})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    rc = main(["run", "--case", str(path), "--backend", "enum", "--out-dir", str(tmp_path)])
    assert rc == 2


def test_run_with_corrupt_external_solution_exits_validation_code(tmp_path):
    stub = tmp_path / "stub.py"
    # claims full fuel-cell output one step early: decodes but fails validation
    stub.write_text(
        "import sys\n"
        "from blackstart.mps import read_mps\n"
        "model = read_mps(sys.argv[1])\n"
        "lines = [f'{n} {v}' for n, v in zip(model.names, model.arrays().lb)]\n"
        "open(sys.argv[2], 'w').write('\\n'.join(lines))\n"
    )
    stub.chmod(stub.stat().st_mode | stat.S_IEXEC)
    cmd = f"{shlex.quote(sys.executable)} {shlex.quote(str(stub))} {{mps}} {{sol}}"
    rc = main(["run", "--case", case_arg("toy_t5"), "--backend", "external",
               "--solver-cmd", cmd, "--out-dir", str(tmp_path)])
    assert rc == 4
    assert (tmp_path / "validation.json").exists()


def test_validate_verb(tmp_path):
    rc = main(["run", "--case", case_arg("toy_path3"), "--backend", "enum",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    rc = main(["validate", "--case", case_arg("toy_path3"),
               "--schedule", str(tmp_path / "schedule.json")])
    assert rc == 0
    # corrupt it: start the generator during the blackout step
    doc = json.loads((tmp_path / "schedule.json").read_text())
    doc["gen_start"]["g2"] = 1
    bad = tmp_path / "bad_schedule.json"
    bad.write_text(json.dumps(doc))
    rc = main(["validate", "--case", case_arg("toy_path3"), "--schedule", str(bad)])
    assert rc == 4


@pytest.mark.parametrize("n_steps", [8.5, True])
def test_validate_verb_rejects_a_step_count_that_is_not_an_integer(tmp_path, capsys, n_steps):
    rc = main(["run", "--case", case_arg("toy_path3"), "--backend", "enum",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "schedule.json").read_text())
    assert doc["n_steps"] == 8
    doc["n_steps"] = n_steps
    bad = tmp_path / "bad_schedule.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["validate", "--case", case_arg("toy_path3"), "--schedule", str(bad)])
    assert rc == 2
    assert "schedule load failed: n_steps" in capsys.readouterr().err


def test_export_mps_verb(tmp_path):
    out = tmp_path / "model.mps"
    rc = main(["export-mps", "--case", case_arg("toy_path3"), "--out", str(out)])
    assert rc == 0
    model = import_mps(out.read_text())
    assert any(name.startswith("gen_start.") for name in model.names)


@pytest.mark.parametrize("verb, flag, below", [
    ("export-mps", "--out", "x.mps"), ("run", "--out-dir", ""), ("run", "--out-dir", "out")])
def test_an_output_path_that_cannot_be_written_exits_2(tmp_path, capsys, monkeypatch,
                                                        verb, flag, below):
    """Under a regular file, or a regular file itself, the output path is
    one stderr line naming it and exit 2; ``run`` says so before it solves."""
    monkeypatch.setattr("blackstart.solvers.solve", lambda *a, **k: pytest.fail("solved"))
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / below if below else blocker
    assert main([verb, "--case", case_arg("toy_path3"), flag, str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(out if verb == "export-mps" else blocker) in err[0], err


def test_report_verb(tmp_path, capsys):
    assert main(["run", "--case", case_arg("toy_t5"), "--backend", "enum",
                 "--out-dir", str(tmp_path)]) == 0
    rc = main(["report", "--case", case_arg("toy_t5"),
               "--schedule", str(tmp_path / "schedule.json"),
               "--out-dir", str(tmp_path / "report")])
    assert rc == 0
    stats = json.loads((tmp_path / "report" / "stats.json").read_text())
    assert stats["critical_buses"] == 5
    assert (tmp_path / "report" / "gsus.csv").exists()


def test_sweep_verb(tmp_path):
    rc = main(["sweep", "--case", case_arg("toy_t5"), "--axis", "fc_capacity",
               "--values", "10,20", "--backend", "enum", "--out-dir", str(tmp_path)])
    assert rc == 0
    csv = (tmp_path / "sweep_fc_capacity.csv").read_text()
    assert csv.splitlines()[0] == "fc_capacity,10,20"


def test_sweep_verb_location_values(tmp_path):
    rc = main(["sweep", "--case", case_arg("toy_t5"), "--axis", "resource_location",
               "--values", "b2;b5", "--backend", "enum", "--out-dir", str(tmp_path)])
    assert rc == 0
    csv = (tmp_path / "sweep_resource_location.csv").read_text()
    assert csv.splitlines()[0] == "resource_location,b2,b5"


def test_sweep_verb_runs_one_sweep_per_axis(tmp_path, capsys):
    rc = main(["sweep", "--case", case_arg("toy_t5"), "--backend", "enum",
               "--axis", "fc_capacity", "--values", "10,20",
               "--axis", "resource_location", "--values", "b2;b5", "--out-dir", str(tmp_path)])
    assert rc == 0
    fc = (tmp_path / "sweep_fc_capacity.csv").read_text()
    location = (tmp_path / "sweep_resource_location.csv").read_text()
    assert fc.splitlines()[0] == "fc_capacity,10,20"
    assert location.splitlines()[0] == "resource_location,b2,b5"
    assert capsys.readouterr().out == fc + location


@pytest.mark.parametrize("pairs", [
    ["--axis", "fc_capacity", "--values", "10", "--values", "20"],
    ["--axis", "fc_capacity", "--values", "10", "--axis", "fc_capacity", "--values", "20"],
])
def test_sweep_verb_wants_each_axis_once_with_its_values(tmp_path, capsys, pairs):
    rc = main(["sweep", "--case", case_arg("toy_t5"), "--backend", "enum", *pairs,
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "bad sweep spec" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_sweep_verb_rejects_a_location_bus_the_case_lacks(tmp_path, capsys):
    rc = main(["sweep", "--case", case_arg("ieee39_fc50"), "--axis", "resource_location",
               "--values", "b6+b16;bZZ+b19", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("bad sweep spec: ") and "['bZZ']" in err
    assert not list(tmp_path.iterdir())


def horizon_case(tmp_path, minutes):
    """toy_path3 with another horizon: in 40 minutes no unit can finish
    cranking, and Infinity (which ``json`` writes and reads) is no horizon."""
    path = tmp_path / "horizon.json"
    doc = doc_variant(bundled_document("toy_path3"), **{"time.horizon_minutes": minutes})
    path.write_text(json.dumps(doc))
    return str(path)


def stored_schedule(tmp_path, schedule, **edits):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(doc_variant(schedule.to_document(), **edits)))
    return str(path)


SCHEDULE_FAULTS = {
    "string-start": ("toy_bt", {"gen_start.g2": "2"}),
    "one-step-window": ("toy_bt", {"bat_window.bt1": [2]}),
    "window-past-horizon": ("toy_bt", {"bat_window.bt1": [2, 15]}),
    "other-case": ("toy_t5", {}),
    "string-flag": ("toy_bt", {"bus_on.b1.1": "false"}),
    "bool-dispatch": ("toy_bt", {"bat_dispatch.bt1.0": True}),
}


def failing_argv(kind, tmp_path, schedule):
    if kind == "run-short-horizon":
        return ["run", "--case", horizon_case(tmp_path, 40), "--out-dir", str(tmp_path)]
    if kind == "run-infinite-horizon":
        return ["run", "--case", horizon_case(tmp_path, math.inf), "--out-dir", str(tmp_path)]
    if kind == "export-mps-short-horizon":
        return ["export-mps", "--case", horizon_case(tmp_path, 40), "--out", "-"]
    if kind == "run-enum-over-cap":
        return ["run", "--case", case_arg("ieee39_nores"), "--backend", "enum",
                "--out-dir", str(tmp_path)]
    verb, fault = kind.split(":")
    case_name, edits = SCHEDULE_FAULTS[fault]
    argv = [verb, "--case", case_arg(case_name),
            "--schedule", stored_schedule(tmp_path, schedule, **edits)]
    return argv + (["--out-dir", str(tmp_path / "report")] if verb == "report" else [])


@pytest.mark.parametrize("kind, code", [
    ("run-short-horizon", 2),
    ("run-infinite-horizon", 2),
    ("export-mps-short-horizon", 2),
    ("run-enum-over-cap", 3),
    *((f"{verb}:{fault}", 2) for verb in ("validate", "report") for fault in SCHEDULE_FAULTS),
])
def test_failure_paths_end_in_exit_codes(kind, code, tmp_path, capsys, toy_enum):
    rc = main(failing_argv(kind, tmp_path, toy_enum["toy_bt"].schedule))
    assert rc == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
