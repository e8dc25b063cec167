"""HiGHS threads: every solve, on a solver host or in ``blackstart-solve-mps``,
runs HiGHS on one thread, and a host resets the thread scheduler it inherits
from its owner, which may have run HiGHS with another count, before its
first solve. The owner's solves here take one or two threads; no test starts
more."""

import json
import os
import subprocess

import pytest

from blackstart.analysis import SweepSpec, sweep
from blackstart.cases import bundled_case_path
from blackstart.milp import encode
from blackstart.mps import write_mps
from blackstart.solvers import external, highs_cli

from conftest import SRC
from test_solver_host import clean_env, python_script

IEEE39 = ["ieee39_nores", "ieee39_fc50", "ieee39_bt50", "ieee39_bt30"]
# A script's owner solves bt50 in-process on ``owner_threads`` threads through
# the binding, so that HiGHS's global scheduler runs that many when a host is
# forked after it: two is another count than the host's, one the same count.
OWNER_SOLVES_IN_PROCESS = (
    "import os, tempfile\n"
    "from blackstart import load_case, solve_external\n"
    "from blackstart.cases import bundled_case_path\n"
    "from blackstart.milp import encode\n"
    "from blackstart.mps import write_mps\n"
    "from blackstart.solvers import highs_cli\n"
    "case = load_case(bundled_case_path('ieee39_bt50'))\n"
    "with tempfile.TemporaryDirectory() as tmp:\n"
    "    path = os.path.join(tmp, 'bt50.mps')\n"
    "    write_mps(encode(case), path)\n"
    "    highs = highs_cli._core._Highs()\n"
    "    highs.setOptionValue('log_to_console', False)\n"
    "    highs.setOptionValue('threads', owner_threads)\n"
    "    highs.readModel(path)\n"
    "    highs.run()\n"
    "assert highs.getModelStatus() == highs_cli._core.HighsModelStatus.kOptimal\n"
)


@pytest.fixture()
def highs_runs(monkeypatch, tmp_path):
    """Record, for each ``_Highs.run`` in this process or a host forked
    after the patch, the process's pid and HiGHS's ``threads`` option;
    returns a function that reads the records as ``(pid, threads)`` pairs."""
    log = tmp_path / "highs_runs"
    run = highs_cli._core._Highs.run

    def recording_run(self):
        _, threads = self.getOptionValue("threads")
        with open(log, "a") as out:
            out.write(f"{os.getpid()} {threads}\n")
        return run(self)

    monkeypatch.setattr(highs_cli._core._Highs, "run", recording_run)
    return lambda: [tuple(map(int, line.split())) for line in log.read_text().splitlines()]


def test_solve_model_runs_highs_on_one_thread(toy_cases, highs_runs):
    status, _, _ = highs_cli.solve_model(encode(toy_cases["toy_fc"]).arrays(), time_limit=60)
    assert status == "optimal"
    assert highs_runs() == [(os.getpid(), 1)]


def test_blackstart_solve_mps_runs_highs_on_one_thread(toy_cases, highs_runs, tmp_path):
    write_mps(encode(toy_cases["toy_fc"]), tmp_path / "toy_fc.mps")
    assert highs_cli.main([str(tmp_path / "toy_fc.mps"), str(tmp_path / "toy_fc.sol")]) == 0
    assert highs_runs() == [(os.getpid(), 1)]


def test_a_default_solve_runs_highs_on_one_thread(toy_cases, highs_runs, fresh_solver_host):
    result = external.solve_external(toy_cases["toy_fc"])
    assert result.ok, result.message
    assert "threads" not in result.stats["highs"]
    assert highs_runs() == [(result.stats["worker"]["pid"], 1)]


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_hosts_run_highs_on_one_thread(toy_cases, highs_runs, fresh_solver_host, workers):
    values = [5.0, 10.0, 50.0]
    result = sweep(SweepSpec(case=toy_cases["toy_fc"], axis="fc_capacity",
                             values=values, workers=workers))
    assert [row.status for row in result.rows] == ["optimal"] * len(values)
    assert sorted(highs_runs()) == sorted((row.stats["worker"]["pid"], 1) for row in result.rows)


@pytest.mark.parametrize("owner_threads", [1, 2])
def test_a_host_forked_after_an_in_process_highs_solve_is_optimal(owner_threads):
    # HiGHS's thread scheduler is global to a process and a forked host
    # inherits it; without the host's reset this solve fails with "Not Set"
    # (thread counts differ) or waits on a worker thread the fork left behind
    # (counts equal). In a fresh interpreter, so that no HiGHS threads stay
    # in this one; a host that waits is killed at the solve's timeout.
    script = python_script(
        f"owner_threads = {owner_threads}\n"
        + OWNER_SOLVES_IN_PROCESS
        + "result = solve_external(case, timeout_s=30)\n"
          "print(result.status, result.message)\n"
    )
    proc = subprocess.run(script, env=clean_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[:1] == ["optimal"], proc.stdout


@pytest.mark.parametrize("owner_threads", [1, 2])
def test_a_host_that_ran_a_command_first_after_an_in_process_highs_solve_is_optimal(
        owner_threads):
    # The same, where the host's first request is a solver command's, which
    # needs no HiGHS: the host still drops the inherited scheduler before it
    # starts its owner watchdog thread.
    script = python_script(
        f"owner_threads = {owner_threads}\n"
        + OWNER_SOLVES_IN_PROCESS
        + "command = f'{sys.executable} -m blackstart.solvers.highs_cli {{mps}} {{sol}}'\n"
          "first = solve_external(case, command=command, timeout_s=30)\n"
          "assert first.status == 'optimal', first.message\n"
          "result = solve_external(case, timeout_s=30)\n"
          "assert result.stats['worker']['pid'] == first.stats['worker']['pid']\n"
          "print(result.status, result.message)\n"
    )
    env = {**clean_env(), "PYTHONPATH": str(SRC)}  # for the solver command
    proc = subprocess.run(script, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[:1] == ["optimal"], proc.stdout


def test_a_host_resets_the_scheduler_once(toy_cases, monkeypatch, tmp_path, fresh_solver_host):
    # three solves on one host: the reset before the first HiGHS solve only
    log = tmp_path / "resets"
    reset = highs_cli.reset_scheduler

    def recording_reset():
        with open(log, "a") as out:
            out.write(f"{os.getpid()}\n")
        reset()

    monkeypatch.setattr(highs_cli, "reset_scheduler", recording_reset)
    results = [external.solve_external(toy_cases[name]) for name in ("toy_fc", "toy_t5", "toy_fc")]
    assert all(result.ok for result in results), [result.message for result in results]
    pids = {result.stats["worker"]["pid"] for result in results}
    assert len(pids) == 1
    assert log.read_text().split() == [str(pid) for pid in pids]


def test_the_hosts_solution_equals_the_one_thread_solution():
    # both solves hand HiGHS the same input as the host: the arrays with its
    # energization fixing, and its heuristic start
    script = python_script(
        "from blackstart import load_case, solve_external\n"
        "from blackstart.cases import bundled_case_path\n"
        "from blackstart.milp import encode\n"
        "from blackstart.solvers import external, highs_cli\n"
        f"for name in {IEEE39!r}:\n"
        "    case = load_case(bundled_case_path(name))\n"
        "    result = solve_external(case)\n"
        "    model = encode(case)\n"
        "    start = external._start(model, case)\n"
        "    arrays = model.arrays()\n"
        "    external._force_on(model, case, arrays)\n"
        "    status, x, info = highs_cli.solve_model(arrays, start=start)\n"
        "    assert info['start_objective'] == result.stats['highs']['start_objective'], name\n"
        "    assert result.ok and status == 'optimal', (name, result.message, info)\n"
        "    assert list(result.point) == x.tolist(), name\n"
        "    print(name)\n"
    )
    proc = subprocess.run(script, env=clean_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == IEEE39


def test_blackstart_run_prints_nothing_on_stderr(tmp_path):
    # the host shares the caller's stdout and stderr, so HiGHS's log must
    # reach neither: stdout carries the summary JSON, which must parse
    script = python_script(
        "from blackstart.cli import main\n"
        f"sys.exit(main(['run', '--case', {str(bundled_case_path('toy_fc'))!r}, "
        f"'--out-dir', {str(tmp_path)!r}]))\n"
    )
    proc = subprocess.run(script, env=clean_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["stats"]["highs"]["status"] == 0
