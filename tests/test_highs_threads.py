"""HiGHS threads: every solve, on a solver host or in ``blackstart-solve-mps``,
runs HiGHS on one thread, and HiGHS's process-global thread scheduler is
reset before each run and in every forked child (``highs_threads``), so
that neither an earlier run on another count in the same process nor one
in a forked child's parent makes a solve fail, whichever module loaded the
binding there. The in-process solves here take one or two threads; no test
starts more."""

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


def solve_in_process(name, threads, binding="blackstart.solvers.highs_cli"):
    """Script lines that load bundled case ``name`` as ``case`` and solve it
    in process on ``threads`` threads through the ``_core`` of ``binding``
    (``highs_cli``'s, or scipy's own package), so that HiGHS's global
    scheduler runs that many afterwards: two is another count than
    ``solve_model``'s, one the same count."""
    return (
        "import os, tempfile\n"
        "from blackstart import load_case, solve_external\n"
        "from blackstart.cases import bundled_case_path\n"
        "from blackstart.milp import encode\n"
        "from blackstart.mps import write_mps\n"
        f"from {binding} import _core\n"
        f"case = load_case(bundled_case_path({name!r}))\n"
        "with tempfile.TemporaryDirectory() as tmp:\n"
        "    path = os.path.join(tmp, 'case.mps')\n"
        "    write_mps(encode(case), path)\n"
        "    highs = _core._Highs()\n"
        "    highs.setOptionValue('log_to_console', False)\n"
        f"    highs.setOptionValue('threads', {threads})\n"
        "    highs.readModel(path)\n"
        "    highs.run()\n"
        "assert highs.getModelStatus() == _core.HighsModelStatus.kOptimal\n"
    )


def run_script(body, env=None):
    """Run ``body`` in a fresh interpreter, so that no HiGHS threads stay in
    this one; returns its stdout's words, after checking it exited 0."""
    proc = subprocess.run(python_script(body), env=env or clean_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


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


def test_solve_model_is_optimal_after_a_two_thread_run_in_the_same_process():
    # without the reset before each run, this solve asks a scheduler that
    # runs two threads for one, and fails ("Not Set")
    words = run_script(
        solve_in_process("toy_fc", 2)
        + "from blackstart.solvers.highs_cli import solve_model\n"
          "status, _, info = solve_model(encode(case).arrays(), time_limit=30)\n"
          "print(status, info['message'])\n"
    )
    assert words[:1] == ["optimal"], words


def test_a_plain_fork_that_starts_a_thread_solves_after_a_two_thread_run():
    # the child inherits a two-thread scheduler without its threads, and
    # starts a thread of its own before it solves: only the reset at fork,
    # before that thread, makes the solve work. A child still alive after
    # 60 s is killed, so that none outlives the test.
    words = run_script(
        solve_in_process("toy_fc", 2)
        + "import threading, time\n"
          "from blackstart.solvers.highs_cli import solve_model\n"
          "pid = os.fork()\n"
          "if pid == 0:\n"
          "    threading.Thread(target=threading.Event().wait, daemon=True).start()\n"
          "    status, _, _ = solve_model(encode(case).arrays(), time_limit=30)\n"
          "    os.write(1, f'{status}\\n'.encode())\n"
          "    os._exit(0)\n"
          "deadline = time.monotonic() + 60\n"
          "while os.waitpid(pid, os.WNOHANG) == (0, 0):\n"
          "    if time.monotonic() > deadline:\n"
          "        os.kill(pid, 9)\n"
          "        print('timeout')\n"
          "        break\n"
          "    time.sleep(0.05)\n"
    )
    assert words == ["optimal"], words


@pytest.mark.parametrize("owner_threads, binding", [
    (1, "blackstart.solvers.highs_cli"), (2, "blackstart.solvers.highs_cli"),
    (2, "scipy.optimize._highspy")], ids=["1", "2", "scipy-2"])
def test_a_host_forked_after_an_in_process_highs_solve_is_optimal(owner_threads, binding):
    # a forked host inherits its owner's scheduler; without the reset at
    # fork this solve fails with "Not Set" (thread counts differ) or waits on
    # a worker thread the fork left behind (counts equal), since the host's
    # watchdog thread starts before its first run; a host that waits is
    # killed at the solve's timeout. An owner that loads the binding through
    # scipy.optimize never imports highs_cli: the hook is registered all the
    # same, and without it every HiGHS solve on the host fails ("Invalid
    # argument").
    words = run_script(
        solve_in_process("ieee39_bt50", owner_threads, binding)
        + "print('blackstart.solvers.highs_cli' in sys.modules)\n"
          "result = solve_external(case, timeout_s=30)\n"
          "print(result.status, result.message)\n"
    )
    assert words[:2] == [str(binding.endswith("highs_cli")), "optimal"], words


@pytest.mark.parametrize("owner_threads", [1, 2])
def test_a_host_that_ran_a_command_first_after_an_in_process_highs_solve_is_optimal(
        owner_threads):
    # The same, where the host's first request is a solver command's, which
    # needs no HiGHS: the reset at fork came first all the same.
    words = run_script(
        solve_in_process("ieee39_bt50", owner_threads)
        + "command = f'{sys.executable} -m blackstart.solvers.highs_cli {{mps}} {{sol}}'\n"
          "first = solve_external(case, command=command, timeout_s=30)\n"
          "assert first.status == 'optimal', first.message\n"
          "result = solve_external(case, timeout_s=30)\n"
          "assert result.stats['worker']['pid'] == first.stats['worker']['pid']\n"
          "print(result.status, result.message)\n",
        env={**clean_env(), "PYTHONPATH": str(SRC)},  # for the solver command
    )
    assert words[:1] == ["optimal"], words


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
