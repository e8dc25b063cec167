"""HiGHS threads on the solver hosts: each request carries its host's share
of the usable CPUs, ``max(1, CPUs // hosts solving at once)``, where a
plain solve has one host and a sweep one per worker. No test here starts
HiGHS with more threads than this machine has CPUs."""

import json
import os
import subprocess

import pytest

from blackstart.analysis import SweepSpec, sweep
from blackstart.cases import bundled_case_path
from blackstart.solvers import external

from conftest import SRC
from test_solver_host import clean_env, python_script

CPUS = len(os.sched_getaffinity(0))
IEEE39 = ["ieee39_nores", "ieee39_fc50", "ieee39_bt50", "ieee39_bt30"]


@pytest.mark.parametrize("cpus, hosts, threads", [
    (1, 1, 1), (2, 1, 2), (2, 2, 1), (8, 3, 2), (4, 8, 1), (64, 2, 32),
])
def test_each_host_gets_its_share_of_the_affinity_set(monkeypatch, cpus, hosts, threads):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert external._highs_threads(hosts) == threads


@pytest.mark.parametrize("count, threads", [(6, 3), (None, 1)])
def test_without_an_affinity_set_the_cpu_count_is_shared(monkeypatch, count, threads):
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert external._highs_threads(2) == threads


def test_a_default_solve_gives_highs_every_usable_cpu(toy_cases):
    result = external.solve_external(toy_cases["toy_fc"])
    assert result.ok
    assert result.stats["highs"]["threads"] == max(1, CPUS)


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_rows_report_their_hosts_share(toy_cases, fresh_solver_host, workers):
    values = [5.0, 10.0, 50.0]
    result = sweep(SweepSpec(case=toy_cases["toy_fc"], axis="fc_capacity",
                             values=values, workers=workers))
    hosts = min(workers, len(values))
    assert [row.status for row in result.rows] == ["optimal"] * len(values)
    assert [row.stats["highs"]["threads"] for row in result.rows] == (
        [max(1, CPUS // hosts)] * len(values))


def test_a_plain_solve_after_a_sweep_gets_every_cpu_again(toy_cases, fresh_solver_host):
    """The sweep's first host serves the plain solve too, so it resets its
    HiGHS scheduler from the sweep's share to the whole."""
    result = sweep(SweepSpec(case=toy_cases["toy_fc"], axis="fc_capacity",
                             values=[5.0, 10.0], workers=2))
    assert [row.stats["highs"]["threads"] for row in result.rows] == [max(1, CPUS // 2)] * 2
    plain = external.solve_external(toy_cases["toy_fc"])
    assert plain.ok, plain.message
    assert plain.stats["worker"]["pid"] in {row.stats["worker"]["pid"] for row in result.rows}
    assert plain.stats["highs"]["threads"] == max(1, CPUS)


def test_a_host_forked_after_an_in_process_highs_solve_is_optimal():
    # HiGHS's thread scheduler is global to a process and a forked host
    # inherits it; without the host's reset this solve fails with "Not Set"
    # (thread counts differ) or waits on a worker thread the fork left behind
    # (counts equal). In a fresh interpreter, so that no HiGHS threads stay
    # in this one; a host that waits is killed at the solve's timeout.
    script = python_script(
        "import os\n"
        "from blackstart import load_case, solve_external\n"
        "from blackstart.cases import bundled_case_path\n"
        "from blackstart.milp import encode\n"
        "from blackstart.solvers import highs_cli\n"
        "case = load_case(bundled_case_path('ieee39_bt50'))\n"
        "threads = min(2, len(os.sched_getaffinity(0)))\n"
        "status, _, info = highs_cli.solve_model(encode(case).arrays(), threads=threads)\n"
        "assert status == 'optimal', info\n"
        "result = solve_external(case, timeout_s=30)\n"
        "print(result.status, result.stats.get('highs', {}).get('threads'), result.message)\n"
    )
    proc = subprocess.run(script, env=clean_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[:2] == ["optimal", str(max(1, CPUS))]


def test_a_host_that_ran_a_command_first_after_an_in_process_highs_solve_is_optimal():
    # The same, where the host's first request is a solver command's, which
    # needs no HiGHS: the host still drops the inherited scheduler before it
    # starts its owner watchdog thread.
    script = python_script(
        "import os\n"
        "from blackstart import load_case, solve_external\n"
        "from blackstart.cases import bundled_case_path\n"
        "from blackstart.milp import encode\n"
        "from blackstart.solvers import highs_cli\n"
        "case = load_case(bundled_case_path('ieee39_bt50'))\n"
        "threads = min(2, len(os.sched_getaffinity(0)))\n"
        "status, _, info = highs_cli.solve_model(encode(case).arrays(), threads=threads)\n"
        "assert status == 'optimal', info\n"
        "command = f'{sys.executable} -m blackstart.solvers.highs_cli {{mps}} {{sol}}'\n"
        "first = solve_external(case, command=command, timeout_s=30)\n"
        "assert first.status == 'optimal', first.message\n"
        "result = solve_external(case, timeout_s=30)\n"
        "assert result.stats['worker']['pid'] == first.stats['worker']['pid']\n"
        "print(result.status, result.stats.get('highs', {}).get('threads'), result.message)\n"
    )
    env = {**clean_env(), "PYTHONPATH": str(SRC)}  # for the solver command
    proc = subprocess.run(script, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[:2] == ["optimal", str(max(1, CPUS))]


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
        "    status, x, info = highs_cli.solve_model(arrays, threads=1, start=start)\n"
        "    assert info['start_objective'] == result.stats['highs']['start_objective'], name\n"
        "    assert result.ok and status == 'optimal', (name, result.message, info)\n"
        "    assert list(result.point) == x.tolist(), name\n"
        "    print(name, result.stats['highs']['threads'])\n"
    )
    proc = subprocess.run(script, env=clean_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [w for name in IEEE39 for w in (name, str(max(1, CPUS)))]


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
    assert json.loads(proc.stdout)["stats"]["highs"]["threads"] == max(1, CPUS)
