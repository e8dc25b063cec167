"""Lifecycle of the sweep pool: one pool per process serves every sweep
with the same worker count, environment and directory; it is replaced when
any of these change, when it fails or when it lost a worker, never shared
with a forked child, and gone when its owner is."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from blackstart.analysis import SweepSpec, sweep
from blackstart.cases import bundled_case_path
from blackstart.cli import main
from blackstart.solvers import ENV_SOLVER_CMD

from test_solver_host import clean_env, gone_within, python_script, running

KILL_WORKER = "sh -c 'kill -9 $PPID'"  # a solver command that kills the pool worker running it


def toy_spec(toy_cases, **fields):
    return SweepSpec(case=toy_cases["toy_fc"], axis="fc_capacity", values=[10, 30], **fields)


def host_pids(result):
    return {row.stats["worker"]["pid"] for row in result.rows}


def assert_optimal(result):
    assert [row.status for row in result.rows] == ["optimal"] * len(result.rows), \
        [row.message for row in result.rows]


def test_consecutive_sweeps_keep_their_hosts(toy_cases, fresh_solver_host):
    spec = toy_spec(toy_cases)
    first, second = sweep(spec), sweep(spec)
    assert_optimal(first)
    assert_optimal(second)
    assert host_pids(first) == host_pids(second)
    spec.workers = 2
    third, fourth = sweep(spec), sweep(spec)
    assert_optimal(fourth)
    assert len(host_pids(third) | host_pids(fourth)) <= 2


def test_the_pool_has_no_more_workers_than_scenarios(toy_cases, fresh_solver_host):
    result = sweep(toy_spec(toy_cases, workers=64))
    assert_optimal(result)
    assert len(host_pids(result)) <= 2
    assert len(multiprocessing.active_children()) <= 2


def test_a_dead_pool_worker_ends_in_error_rows(toy_cases, fresh_solver_host):
    spec = toy_spec(toy_cases, workers=2, solver_command=KILL_WORKER)
    broken = sweep(spec)
    for row in broken.rows:
        assert row.status == "error"
        assert row.message.startswith("pool: BrokenProcessPool: "), row.message
    spec.solver_command = None
    assert_optimal(sweep(spec))


@pytest.mark.parametrize("signum", [signal.SIGKILL, signal.SIGINT])
def test_a_pool_worker_that_died_between_sweeps_is_replaced(toy_cases, signum,
                                                            fresh_solver_host):
    """An idle worker can die of an OOM kill or of a Ctrl-C at a terminal;
    the next sweep runs on a fresh pool, whether or not the old pool's
    manager thread has seen the death yet."""
    spec = toy_spec(toy_cases, workers=2)
    first = sweep(spec)
    workers = multiprocessing.active_children()
    # Let the workers go idle: a Ctrl-C that lands while a worker is still
    # handing back its result is caught there, and the worker lives on.
    time.sleep(0.2)
    os.kill(workers[0].pid, signum)
    assert gone_within(workers[0].pid, 10)
    second = sweep(spec)
    assert_optimal(second)
    assert not host_pids(first) & host_pids(second)
    assert not [worker for worker in workers if worker.is_alive()]


def test_a_dead_pool_worker_is_a_failed_sweep_on_the_command_line(tmp_path, capsys,
                                                                  fresh_solver_host):
    rc = main(["sweep", "--case", str(bundled_case_path("toy_fc")), "--axis", "fc_capacity",
               "--values", "10,20", "--workers", "2", "--solver-cmd", KILL_WORKER,
               "--out-dir", str(tmp_path)])
    assert rc == 3
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "Average,error,error"


def test_environment_changes_reach_the_next_sweep(toy_cases, monkeypatch, fresh_solver_host):
    spec = toy_spec(toy_cases, workers=2)
    for row in sweep(spec).rows:
        assert "worker" in row.stats and "solver_command" not in row.stats
    monkeypatch.setenv(ENV_SOLVER_CMD, f"{sys.executable} -m blackstart.solvers.highs_cli "
                                       "{mps} {sol}")
    on_command = sweep(spec)
    assert_optimal(on_command)
    for row in on_command.rows:
        assert "blackstart.solvers.highs_cli" in row.stats["solver_command"]
        assert "worker" not in row.stats
    monkeypatch.delenv(ENV_SOLVER_CMD)
    back = sweep(spec)
    assert_optimal(back)
    for row in back.rows:
        assert "worker" in row.stats and "solver_command" not in row.stats


def test_a_new_directory_starts_a_new_pool(toy_cases, tmp_path, monkeypatch, fresh_solver_host):
    spec = toy_spec(toy_cases)
    before = host_pids(sweep(spec))
    monkeypatch.chdir(tmp_path)
    after = sweep(spec)
    assert_optimal(after)
    assert not before & host_pids(after)


def test_an_interrupted_sweep_is_followed_by_one_that_succeeds(toy_cases, fresh_solver_host):
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    slow = toy_spec(toy_cases, workers=2, solver_command="sleep 2")
    slow.values = [10, 20, 30, 40]
    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            sweep(slow)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - started < 10
    assert not multiprocessing.active_children()  # the pool was shut down
    assert_optimal(sweep(toy_spec(toy_cases, workers=2)))


def test_ctrl_c_stops_the_running_scenarios(toy_cases, fresh_solver_host):
    """Ctrl-C at a terminal reaches the caller and every pool worker; a
    worker's running scenario stops at once, even when its solver command
    would ignore the signal for 30 s."""
    def ctrl_c(signum, frame):
        for worker in multiprocessing.active_children():
            os.kill(worker.pid, signal.SIGINT)
        raise KeyboardInterrupt

    stuck = toy_spec(toy_cases, workers=2, solver_command="sh -c 'trap \"\" INT; exec sleep 30'")
    previous = signal.signal(signal.SIGALRM, ctrl_c)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            sweep(stuck)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - started < 10
    assert not multiprocessing.active_children()
    assert_optimal(sweep(toy_spec(toy_cases, workers=2)))


SWEEP_SCRIPT = (
    "import os, multiprocessing, threading\n"
    "import blackstart as bs\n"
    "from blackstart import analysis\n"
    "case = bs.load_case(bs.bundled_case_path('toy_fc'))\n"
    "spec = analysis.SweepSpec(case=case, axis='fc_capacity', values=[10, 30], workers=2)\n"
    "def hosts():\n"
    "    result = analysis.sweep(spec)\n"
    "    assert all(r.status == 'optimal' for r in result.rows), result.rows\n"
    "    return {r.stats['worker']['pid'] for r in result.rows}\n"
)


def run_script(body, tmp_path):
    return subprocess.run(python_script(SWEEP_SCRIPT + body), env=clean_env(), cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)


def test_a_forked_child_sweeps_on_its_own_pool(tmp_path):
    """The child starts its own pool, exits normally (running the exit
    handlers), and the owner's pool goes on serving with the same hosts."""
    proc = run_script(
        "spec.workers = 1\n"
        "first = hosts()\n"
        "r, w = os.pipe()\n"
        "child = os.fork()\n"
        "if child == 0:\n"
        "    os.write(w, ' '.join(map(str, hosts())).encode())\n"
        "    sys.exit(0)\n"
        "os.close(w)\n"
        "child_hosts = {int(p) for p in os.read(r, 100).decode().split()}\n"
        "assert os.waitpid(child, 0)[1] == 0\n"
        "assert child_hosts and not child_hosts & first, (child_hosts, first)\n"
        "assert hosts() == first\n",
        tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_a_process_that_sweeps_twice_exits_cleanly(tmp_path):
    proc = run_script(
        "pids = hosts() | hosts()\n"
        "pids |= {p.pid for p in multiprocessing.active_children()}\n"
        "print(*pids)\n",
        tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    pids = [int(p) for p in proc.stdout.split()]
    assert len(pids) >= 2  # the pool workers and their hosts
    assert not [pid for pid in pids if running(pid)]


def test_a_pytest_run_that_sweeps_exits_cleanly(tmp_path):
    """A pool still alive at exit must be shut down before module teardown:
    freed during it, the pool prints an ignored exception from its weakref
    callback. A pytest run is a process where that happens."""
    test = Path(__file__).with_name("test_cli.py")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           f"{test}::test_sweep_verb"],
                          env=clean_env(), cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout
    assert "Exception ignored" not in proc.stdout + proc.stderr, proc.stderr


def test_a_host_forked_beside_the_pool_threads_serves_and_exits(tmp_path):
    """The pool keeps its manager and queue-feeder threads between sweeps,
    so the caller's own host is forked while they run."""
    proc = run_script(
        "hosts()\n"
        "assert threading.active_count() >= 3, threading.enumerate()\n"
        "pids = {bs.solve_external(case).stats['worker']['pid'] for _ in range(2)}\n"
        "assert len(pids) == 1, pids\n"
        "hosts()\n"
        "print(*pids)\n",
        tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert not running(int(proc.stdout))


def test_the_pool_exits_when_its_owner_is_killed(tmp_path):
    owner = subprocess.Popen(python_script(
        SWEEP_SCRIPT
        + "pids = hosts() | {bs.solve_external(case).stats['worker']['pid']}\n"
        "pids |= {p.pid for p in multiprocessing.active_children()}\n"
        "print(*pids, flush=True)\n"
        "import time\n"
        "time.sleep(120)\n"
    ), env=clean_env(), cwd=tmp_path, stdout=subprocess.PIPE, text=True)
    pids = []
    try:
        pids = [int(p) for p in owner.stdout.readline().split()]
        assert len(pids) >= 3  # the pool workers, their hosts and the owner's host
        assert all(running(pid) for pid in pids)
        owner.kill()
        owner.wait(timeout=10)
        assert all(gone_within(pid, 10) for pid in pids)
    finally:
        owner.kill()
        owner.wait()
        owner.stdout.close()
        for pid in pids:
            if running(pid):
                os.kill(pid, signal.SIGKILL)
