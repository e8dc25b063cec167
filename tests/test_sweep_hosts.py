"""Sweeps on the solver hosts: a process's hosts serve every sweep and solve
while its pid, environment and directory stay the same, and are replaced
when any of these change; a host that dies, times out or is busy when the
caller is interrupted fails only its own scenario and is replaced; a forked
child never uses its parent's hosts, and the hosts are gone when their owner is."""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from blackstart.analysis import SweepSpec, sweep
from blackstart.cases import bundled_case_path
from blackstart.cli import main
from blackstart.solvers import ENV_SOLVER_CMD, highs_cli
from blackstart.solvers.external import stop_solver_host

from test_solver_host import clean_env, gone_within, python_script, running

KILL_HOST = "sh -c 'kill -9 $PPID'"  # a solver command that kills the host running it


def toy_spec(toy_cases, values=(10, 30), **fields):
    return SweepSpec(case=toy_cases["toy_fc"], axis="fc_capacity", values=list(values), **fields)


def host_pids(result):
    return {row.stats["worker"]["pid"] for row in result.rows}


def assert_optimal(result):
    assert [row.status for row in result.rows] == ["optimal"] * len(result.rows), \
        [row.message for row in result.rows]


def children():
    return {p.pid for p in multiprocessing.active_children()}


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


def test_a_sweep_forks_no_more_hosts_than_scenarios(toy_cases, fresh_solver_host):
    result = sweep(toy_spec(toy_cases, workers=64))
    assert_optimal(result)
    assert children() == host_pids(result) and len(children()) == 2


def test_a_sweep_leaves_only_its_hosts_and_no_thread(toy_cases, fresh_solver_host):
    spec = SweepSpec(case=toy_cases["toy_fc"], axis="fc_capacity",
                     values=[5, 10, 15, 20, 25, 30, 40, 50], workers=2)
    result = sweep(spec)
    assert_optimal(result)
    assert threading.active_count() == 1, threading.enumerate()
    assert children() == host_pids(result) and len(children()) == 2
    stop_solver_host()
    assert not multiprocessing.active_children()


def test_a_dead_host_fails_only_its_own_scenario(toy_cases, tmp_path, monkeypatch,
                                                 fresh_solver_host):
    """The first scenario to reach HiGHS kills its host; the others solve,
    and the dead host's slot gets a fresh host."""
    flag = tmp_path / "killed"
    solve = highs_cli.solve_model

    def die_once(*args, **kwargs):
        try:
            os.close(os.open(flag, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return solve(*args, **kwargs)
        os._exit(9)

    monkeypatch.setattr(highs_cli, "solve_model", die_once)
    result = sweep(toy_spec(toy_cases, [10, 20, 30, 40], workers=2))
    failed = [row for row in result.rows if row.status != "optimal"]
    assert len(failed) == 1, [row.message for row in result.rows]
    assert failed[0].status == "error"
    assert failed[0].message == "solver host exited with code 9 before replying"
    dead = failed[0].stats["worker"]["pid"]
    assert not running(dead)
    served = {row.stats["worker"]["pid"] for row in result.rows if row is not failed[0]}
    assert dead not in served and len(served) == 2
    assert children() == served


def test_a_dead_host_is_a_failed_sweep_on_the_command_line(tmp_path, capsys,
                                                           fresh_solver_host):
    rc = main(["sweep", "--case", str(bundled_case_path("toy_fc")), "--axis", "fc_capacity",
               "--values", "10,20", "--workers", "2", "--solver-cmd", KILL_HOST,
               "--out-dir", str(tmp_path)])
    assert rc == 3
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "Average,error,error"
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("signum, replaced", [(signal.SIGKILL, True), (signal.SIGINT, False)])
def test_a_host_killed_between_sweeps_is_replaced(toy_cases, signum, replaced,
                                                  fresh_solver_host):
    """An idle host can die of an OOM kill; the next sweep forks a fresh
    one instead of failing a scenario on it, whether or not the host has
    been reaped. A Ctrl-C does not reach a host from a terminal, which
    signals only the owner's process group, and one sent to the host
    itself is ignored."""
    spec = toy_spec(toy_cases, workers=2)
    first = sweep(spec)
    victim = min(host_pids(first))
    os.kill(victim, signum)
    if replaced:
        assert gone_within(victim, 10)
    second = sweep(spec)
    assert_optimal(second)
    assert (victim in host_pids(second)) is not replaced
    assert len(host_pids(first) & host_pids(second)) == (1 if replaced else 2)


def test_environment_changes_reach_the_next_sweep(toy_cases, monkeypatch, fresh_solver_host):
    spec = toy_spec(toy_cases, workers=2)
    on_highs = sweep(spec)
    for row in on_highs.rows:
        assert "highs" in row.stats and "solver_command" not in row.stats
    monkeypatch.setenv(ENV_SOLVER_CMD, f"{sys.executable} -m blackstart.solvers.highs_cli "
                                       "{mps} {sol}")
    on_command = sweep(spec)
    assert_optimal(on_command)
    for row in on_command.rows:
        assert "blackstart.solvers.highs_cli" in row.stats["solver_command"]
        assert "highs" not in row.stats
    assert not host_pids(on_highs) & host_pids(on_command)
    monkeypatch.delenv(ENV_SOLVER_CMD)
    back = sweep(spec)
    assert_optimal(back)
    for row in back.rows:
        assert "highs" in row.stats and "solver_command" not in row.stats
    assert not host_pids(on_command) & host_pids(back)


def test_a_new_directory_forks_new_hosts(toy_cases, tmp_path, monkeypatch, fresh_solver_host):
    spec = toy_spec(toy_cases)
    before = host_pids(sweep(spec))
    monkeypatch.chdir(tmp_path)
    after = sweep(spec)
    assert_optimal(after)
    assert not before & host_pids(after)


def interrupt_after(seconds, spec, handler):
    """Run ``sweep(spec)`` with ``handler`` on SIGALRM after ``seconds``;
    returns how long the sweep took to raise ``KeyboardInterrupt``."""
    previous = signal.signal(signal.SIGALRM, handler)
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            sweep(spec)
        return time.perf_counter() - started
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_an_interrupted_sweep_is_followed_by_one_that_succeeds(toy_cases, fresh_solver_host):
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    slow = toy_spec(toy_cases, [10, 20, 30, 40], workers=2, solver_command="sleep 2")
    assert interrupt_after(0.5, slow, interrupt) < 10
    assert not multiprocessing.active_children()  # both hosts were busy, so killed
    assert_optimal(sweep(toy_spec(toy_cases, workers=2)))


def test_ctrl_c_stops_the_running_scenarios(toy_cases, tmp_path, fresh_solver_host):
    """Ctrl-C reaches the caller, and the hosts ignore it; the caller kills
    each busy host with its solver command at once, even a command that
    would ignore the signal for 30 s."""
    def ctrl_c(signum, frame):
        for host in multiprocessing.active_children():
            os.kill(host.pid, signal.SIGINT)
        raise KeyboardInterrupt

    pids = tmp_path / "commands"
    stuck = toy_spec(toy_cases, workers=2,
                     solver_command=f"sh -c 'trap \"\" INT; echo $$ >> {pids}; exec sleep 30'")
    assert interrupt_after(0.5, stuck, ctrl_c) < 10
    assert not multiprocessing.active_children()
    commands = [int(pid) for pid in pids.read_text().split()]
    assert len(commands) == 2
    assert all(gone_within(pid, 5) for pid in commands)
    assert_optimal(sweep(toy_spec(toy_cases, workers=2)))


SWEEP_SCRIPT = (
    "import os, multiprocessing\n"
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


def test_a_forked_child_sweeps_on_its_own_hosts(tmp_path):
    """The child forks its own hosts, exits normally (running the exit
    handlers), and the owner's hosts go on serving."""
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
    assert len(pids) == 2  # the two hosts
    assert not [pid for pid in pids if running(pid)]


def test_a_pytest_run_that_sweeps_exits_cleanly(tmp_path):
    """Hosts still alive at exit are reaped without noise, also at the end
    of a pytest run."""
    test = Path(__file__).with_name("test_cli.py")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           f"{test}::test_sweep_verb"],
                          env=clean_env(), cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout
    assert "Exception ignored" not in proc.stdout + proc.stderr, proc.stderr


def start_owner(tmp_path, body):
    """A fresh interpreter that runs ``body`` and prints pids on its first line."""
    owner = subprocess.Popen(python_script(SWEEP_SCRIPT + body), env=clean_env(), cwd=tmp_path,
                             stdout=subprocess.PIPE, text=True)
    return owner, [int(p) for p in owner.stdout.readline().split()]


def kill_owner(owner, pids):
    owner.kill()
    owner.wait(timeout=10)
    try:
        return all(gone_within(pid, 5) for pid in pids)
    finally:
        owner.stdout.close()
        for pid in pids:
            if running(pid):
                os.kill(pid, signal.SIGKILL)


def test_the_hosts_exit_when_their_owner_is_killed(tmp_path):
    owner, pids = start_owner(
        tmp_path,
        "pids = hosts() | {bs.solve_external(case).stats['worker']['pid']}\n"
        "pids |= {p.pid for p in multiprocessing.active_children()}\n"
        "print(*pids, flush=True)\n"
        "import time\n"
        "time.sleep(120)\n")
    assert len(pids) == 2  # a plain solve runs on the sweep's first host
    assert all(running(pid) for pid in pids)
    assert kill_owner(owner, pids)


def test_busy_hosts_and_their_commands_exit_when_their_owner_is_killed(tmp_path):
    """A host inside a solver command reads no EOF; its thread kills the
    host's process group, the command with it."""
    started = tmp_path / "started"  # each command's pid and its host's
    owner = subprocess.Popen(python_script(
        SWEEP_SCRIPT
        + f"spec.solver_command = \"sh -c 'echo $$ $PPID >> {started}; exec sleep 60'\"\n"
        "analysis.sweep(spec)\n"), env=clean_env(), cwd=tmp_path,
        stdout=subprocess.PIPE, text=True)
    deadline = time.monotonic() + 60
    while len((started.read_text() if started.exists() else "").splitlines()) < 2:
        assert time.monotonic() < deadline and owner.poll() is None
        time.sleep(0.05)
    pids = [int(p) for p in started.read_text().split()]
    assert len(set(pids)) == 4 and all(running(pid) for pid in pids)
    assert kill_owner(owner, pids)
