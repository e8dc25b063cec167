"""Lifecycle of the solver host: one forked child per process serves its
default solves, is replaced after a crash, a timeout or an interrupt, is
never shared with a forked child, and does not outlive its owner."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from blackstart.solvers import ENV_SOLVER_CMD, highs_cli, solve_external

from conftest import SRC


def running(pid):
    """Whether ``pid`` is a live process (a zombie is not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def gone_within(pid, seconds):
    deadline = time.monotonic() + seconds
    while running(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def python_script(body):
    """argv for a fresh interpreter with this checkout's ``src`` on its path."""
    return [sys.executable, "-c", f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{body}"]


def clean_env():
    return {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", ENV_SOLVER_CMD)}


def host_pid(result):
    return result.stats["worker"]["pid"]


def test_solves_in_a_row_share_one_host(toy_cases):
    first = solve_external(toy_cases["toy_t5"])
    second = solve_external(toy_cases["toy_path3"])
    assert first.ok and second.ok
    assert host_pid(first) == host_pid(second) != os.getpid()
    assert second.stats["worker"]["maxrss_mb"] > 0


def test_a_host_that_exits_is_replaced(toy_cases, monkeypatch, fresh_solver_host):
    def exit_at_once(arrays, time_limit=None):
        os._exit(3)

    monkeypatch.setattr(highs_cli, "solve_model", exit_at_once)
    crashed = solve_external(toy_cases["toy_t5"])
    assert crashed.status == "error"
    assert "code 3" in crashed.message
    monkeypatch.undo()
    after = solve_external(toy_cases["toy_t5"])
    assert after.status == "optimal", after.message
    assert host_pid(after) != host_pid(crashed)
    assert not running(host_pid(crashed))


def test_a_host_that_times_out_is_replaced(toy_cases, monkeypatch, fresh_solver_host):
    def sleep(arrays, time_limit=None):
        time.sleep(60)

    monkeypatch.setattr(highs_cli, "solve_model", sleep)
    late = solve_external(toy_cases["toy_t5"], timeout_s=0.5)
    assert late.status == "error" and "timed out" in late.message
    assert not running(host_pid(late))
    monkeypatch.undo()
    after = solve_external(toy_cases["toy_t5"])
    assert after.status == "optimal", after.message
    assert host_pid(after) != host_pid(late)


def test_an_interrupted_solve_kills_the_host(toy_cases, monkeypatch, fresh_solver_host):
    def sleep(arrays, time_limit=None):
        time.sleep(60)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    monkeypatch.setattr(highs_cli, "solve_model", sleep)
    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            solve_external(toy_cases["toy_t5"])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - started < 10
    assert not multiprocessing.active_children()  # killed and reaped
    monkeypatch.undo()
    assert solve_external(toy_cases["toy_t5"]).status == "optimal"


def test_a_forked_child_solves_on_its_own_host():
    """The child forks its own host, exits normally (running the exit
    handlers), and the owner's host goes on serving."""
    script = python_script(
        "import os\n"
        "import blackstart as bs\n"
        "case = bs.load_case(bs.bundled_case_path('toy_t5'))\n"
        "first = bs.solve_external(case)\n"
        "r, w = os.pipe()\n"
        "child = os.fork()\n"
        "if child == 0:\n"
        "    result = bs.solve_external(case)\n"
        "    os.write(w, f\"{result.status} {result.stats['worker']['pid']}\".encode())\n"
        "    sys.exit(0)\n"
        "os.close(w)\n"
        "status, child_host = os.read(r, 100).decode().split()\n"
        "assert os.waitpid(child, 0)[1] == 0\n"
        "again = bs.solve_external(case)\n"
        "host = first.stats['worker']['pid']\n"
        "assert status == 'optimal', status\n"
        "assert int(child_host) != host\n"
        "assert again.status == 'optimal', again.message\n"
        "assert again.stats['worker']['pid'] == host\n"
    )
    proc = subprocess.run(script, env=clean_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def start_owner(tmp_path, then):
    """A fresh interpreter that solves twice, prints its host's pid, then runs ``then``."""
    owner = subprocess.Popen(python_script(
        "import blackstart as bs\n"
        "case = bs.load_case(bs.bundled_case_path('toy_t5'))\n"
        "pids = {bs.solve_external(case).stats['worker']['pid'] for _ in range(2)}\n"
        "assert len(pids) == 1, pids\n"
        "print(*pids, flush=True)\n"
        + then
    ), env=clean_env(), cwd=tmp_path, stdout=subprocess.PIPE, text=True)
    line = owner.stdout.readline()
    host = int(line) if line.strip() else None
    return owner, host


def test_the_host_is_gone_when_its_owner_exits(tmp_path):
    owner, host = start_owner(tmp_path, "")
    try:
        assert owner.wait(timeout=10) == 0
        assert host is not None and not running(host)
    finally:
        owner.kill()
        owner.wait()
        owner.stdout.close()
        if host is not None and running(host):
            os.kill(host, signal.SIGKILL)


def test_the_host_exits_when_its_owner_is_killed(tmp_path):
    owner, host = start_owner(tmp_path, "import time\ntime.sleep(120)\n")
    try:
        assert host is not None and running(host)
        owner.kill()
        owner.wait(timeout=10)
        assert gone_within(host, 10)
    finally:
        owner.kill()
        owner.wait()
        owner.stdout.close()
        if host is not None and running(host):
            os.kill(host, signal.SIGKILL)
