"""Lifecycle of the solver host: one forked child per process serves its
default solves, is replaced after a crash, a timeout or an interrupt, is
never shared with a forked child, and does not outlive its owner."""

import copy
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from blackstart import load_case
from blackstart.milp import EncodingError
from blackstart.solvers import ENV_SOLVER_CMD, external, highs_cli, solve_external

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


def test_only_a_new_hosts_first_solve_reports_its_import(toy_cases, fresh_solver_host):
    first = solve_external(toy_cases["toy_t5"])
    second = solve_external(toy_cases["toy_t5"])
    assert first.ok and second.ok and host_pid(first) == host_pid(second)
    assert first.stats["worker"]["import_s"] > 0
    assert second.stats["worker"]["import_s"] == 0.0


def test_the_owner_times_the_solve(toy_cases, monkeypatch, fresh_solver_host):
    """``wall_time_s`` runs from the request to the reply, so it includes
    what the host does around the pipeline: the transport, and a new host's
    HiGHS import."""
    solve = external._solve_here

    def late(*args):
        time.sleep(0.3)
        return solve(*args)

    monkeypatch.setattr(external, "_solve_here", late)
    stats = solve_external(toy_cases["toy_t5"]).stats
    assert stats["wall_time_s"] >= 0.3 + sum(stats["stages"].values())


def test_a_host_that_exits_is_replaced(toy_cases, monkeypatch, fresh_solver_host):
    def exit_at_once(arrays, time_limit=None, start=None):
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
    def sleep(arrays, time_limit=None, start=None):
        time.sleep(60)

    monkeypatch.setattr(highs_cli, "solve_model", sleep)
    late = solve_external(toy_cases["toy_t5"], timeout_s=0.5)
    assert late.status == "error" and "timed out" in late.message
    assert not running(host_pid(late))
    monkeypatch.undo()
    after = solve_external(toy_cases["toy_t5"])
    assert after.status == "optimal", after.message
    assert host_pid(after) != host_pid(late)


def test_only_the_highs_solve_has_a_deadline(toy_cases, monkeypatch, fresh_solver_host):
    """The owner kills a host only when HiGHS outlives ``timeout_s``; an
    enumeration (a sweep's ``--backend enum``) or a slow stage around
    HiGHS may take longer."""
    def slow(stage):
        def run(*args, **kwargs):
            time.sleep(1.5)
            return stage(*args, **kwargs)
        return run

    monkeypatch.setattr(external, "WORKER_GRACE_S", 0.0)
    monkeypatch.setattr(external, "solve_enumeration", slow(external.solve_enumeration))
    monkeypatch.setattr(external, "validate", slow(external.validate))
    case = toy_cases["toy_t5"]
    enum, highs = (external.solve_on_hosts([case], 1, backend=backend, timeout_s=0.5)[0]
                   for backend in ("enum", "external"))
    assert enum.status == "optimal", enum.message
    assert highs.status == "optimal", highs.message
    assert highs.stats["stages"]["validate"] >= 1.5


def serve_after(deaths, pids):
    """A host loop that logs its pid to ``pids`` and exits with code 5 on
    reading its first request, for the first ``deaths`` hosts."""
    serve = external._serve

    def host(conn, owner_end, owner):
        with open(pids, "a") as log:
            print(os.getpid(), file=log)
        if len(pids.read_text().split()) > deaths:
            return serve(conn, owner_end, owner)
        conn.recv()
        os._exit(5)

    return host


def test_a_case_whose_host_dies_before_taking_it_goes_to_a_fresh_host(
        toy_cases, tmp_path, monkeypatch, fresh_solver_host):
    pids = tmp_path / "hosts"
    monkeypatch.setattr(external, "_serve", serve_after(1, pids))
    result = solve_external(toy_cases["toy_t5"])
    assert result.status == "optimal", result.message
    dead, served = map(int, pids.read_text().split())
    assert host_pid(result) == served and not running(dead)


def test_a_case_goes_to_a_fresh_host_once(toy_cases, tmp_path, monkeypatch, fresh_solver_host):
    pids = tmp_path / "hosts"
    monkeypatch.setattr(external, "_serve", serve_after(2, pids))
    result = solve_external(toy_cases["toy_t5"])
    assert result.status == "error"
    assert result.message == "solver host exited with code 5 before replying"
    assert len(pids.read_text().split()) == 2
    assert not multiprocessing.active_children()


def test_a_host_killed_just_before_a_solve_is_replaced(toy_cases, fresh_solver_host):
    """The host can still look alive, and even read the request, when the
    owner sends it; the case goes to a fresh host."""
    for _ in range(3):
        victim = host_pid(solve_external(toy_cases["toy_t5"]))
        os.kill(victim, signal.SIGKILL)
        after = solve_external(toy_cases["toy_t5"])
        assert after.status == "optimal", after.message
        assert host_pid(after) != victim


def test_the_hosts_traceback_comes_with_its_exception(minimal_two_bus_doc, fresh_solver_host):
    doc = copy.deepcopy(minimal_two_bus_doc)
    doc["generators"][0]["ramp_minutes"] = 200
    with pytest.raises(EncodingError, match="horizon") as raised:
        solve_external(load_case(doc))
    note, = raised.value.__notes__
    assert note.startswith("Traceback (most recent call last):")
    assert "in _solve_here" in note and "in encode" in note


def test_an_interrupted_solve_kills_the_host(toy_cases, monkeypatch, fresh_solver_host):
    def sleep(arrays, time_limit=None, start=None):
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
    return run_owner(tmp_path,
                     "import blackstart as bs\n"
                     "case = bs.load_case(bs.bundled_case_path('toy_t5'))\n"
                     "pids = {bs.solve_external(case).stats['worker']['pid'] for _ in range(2)}\n"
                     "assert len(pids) == 1, pids\n"
                     "print(*pids, flush=True)\n"
                     + then)


def run_owner(tmp_path, body):
    """A fresh interpreter running ``body``, and the host pid it prints first."""
    owner = subprocess.Popen(python_script(body), env=clean_env(), cwd=tmp_path,
                             stdout=subprocess.PIPE, text=True)
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


def test_the_host_exits_when_its_owner_is_killed_mid_solve(tmp_path):
    """A busy host reads no EOF while HiGHS runs; it notices within
    ``OWNER_CHECK_S`` that its parent is gone."""
    owner, host = run_owner(tmp_path,
                            "import os, time\n"
                            "import blackstart as bs\n"
                            "from blackstart.solvers import highs_cli\n"
                            "stdout = os.dup(1)  # a host's own fd 1 is this fd 2\n"
                            "def sleep(arrays, time_limit=None, start=None):\n"
                            "    os.write(stdout, f'{os.getpid()}\\n'.encode())\n"
                            "    time.sleep(120)\n"
                            "highs_cli.solve_model = sleep\n"
                            "bs.solve_external(bs.load_case(bs.bundled_case_path('toy_t5')))\n")
    try:
        assert host is not None and running(host)
        owner.kill()
        owner.wait(timeout=10)
        assert gone_within(host, 5)
    finally:
        owner.kill()
        owner.wait()
        owner.stdout.close()
        if host is not None and running(host):
            os.kill(host, signal.SIGKILL)


def test_the_host_exits_when_its_owner_is_killed_inside_highs(tmp_path):
    """The same, with the host inside ``_Highs.run`` on a hard model (a
    market split instance, which HiGHS does not close in a minute): HiGHS
    releases the GIL, so the host's thread exits it mid-run. The host writes
    ``returned`` if ``run`` ever returns."""
    owner, host = run_owner(tmp_path,
                            "import os, random\n"
                            "from array import array\n"
                            "import blackstart as bs\n"
                            "from blackstart.model import ModelArrays\n"
                            "from blackstart.solvers import highs_cli\n"
                            "rng, rows, cols = random.Random(1), 4, 36\n"
                            "a = [[rng.randint(0, 99) for _ in range(cols)] for _ in range(rows)]\n"
                            "sides = array('d', [sum(r) // 2 for r in a])\n"
                            "hard = ModelArrays(\n"
                            "    c=array('d', [0.0] * cols),\n"
                            "    row=array('i', [i for i in range(rows) for _ in range(cols)]),\n"
                            "    col=array('i', [j for _ in range(rows) for j in range(cols)]),\n"
                            "    val=array('d', [v for r in a for v in r]), row_lo=sides,\n"
                            "    row_hi=sides, lb=array('d', [0.0] * cols),\n"
                            "    ub=array('d', [1.0] * cols), integrality=array('b', [1] * cols),\n"
                            "    constant=0.0)\n"
                            "Highs, solve = highs_cli._core._Highs, highs_cli.solve_model\n"
                            "run = Highs.run\n"
                            "stdout = os.dup(1)  # a host's own fd 1 is this fd 2\n"
                            "def announce_and_run(self):\n"
                            "    os.write(stdout, f'{os.getpid()}\\n'.encode())\n"
                            "    run(self)\n"
                            "    open('returned', 'w').close()\n"
                            "Highs.run = announce_and_run\n"
                            "highs_cli.solve_model = lambda *args, **kwargs: solve(\n"
                            "    hard, time_limit=60)\n"
                            "bs.solve_external(bs.load_case(bs.bundled_case_path('toy_t5')))\n")
    try:
        assert host is not None and running(host)
        time.sleep(0.5)
        owner.kill()
        owner.wait(timeout=10)
        assert gone_within(host, 5)
        assert not (tmp_path / "returned").exists()
    finally:
        owner.kill()
        owner.wait()
        owner.stdout.close()
        if host is not None and running(host):
            os.kill(host, signal.SIGKILL)
