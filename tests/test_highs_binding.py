"""The contract with scipy's bundled HiGHS binding, which ``highs_cli`` loads
by file: every attribute the solve uses is pinned here, a binding that lacks
one makes the solve ERROR with its name, and a solve imports no part of
scipy but the binding."""

import subprocess

import pytest

from blackstart import load_case, solve_external
from blackstart.cases import bundled_case_path
from blackstart.milp import encode
from blackstart.solvers import external, highs_cli

from test_solver_host import clean_env, python_script

core = highs_cli._core
# (owner, attribute) for everything solve_model uses; the reset it runs first,
# ``resetGlobalScheduler``, is also the one use of highs_threads's hook at fork
USES = [
    *((core, name) for name in ("_Highs", "HighsLp", "HighsSolution", "HighsStatus",
                                "HighsModelStatus", "MatrixFormat", "HighsVarType")),
    *((core._Highs, name) for name in (
        "version", "setOptionValue", "passModel", "setSolution", "run", "getModelStatus",
        "modelStatusToString", "getInfo", "getSolution", "resetGlobalScheduler")),
    *((core.HighsLp, name) for name in (
        "num_col_", "num_row_", "col_cost_", "col_lower_", "col_upper_", "row_lower_",
        "row_upper_", "a_matrix_", "integrality_")),
    *((core.HighsSparseMatrix, name) for name in (
        "format_", "num_col_", "num_row_", "start_", "index_", "value_")),
    (core.HighsSolution, "col_value"),
    *((core.HighsInfo, name) for name in (
        "objective_function_value", "mip_node_count", "mip_gap", "mip_dual_bound")),
    (core.HighsStatus, "kOk"),
    (core.HighsStatus, "kError"),
    (core.HighsModelStatus, "kOptimal"),
    (core.MatrixFormat, "kColwise"),
    (core.HighsVarType, "kContinuous"),
    (core.HighsVarType, "kInteger"),
]


def use_id(use):
    owner, name = use
    return f"{getattr(owner, '__name__', owner)}.{name}"


def test_the_binding_is_loaded_under_its_own_name():
    assert core.__name__ == highs_cli.BINDING == "scipy.optimize._highspy._core"


@pytest.mark.parametrize("use", USES, ids=use_id)
def test_the_binding_has_every_attribute_the_solve_uses(use):
    owner, name = use
    assert hasattr(owner, name)


@pytest.fixture(scope="module")
def toy_with_start():
    case = load_case(bundled_case_path("toy_t5"))
    model = encode(case)
    return model.arrays(), external._start(model, case)


def test_the_toy_solve_reaches_every_use(toy_with_start):
    # the start, an integer column and an optimum: nothing below is skipped
    arrays, start = toy_with_start
    status, _, info = highs_cli.solve_model(arrays, start=start)
    assert status == "optimal"
    assert info["start_objective"] is not None and info["mip_node_count"] is not None


@pytest.mark.parametrize("use", USES, ids=use_id)
def test_a_missing_attribute_makes_the_solve_an_error(use, toy_with_start, monkeypatch):
    owner, name = use
    monkeypatch.delattr(owner, name)
    arrays, start = toy_with_start
    status, x, info = highs_cli.solve_model(arrays, start=start)
    assert (status, x) == ("error", None)
    assert "the HiGHS binding lacks an attribute" in info["message"]
    assert repr(name) in info["message"]


def test_a_missing_scheduler_reset_makes_the_host_solve_an_error(
        toy_cases, monkeypatch, fresh_solver_host):
    monkeypatch.delattr(core._Highs, "resetGlobalScheduler")
    result = solve_external(toy_cases["toy_t5"])
    assert result.status == "error"
    assert "'resetGlobalScheduler'" in result.message


def test_a_host_solve_imports_no_part_of_scipy_but_the_binding():
    script = python_script(
        "import blackstart as bs\n"
        "from blackstart.solvers import highs_cli\n"
        "solve = highs_cli.solve_model\n"
        "def solve_and_list(*args, **kwargs):\n"
        "    status, x, info = solve(*args, **kwargs)\n"
        "    info['scipy'] = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "    return status, x, info\n"
        "highs_cli.solve_model = solve_and_list\n"
        "result = bs.solve_external(bs.load_case(bs.bundled_case_path('toy_fc')))\n"
        "assert result.status == 'optimal', result.message\n"
        "print(*result.stats['highs']['scipy'])\n"
    )
    proc = subprocess.run(script, env=clean_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the binding registers its own submodules (``_core.cb``, say)
    binding = highs_cli.BINDING
    assert binding in proc.stdout.split()
    assert all(m == binding or m.startswith(f"{binding}.") for m in proc.stdout.split())


def test_the_solve_reports_the_highs_version(toy_external):
    version = toy_external["toy_fc"].stats["highs"]["version"]
    assert version == core._Highs().version()
    assert [int(part) for part in version.split(".")] == [
        core.HIGHS_VERSION_MAJOR, core.HIGHS_VERSION_MINOR, core.HIGHS_VERSION_PATCH]
