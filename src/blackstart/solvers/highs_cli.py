"""The bundled MILP front end: HiGHS through scipy, on a model's arrays or an MPS file.

``solve_model`` wraps the flat arrays of ``MilpModel.arrays()`` with numpy,
without copying, and solves at zero relative gap. ``solve_external`` calls
it on the solver host, the one long-lived child each process forks at its
first default solve, so that process pays the import once. Importing this
module imports scipy, so callers that must stay lean import it only where
they solve.

As a command (``blackstart-solve-mps MODEL.mps OUT.sol``, or
``python -m blackstart.solvers.highs_cli MODEL.mps OUT.sol``) it reads an
MPS file, solves its arrays with ``solve_model``, and writes ``name value``
lines on optimality, the ``=infeasible=`` sentinel for a proven-infeasible
model, and exits nonzero on anything else, which is exactly the contract
``solve_external`` expects of a configured solver command.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from ..milp import ModelArrays
from ..mps import read_mps
from .result import ERROR, INFEASIBLE, OPTIMAL

# scipy.optimize.milp's status codes that have a meaning of their own here.
_HIGHS_OPTIMAL = 0
_HIGHS_INFEASIBLE = 2


def solve_model(arrays: ModelArrays, time_limit: float | None = None
                ) -> tuple[str, np.ndarray | None, dict]:
    """Solve a model, given as ``MilpModel.arrays()``, with HiGHS.

    Returns ``(status, x, info)``. ``status`` is OPTIMAL (``x`` holds one
    value per model variable, in ``model.variables`` order), INFEASIBLE or
    ERROR (``x`` is None). ``info`` holds HiGHS's ``status`` code and
    ``message``, the ``objective``, and the MIP's ``mip_node_count``,
    ``mip_gap`` and ``mip_dual_bound``; the objective and the bound include
    the model's constant, and a value HiGHS did not report is None.
    """
    def wrap(a):
        return np.frombuffer(a, dtype=a.typecode)

    n, m = len(arrays.c), len(arrays.row_lo)
    constraints = []
    if m:
        a = sparse.csc_matrix((wrap(arrays.val), (wrap(arrays.row), wrap(arrays.col))),
                              shape=(m, n))
        constraints = [LinearConstraint(a, wrap(arrays.row_lo), wrap(arrays.row_hi))]

    options = {"mip_rel_gap": 0.0}
    if time_limit is not None:
        options["time_limit"] = time_limit
    res = milp(
        c=wrap(arrays.c),
        constraints=constraints,
        integrality=wrap(arrays.integrality),
        bounds=Bounds(wrap(arrays.lb), wrap(arrays.ub)),
        options=options,
    )

    info = {
        "status": int(res.status),
        "message": str(res.message),
        "objective": _plus(res.fun, arrays.constant),
        "mip_node_count": None if res.get("mip_node_count") is None else int(res.mip_node_count),
        "mip_gap": None if res.get("mip_gap") is None else float(res.mip_gap),
        "mip_dual_bound": _plus(res.get("mip_dual_bound"), arrays.constant),
    }
    if res.status == _HIGHS_INFEASIBLE:
        return INFEASIBLE, None, info
    if res.status != _HIGHS_OPTIMAL or res.x is None:
        return ERROR, None, info
    return OPTIMAL, res.x, info


def _plus(value, constant: float) -> float | None:
    return None if value is None else float(value) + constant


def solve_mps_file(mps_path: str | Path, sol_path: str | Path) -> int:
    model = read_mps(mps_path)
    status, x, info = solve_model(model.arrays())
    if status == INFEASIBLE:
        Path(sol_path).write_text("=infeasible=\n")
        return 0
    if status != OPTIMAL:
        print(f"solve failed: status={info['status']} {info['message']}", file=sys.stderr)
        return 1
    lines = [
        f"# objective {info['objective']!r}",
        *(f"{v.name} {float(x[i])!r}" for i, v in enumerate(model.variables)),
    ]
    Path(sol_path).write_text("\n".join(lines) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: blackstart-solve-mps MODEL.mps OUT.sol", file=sys.stderr)
        return 2
    return solve_mps_file(argv[0], argv[1])


if __name__ == "__main__":
    sys.exit(main())
