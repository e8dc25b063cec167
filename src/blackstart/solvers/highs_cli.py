"""The bundled MILP front end: HiGHS through scipy, on a model's arrays or an MPS file.

``solve_model`` takes the flat arrays of ``MilpModel.arrays()`` and reduces
them exactly, in numpy, before HiGHS sees them: it substitutes out every
column with ``lb == ub``, turns each row with one nonzero left into a bound
on its column (rounded inward for an integer column), and checks each row
with none left against its sides, then drops it, repeating to a fixpoint
(Achterberg et al., "Presolve reductions in mixed integer programming",
INFORMS J. Computing 2020). HiGHS solves what is left at zero relative gap
with its own presolve off, which on these models costs more than the solve.
Postsolve scatters HiGHS's values back into model order beside the fixed
columns' values, and the point is checked against the full arrays (rows,
bounds and integrality, to ``CHECK_TOL``) before it is returned. Only the
solve is reduced: the model, and its MPS export, keep the paper's form.

``solve_external`` calls ``solve_model`` on the solver host, the one
long-lived child each process forks at its first default solve, so that
process pays the import once. Importing this module imports scipy, so
callers that must stay lean import it only where they solve.

As a command (``blackstart-solve-mps MODEL.mps OUT.sol``, or
``python -m blackstart.solvers.highs_cli MODEL.mps OUT.sol``) it reads an
MPS file, solves its arrays with ``solve_model``, and writes ``name value``
lines on optimality, the ``=infeasible=`` sentinel for a proven-infeasible
model, and exits nonzero on anything else, which is exactly the contract
``solve_external`` expects of a configured solver command.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from ..milp import INTEGRALITY_TOL, ModelArrays
from ..mps import read_mps
from .result import ERROR, INFEASIBLE, OPTIMAL

# scipy.optimize.milp's status codes that have a meaning of their own here.
_HIGHS_OPTIMAL = 0
_HIGHS_INFEASIBLE = 2
# How far the reduction lets a row side or bound be missed before it calls
# the model infeasible, and how close to an integer a bound of an integer
# column rounds to it: HiGHS's own mip_feasibility_tolerance.
REDUCE_TOL = 1e-6
# How far the postsolved point may miss a row side, a bound or an integer:
# the margin decode allows, above HiGHS's tolerance.
CHECK_TOL = INTEGRALITY_TOL
MAX_ROUNDS = 50


class Infeasible(Exception):
    """The reduction proved the model infeasible; the message says where."""


class Reduced(NamedTuple):
    """What is left of a model for HiGHS, and how to put its answer back.

    ``keep`` marks the model's columns that remain (in order, they are the
    reduced model's columns); ``x`` holds the removed columns' values, so
    that postsolve is ``x[keep] = x_reduced``, and ``offset`` is their share
    of the objective. ``a``, the row sides, bounds and ``integrality`` are
    the reduced model's.
    """

    c: np.ndarray
    a: sparse.csc_matrix
    row_lo: np.ndarray
    row_hi: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray
    keep: np.ndarray
    x: np.ndarray
    offset: float


def _numpy(arrays: ModelArrays) -> list[np.ndarray]:
    """The array fields of ``arrays`` as numpy views, without copying."""
    return [np.frombuffer(a, dtype=a.typecode) for a in arrays[:-1]]


def reduce_model(arrays: ModelArrays) -> Reduced:
    """Reduce a model exactly: fixed columns, singleton rows, empty rows.

    Each round substitutes out the columns with ``lb == ub`` (shifting the
    sides of the rows they appear in), then checks and drops the rows with
    no nonzero left, and turns the rows with one left into bounds on its
    column; rounds repeat until one changes nothing, at most ``MAX_ROUNDS``.
    Raises ``Infeasible`` for a row with no nonzero left that misses its
    sides, or a column whose bounds cross, by more than ``REDUCE_TOL``.
    """
    c, row, col, val, row_lo, row_hi, lb, ub, integer = _numpy(arrays)
    n, m = len(c), len(row_lo)
    row_lo, row_hi, lb, ub = (v.astype(float) for v in (row_lo, row_hi, lb, ub))
    integer = integer.astype(bool)
    x = np.zeros(n)
    live_col = np.ones(n, dtype=bool)
    live_row = np.ones(m, dtype=bool)
    nonzero = val != 0
    _tighten(lb, ub, integer)
    for _ in range(MAX_ROUNDS):
        fixed = live_col & (lb == ub)
        if fixed.any():
            x[fixed] = lb[fixed]
            live_col &= ~fixed
            hit = fixed[col] & nonzero
            shift = np.bincount(row[hit], weights=val[hit] * x[col[hit]], minlength=m)
            row_lo -= shift
            row_hi -= shift
        entry = nonzero & live_col[col] & live_row[row]
        count = np.bincount(row[entry], minlength=m)
        empty = live_row & (count == 0)
        missed = empty & ((row_lo > REDUCE_TOL) | (row_hi < -REDUCE_TOL))
        if missed.any():
            i = int(np.flatnonzero(missed)[0])
            raise Infeasible(f"row {i} has no free column left and misses "
                             f"[{row_lo[i]:g}, {row_hi[i]:g}]")
        single = live_row & (count == 1)
        live_row &= ~(empty | single)
        if single.any():
            one = entry & single[row]
            j, a = col[one], val[one]
            lo, hi = row_lo[row[one]] / a, row_hi[row[one]] / a
            np.maximum.at(lb, j, np.where(a > 0, lo, hi))
            np.minimum.at(ub, j, np.where(a > 0, hi, lo))
            _tighten(lb, ub, integer)
        elif not (fixed.any() or empty.any()):
            break

    keep = live_col
    entry = nonzero & keep[col] & live_row[row]
    new_row = np.cumsum(live_row) - 1
    new_col = np.cumsum(keep) - 1
    a = sparse.csc_matrix((val[entry], (new_row[row[entry]], new_col[col[entry]])),
                          shape=(int(live_row.sum()), int(keep.sum())))
    return Reduced(
        c=c[keep], a=a, row_lo=row_lo[live_row], row_hi=row_hi[live_row],
        lb=lb[keep], ub=ub[keep], integrality=integer[keep].astype(np.uint8),
        keep=keep, x=x, offset=float(c[~keep] @ x[~keep]),
    )


def _tighten(lb: np.ndarray, ub: np.ndarray, integer: np.ndarray) -> None:
    """Round integer columns' bounds inward, raise ``Infeasible`` for bounds
    that cross by more than ``REDUCE_TOL`` or leave no finite value, and
    close bounds that cross by less at their midpoint."""
    lb[integer] = np.ceil(lb[integer] - REDUCE_TOL)
    ub[integer] = np.floor(ub[integer] + REDUCE_TOL)
    crossed = lb > ub
    no_value = (lb - ub > REDUCE_TOL) | (lb == np.inf) | (ub == -np.inf)
    if no_value.any():
        j = int(np.flatnonzero(no_value)[0])
        raise Infeasible(f"column {j} has bounds [{lb[j]:g}, {ub[j]:g}]")
    lb[crossed] = ub[crossed] = (lb[crossed] + ub[crossed]) / 2


def violations(arrays: ModelArrays, x: np.ndarray) -> str | None:
    """What ``x`` violates of the full model (rows, bounds, integrality,
    finiteness) by more than ``CHECK_TOL``, or None if nothing."""
    _, row, col, val, row_lo, row_hi, lb, ub, integer = _numpy(arrays)
    tol = CHECK_TOL
    activity = np.bincount(row, weights=val * x[col], minlength=len(row_lo))
    found = {
        "row": (activity < row_lo - tol) | (activity > row_hi + tol),
        "bound": (x < lb - tol) | (x > ub + tol),
        "integrality": (integer != 0) & (np.abs(x - np.round(x)) > tol),
        "non-finite value": ~np.isfinite(x),
    }
    bad = [f"{kind} {np.flatnonzero(v)[:5].tolist()}" for kind, v in found.items() if v.any()]
    return "; ".join(bad) or None


def solve_model(arrays: ModelArrays, time_limit: float | None = None
                ) -> tuple[str, np.ndarray | None, dict]:
    """Solve a model, given as ``MilpModel.arrays()``, by ``reduce_model`` and HiGHS.

    Returns ``(status, x, info)``. ``status`` is OPTIMAL (``x`` holds one
    value per model variable, in ``model.variables`` order, and satisfies
    the full model to ``CHECK_TOL``), INFEASIBLE (proved by HiGHS or by the
    reduction) or ERROR (``x`` is None). ``info`` holds HiGHS's ``status``
    code (2 also for the reduction's proof) and ``message``, the
    ``objective``, and the MIP's ``mip_node_count``, ``mip_gap`` and
    ``mip_dual_bound``, where the objective and the bound include the
    model's constant and the fixed columns' share; ``reduce_s`` and
    ``time_s``, the seconds spent reducing and inside HiGHS; and
    ``reduced_rows`` and ``reduced_cols``, the size of the model HiGHS was
    handed. A value that was not reached is None.
    """
    info = {"status": None, "message": "", "objective": None, "mip_node_count": None,
            "mip_gap": None, "mip_dual_bound": None, "reduce_s": None, "time_s": None,
            "reduced_rows": None, "reduced_cols": None}
    started = time.perf_counter()
    try:
        reduced = reduce_model(arrays)
    except Infeasible as exc:
        info.update(status=_HIGHS_INFEASIBLE, message=f"infeasible by reduction: {exc}",
                    reduce_s=time.perf_counter() - started)
        return INFEASIBLE, None, info
    rows, cols = reduced.a.shape
    info.update(reduce_s=time.perf_counter() - started, reduced_rows=rows, reduced_cols=cols)
    offset = arrays.constant + reduced.offset

    x = reduced.x
    if cols == 0:  # the reduction fixed every column; HiGHS takes no empty model
        info.update(status=_HIGHS_OPTIMAL, message="solved by the reduction", time_s=0.0,
                    objective=offset, mip_node_count=0, mip_gap=0.0, mip_dual_bound=offset)
    else:
        options = {"mip_rel_gap": 0.0, "presolve": False}
        if time_limit is not None:
            options["time_limit"] = time_limit
        constraints = []
        if rows:
            constraints = [LinearConstraint(reduced.a, reduced.row_lo, reduced.row_hi)]
        started = time.perf_counter()
        res = milp(
            c=reduced.c,
            constraints=constraints,
            integrality=reduced.integrality,
            bounds=Bounds(reduced.lb, reduced.ub),
            options=options,
        )
        info.update(
            time_s=time.perf_counter() - started,
            status=int(res.status),
            message=str(res.message),
            objective=_plus(res.fun, offset),
            mip_node_count=None if res.get("mip_node_count") is None else int(res.mip_node_count),
            mip_gap=None if res.get("mip_gap") is None else float(res.mip_gap),
            mip_dual_bound=_plus(res.get("mip_dual_bound"), offset),
        )
        if res.status == _HIGHS_INFEASIBLE:
            return INFEASIBLE, None, info
        if res.status != _HIGHS_OPTIMAL or res.x is None:
            return ERROR, None, info
        x[reduced.keep] = res.x

    bad = violations(arrays, x)
    if bad is not None:
        info["message"] = f"postsolved point violates the model: {bad}"
        return ERROR, None, info
    return OPTIMAL, x, info


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
