"""The bundled MILP front end: HiGHS through its own binding, on a model's arrays or an MPS file.

``solve_model`` takes the flat arrays of ``MilpModel.arrays()`` and reduces
them exactly, in numpy, before HiGHS sees them: it substitutes out every
column with ``lb == ub``, turns each row with one nonzero left into a bound
on its column (rounded inward for an integer column), and checks each row
with none left against its sides, then drops it, repeating to a fixpoint.
Then it substitutes out, each through a ±1 in an equality row, the
continuous zero-cost columns with two entries left: on the 39-bus cases,
the generators' outputs through their eq23g rows (Achterberg et al.,
"Presolve reductions in mixed integer programming", INFORMS J. Computing
2020). HiGHS solves what is left at zero relative gap with its own
presolve off, which on the 18-step models costs more than the solve.
Postsolve scatters HiGHS's values back into model order beside the fixed
columns' values, computes each substituted column from its equality row,
and the point is checked against the full arrays (rows, bounds and
integrality, to ``CHECK_TOL``) before it is returned. Only the
solve is reduced: the model, and its MPS export, keep the encoder's form,
and the solver host's energization fixing (``external._force_on``) only
raises bounds on the arrays it hands over; the reduction knows no case.

HiGHS is scipy's bundled binding, ``scipy/optimize/_highspy/_core``, loaded
by file when this module is imported (about 10 ms): scipy's package code,
``scipy.optimize`` among it, is never imported. ``solve_model`` builds the
reduced model's ``HighsLp`` itself (column-wise, sorted by numpy) and sets
the options ``scipy.optimize.milp`` would: presolve off, zero relative gap,
the time limit, one thread, and no console log, since a caller's stdout
may carry a JSON document. The binding is private ABI; a solve that
finds an attribute of it missing is ERROR and names the attribute.

A caller may hand ``solve_model`` a start, one value per model variable
(the solver host hands it the oracle's ``greedy_schedule`` as a point):
HiGHS is given it as its first incumbent, which spares it the search for
one. It is only a hint. HiGHS checks it, and whatever HiGHS returns goes
through the same postsolve and check; the caller still decodes, re-simulates
and validates the schedule.

A solver host (``solvers.external``), a long-lived child its owner forks
at its first solve, calls ``solve_model`` inside the whole pipeline it
runs for each request, and decodes and validates the answer there, so the
host pays the import once. Importing this module imports numpy, so callers
that must stay lean import it only where they solve.

As a command (``blackstart-solve-mps MODEL.mps OUT.sol``, or
``python -m blackstart.solvers.highs_cli MODEL.mps OUT.sol``) it reads an
MPS file, solves its arrays with ``solve_model``, and writes ``name value``
lines on optimality, the ``=infeasible=`` sentinel for a proven-infeasible
model, and exits nonzero on anything else, which is exactly the contract
``solve_external`` expects of a configured solver command: 2, with one
stderr line, for a file it cannot read or parse or a solution path it
cannot write.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
import time
from collections.abc import Sequence
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..milp import INTEGRALITY_TOL
from ..model import ModelArrays
from ..mps import MpsParseError, read_mps
from .result import ERROR, INFEASIBLE, INFEASIBLE_SENTINEL, OPTIMAL

BINDING = "scipy.optimize._highspy._core"
# ``info["status"]`` keeps scipy.optimize.milp's codes for HiGHS's model
# status: 0 optimal, 1 a time or iteration limit, 2 infeasible, 3
# unbounded, 4 anything else.
_STATUS_CODES = {"kOptimal": 0, "kTimeLimit": 1, "kIterationLimit": 1,
                 "kInfeasible": 2, "kUnbounded": 3}
_OTHER = 4
_HIGHS_OPTIMAL = _STATUS_CODES["kOptimal"]
_HIGHS_INFEASIBLE = _STATUS_CODES["kInfeasible"]
# How far the reduction lets a row side or bound be missed before it calls
# the model infeasible, and how close to an integer a bound of an integer
# column rounds to it: HiGHS's own mip_feasibility_tolerance. A start that
# misses a fixed column's value by more is dropped.
REDUCE_TOL = 1e-6
# How far the postsolved point may miss a row side, a bound or an integer:
# the margin decode allows, above HiGHS's tolerance.
CHECK_TOL = INTEGRALITY_TOL
MAX_ROUNDS = 50


def _load_binding():
    """scipy's bundled HiGHS extension module, loaded by file and registered
    in ``sys.modules`` under its own dotted name, so that an ``import
    scipy.optimize`` in the same process, before or after, shares it (an
    extension module's types register once per process)."""
    module = sys.modules.get(BINDING)
    if module is not None:
        return module
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError("HiGHS binding not found: scipy is not installed")
    folder = Path(scipy.submodule_search_locations[0], "optimize", "_highspy")
    paths = [folder / f"_core{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError(f"HiGHS binding not found in {folder}")
    spec = importlib.util.spec_from_file_location(BINDING, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[BINDING] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[BINDING]
        raise
    return module


_core = _load_binding()


class Infeasible(Exception):
    """The reduction proved the model infeasible; the message says where."""


class Csc(NamedTuple):
    """A sparse matrix stored column-wise, as HiGHS takes it: column ``j``'s
    row indices and values are ``index[start[j]:start[j + 1]]`` and
    ``value[start[j]:start[j + 1]]``, rows ascending."""

    start: np.ndarray
    index: np.ndarray
    value: np.ndarray
    shape: tuple[int, int]


class Substitution(NamedTuple):
    """The columns ``reduce_model`` substituted out, each through its pivot
    row: column ``col[s]`` is ``(rhs[s] - Σ val[e]·x[other[e]]) / coef[s]``,
    summed over the entries ``e`` with ``of[e] == s``, the pivot row's
    other entries, all in columns HiGHS is given."""

    col: np.ndarray
    coef: np.ndarray
    rhs: np.ndarray
    of: np.ndarray
    other: np.ndarray
    val: np.ndarray


class Reduced(NamedTuple):
    """What is left of a model for HiGHS, and how to put its answer back.

    ``keep`` marks the model's columns that remain (in order, they are the
    reduced model's columns); ``x`` holds the fixed columns' values, and
    ``offset`` is their share of the objective; ``sub`` gives the
    substituted columns (zero in ``x``) from the rest. ``postsolve`` puts
    HiGHS's values at ``keep``, then computes ``sub``'s columns. ``a``, the
    row sides, bounds and ``integrality`` are the reduced model's.
    """

    c: np.ndarray
    a: Csc
    row_lo: np.ndarray
    row_hi: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray
    keep: np.ndarray
    x: np.ndarray
    offset: float
    sub: Substitution

    def postsolve(self, values: Sequence[float]) -> np.ndarray:
        """The model's point from the reduced model's ``values``."""
        x, s = self.x.copy(), self.sub
        x[self.keep] = values
        x[s.col] = (s.rhs - np.bincount(s.of, weights=s.val * x[s.other],
                                        minlength=len(s.col))) / s.coef
        return x


def _numpy(arrays: ModelArrays) -> list[np.ndarray]:
    """The array fields of ``arrays`` as numpy views, without copying."""
    return [np.frombuffer(a, dtype=a.typecode) for a in arrays[:-1]]


def reduce_model(arrays: ModelArrays) -> Reduced:
    """Reduce a model exactly: fixed columns, singleton rows, empty rows,
    then columns tied to the rest by an equality row.

    Each round substitutes out the columns with ``lb == ub`` (shifting the
    sides of the rows they appear in), then checks and drops the rows with
    no nonzero left, and turns the rows with one left into bounds on its
    column; rounds repeat until one changes nothing, at most ``MAX_ROUNDS``,
    each on the entries of the rows and columns still live. ``_substitute``
    then takes out what it can through equality rows. Raises
    ``Infeasible`` for a row with no nonzero left that misses its sides, or
    a column whose bounds cross, by more than ``REDUCE_TOL``.
    """
    c, row, col, val, row_lo, row_hi, lb, ub, integer = _numpy(arrays)
    n, m = len(c), len(row_lo)
    row_lo, row_hi, lb, ub = (v.astype(float) for v in (row_lo, row_hi, lb, ub))
    integer = integer.astype(bool)
    x = np.zeros(n)
    live_col = np.ones(n, dtype=bool)
    live_row = np.ones(m, dtype=bool)
    live = val != 0
    _tighten(lb, ub, integer)
    for _ in range(MAX_ROUNDS):
        row, col, val = row[live], col[live], val[live]
        fixed = live_col & (lb == ub)
        if fixed.any():
            x[fixed] = lb[fixed]
            live_col &= ~fixed
            hit = fixed[col]
            shift = np.bincount(row[hit], weights=val[hit] * x[col[hit]], minlength=m)
            row_lo -= shift
            row_hi -= shift
            row, col, val = row[~hit], col[~hit], val[~hit]
        count = np.bincount(row, minlength=m)
        empty = live_row & (count == 0)
        missed = empty & ((row_lo > REDUCE_TOL) | (row_hi < -REDUCE_TOL))
        if missed.any():
            i = int(np.flatnonzero(missed)[0])
            raise Infeasible(f"row {i} has no free column left and misses "
                             f"[{row_lo[i]:g}, {row_hi[i]:g}]")
        single = live_row & (count == 1)
        live_row &= ~(empty | single)
        live = live_row[row]
        if single.any():
            one = single[row]
            j, a = col[one], val[one]
            lo, hi = row_lo[row[one]] / a, row_hi[row[one]] / a
            np.maximum.at(lb, j, np.where(a > 0, lo, hi))
            np.minimum.at(ub, j, np.where(a > 0, hi, lo))
            _tighten(lb, ub, integer)
        elif not (fixed.any() or empty.any()):
            break
    row, col, val = row[live], col[live], val[live]
    offset = float(c[~live_col] @ x[~live_col])
    row, col, val, sub = _substitute(c, integer, lb, ub, row_lo, row_hi, live_col, live_row,
                                     row, col, val)

    keep = live_col
    order = np.lexsort((row, col))
    row, col, val = row[order], col[order], val[order]
    if len(sub.col):  # the substitution adds entries to rows that may hold them already
        first = np.ones(len(val), dtype=bool)
        first[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1])
        val = np.add.reduceat(val, np.flatnonzero(first))
        nonzero = val != 0
        row, col, val = row[first][nonzero], col[first][nonzero], val[nonzero]
    new_col = (np.cumsum(keep) - 1)[col]
    cols = int(keep.sum())
    a = Csc(start=np.concatenate(([0], np.cumsum(np.bincount(new_col, minlength=cols)))),
            index=(np.cumsum(live_row) - 1)[row], value=val,
            shape=(int(live_row.sum()), cols))
    return Reduced(
        c=c[keep], a=a, row_lo=row_lo[live_row], row_hi=row_hi[live_row],
        lb=lb[keep], ub=ub[keep], integrality=integer[keep].astype(np.uint8),
        keep=keep, x=x, offset=offset, sub=sub,
    )


def _substitute(c, integer, lb, ub, row_lo, row_hi, live_col, live_row, row, col, val
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, Substitution]:
    """Substitute columns out through equality rows, in place on the sides
    and live masks; returns the live entries after it and the ``Substitution``.

    A column goes if it is live, continuous, has zero cost and exactly two
    live entries, one of them a ±1 in an equality row, its pivot row: at
    most one column per pivot row (the first), and none whose other row is
    a pivot row. Its other row r gets ``-(a_rj / a_ij)`` times the pivot
    row i, sides included, which cancels its entry; the pivot row keeps its
    other entries and bounds them by the column's bounds, ``b_i - a_ij·[lb,
    ub]``, and is dropped when both sides are infinite. A pivot of ±1 keeps
    the scaling exact.
    """
    n, m = len(c), len(row_lo)
    candidate = live_col & ~integer & (c == 0) & (np.bincount(col, minlength=n) == 2)
    equality = live_row & (row_lo == row_hi) & np.isfinite(row_lo)
    pivot = np.flatnonzero(candidate[col] & equality[row] & (np.abs(val) == 1))
    pivot = pivot[np.unique(col[pivot], return_index=True)[1]]  # one pivot per column
    pivot = pivot[np.unique(row[pivot], return_index=True)[1]]  # one column per pivot row
    at_pivot = np.zeros(len(val), dtype=bool)
    at_pivot[pivot] = True
    other = np.flatnonzero(candidate[col] & ~at_pivot)
    other_row, other_val = np.full(n, -1), np.zeros(n)
    other_row[col[other]], other_val[col[other]] = row[other], val[other]
    is_pivot = np.zeros(m, dtype=bool)
    is_pivot[row[pivot]] = True
    pivot = pivot[~is_pivot[other_row[col[pivot]]]]

    j, i, a = col[pivot], row[pivot], val[pivot]
    r, f, rhs = other_row[j], -other_val[j] / a, row_lo[i]
    np.add.at(row_lo, r, f * rhs)
    np.add.at(row_hi, r, f * rhs)
    row_lo[i] = rhs - np.where(a > 0, ub[j], -lb[j])
    row_hi[i] = rhs - np.where(a > 0, lb[j], -ub[j])
    live_row[i[(row_lo[i] == -np.inf) & (row_hi[i] == np.inf)]] = False
    live_col[j] = False

    s_of_row = np.full(m, -1)
    s_of_row[i] = np.arange(len(i))
    gone = ~live_col[col]
    rest = (s_of_row[row] >= 0) & ~gone  # the pivot rows' other entries
    of = s_of_row[row[rest]]
    sub = Substitution(col=j, coef=a, rhs=rhs, of=of, other=col[rest], val=val[rest])
    kept = ~gone & live_row[row]
    return (np.concatenate((row[kept], r[of])), np.concatenate((col[kept], sub.other)),
            np.concatenate((val[kept], f[of] * sub.val)), sub)


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


def solve_model(arrays: ModelArrays, time_limit: float | None = None,
                start: Sequence[float] | None = None) -> tuple[str, np.ndarray | None, dict]:
    """Solve a model, given as ``MilpModel.arrays()``, by ``reduce_model`` and HiGHS.

    ``start``, one value per model variable in ``model.names`` order (any
    sequence of floats), is handed to HiGHS as a first incumbent when it
    agrees with every column the reduction fixed (to ``REDUCE_TOL``; the
    substituted ones are not compared) and dropped otherwise.

    Returns ``(status, x, info)``. ``status`` is OPTIMAL (``x`` holds one
    value per model variable, in ``model.names`` order, and satisfies
    the full model to ``CHECK_TOL``), INFEASIBLE (proved by HiGHS or by the
    reduction) or ERROR (``x`` is None). ``info`` holds the ``status`` code
    (``_STATUS_CODES``; 2 also for the reduction's proof) and ``message``,
    the ``objective``, and the MIP's ``mip_node_count``, ``mip_gap`` and
    ``mip_dual_bound``, where the objective and the bound include the
    model's constant and the fixed columns' share; ``reduce_s`` and
    ``time_s``, the seconds spent reducing and inside HiGHS;
    ``reduced_rows`` and ``reduced_cols``, the size of the model HiGHS was
    handed; ``substituted``, the count of columns substituted out through
    an equality row; HiGHS's ``version``; and
    ``start_objective``, the objective of the start HiGHS was handed (None
    when it was handed none). A value that was not reached is None.
    """
    info = {"status": None, "message": "", "objective": None, "mip_node_count": None,
            "mip_gap": None, "mip_dual_bound": None, "reduce_s": None, "time_s": None,
            "reduced_rows": None, "reduced_cols": None, "substituted": None,
            "version": None, "start_objective": None}
    started = time.perf_counter()
    try:
        reduced = reduce_model(arrays)
    except Infeasible as exc:
        info.update(status=_HIGHS_INFEASIBLE, message=f"infeasible by reduction: {exc}",
                    reduce_s=time.perf_counter() - started)
        return INFEASIBLE, None, info
    rows, cols = reduced.a.shape
    info.update(reduce_s=time.perf_counter() - started, reduced_rows=rows, reduced_cols=cols,
                substituted=len(reduced.sub.col))
    offset = arrays.constant + reduced.offset

    values: list[float] = []
    if cols == 0:  # the reduction fixed every column; HiGHS takes no empty model
        info.update(status=_HIGHS_OPTIMAL, message="solved by the reduction", time_s=0.0,
                    objective=offset, mip_node_count=0, mip_gap=0.0, mip_dual_bound=offset)
    else:
        if start is not None:
            start = np.asarray(start, dtype=float)
            fixed = ~reduced.keep
            fixed[reduced.sub.col] = False
            if len(start) != len(fixed) or np.any(np.abs(start[fixed] - reduced.x[fixed])
                                                  > REDUCE_TOL):
                start = None
            else:
                start = start[reduced.keep]
        started = time.perf_counter()
        try:
            values = _run_highs(reduced, time_limit, start, offset, info)
        except AttributeError as exc:
            info["message"] = f"the HiGHS binding lacks an attribute: {exc}"
            return ERROR, None, info
        finally:
            info["time_s"] = time.perf_counter() - started
        if info["status"] == _HIGHS_INFEASIBLE:
            return INFEASIBLE, None, info
        if values is None:
            return ERROR, None, info
    x = reduced.postsolve(values)

    bad = violations(arrays, x)
    if bad is not None:
        info["message"] = f"postsolved point violates the model: {bad}"
        return ERROR, None, info
    return OPTIMAL, x, info


def _run_highs(reduced: Reduced, time_limit: float | None, start: np.ndarray | None,
               offset: float, info: dict) -> list[float] | None:
    """Solve the reduced model with a fresh ``_Highs``, from ``start`` if it
    is not None; fills ``info``'s version, start_objective, status, message,
    objective and MIP fields, and returns the values of an optimum (None
    otherwise)."""
    highs = _core._Highs()
    info["version"] = highs.version()
    # One thread: on reduced models of a few thousand rows at most, a second
    # one gains nothing, and costs 2-4x whenever the root needs cuts.
    options = {"log_to_console": False, "presolve": "off", "mip_rel_gap": 0.0,
               "threads": 1}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    ok = _core.HighsStatus.kOk
    for name, value in options.items():
        if highs.setOptionValue(name, value) != ok:
            info.update(status=_OTHER, message=f"HiGHS refused option {name}={value!r}")
            return None

    rows, cols = reduced.a.shape
    lp = _core.HighsLp()
    lp.num_col_, lp.num_row_ = cols, rows
    lp.col_cost_ = reduced.c.tolist()
    lp.col_lower_ = reduced.lb.tolist()
    lp.col_upper_ = reduced.ub.tolist()
    lp.row_lower_ = reduced.row_lo.tolist()
    lp.row_upper_ = reduced.row_hi.tolist()
    matrix = lp.a_matrix_
    matrix.format_ = _core.MatrixFormat.kColwise
    matrix.num_col_, matrix.num_row_ = cols, rows
    matrix.start_ = reduced.a.start.tolist()
    matrix.index_ = reduced.a.index.tolist()
    matrix.value_ = reduced.a.value.tolist()
    kinds = (_core.HighsVarType.kContinuous, _core.HighsVarType.kInteger)
    lp.integrality_ = [kinds[k] for k in reduced.integrality.tolist()]
    if highs.passModel(lp) == _core.HighsStatus.kError:
        info.update(status=_OTHER, message="HiGHS rejected the model")
        return None
    if start is not None:
        solution = _core.HighsSolution()
        solution.col_value = start.tolist()
        if highs.setSolution(solution) != _core.HighsStatus.kError:
            info["start_objective"] = float(reduced.c @ start) + offset

    highs.run()
    model_status = highs.getModelStatus()
    info.update(status=_STATUS_CODES.get(model_status.name, _OTHER),
                message=highs.modelStatusToString(model_status))
    if model_status != _core.HighsModelStatus.kOptimal:
        return None
    result = highs.getInfo()
    info["objective"] = result.objective_function_value + offset
    if reduced.integrality.any():
        info.update(mip_node_count=int(result.mip_node_count), mip_gap=float(result.mip_gap),
                    mip_dual_bound=result.mip_dual_bound + offset)
    return highs.getSolution().col_value


def reset_scheduler() -> None:
    """Drop HiGHS's thread scheduler, so that the next solve starts one with
    its own thread count.

    The scheduler is global to a process, and a solve with another thread
    count than the running scheduler's fails (HiGHS's default count is half
    the CPUs). A forked child inherits its parent's without the worker
    threads, where even the same count may wait forever on a dead worker.
    The call is the binding's ``Highs::resetGlobalScheduler``.
    """
    _core._Highs.resetGlobalScheduler(True)


def solve_mps_file(mps_path: str | Path, sol_path: str | Path) -> int:
    model = read_mps(mps_path)
    status, x, info = solve_model(model.arrays())
    if status == INFEASIBLE:
        Path(sol_path).write_text(INFEASIBLE_SENTINEL + "\n")
        return 0
    if status != OPTIMAL:
        print(f"solve failed: status={info['status']} {info['message']}", file=sys.stderr)
        return 1
    lines = [
        f"# objective {info['objective']!r}",
        *(f"{name} {float(value)!r}" for name, value in zip(model.names, x)),
    ]
    Path(sol_path).write_text("\n".join(lines) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: blackstart-solve-mps MODEL.mps OUT.sol", file=sys.stderr)
        return 2
    try:
        return solve_mps_file(argv[0], argv[1])
    except MpsParseError as exc:
        print(f"bad MPS file {argv[0]}: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"blackstart-solve-mps: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
