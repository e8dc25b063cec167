"""The exact reduction in front of HiGHS, its postsolve and its check, on
small hand-made models."""

import math
from array import array

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from blackstart.milp import ModelArrays
from blackstart.solvers import highs_cli
from blackstart.solvers.highs_cli import Infeasible, reduce_model, solve_model

INF = math.inf


def model(c, rows, lb, ub, integer=(), constant=0.0):
    """``ModelArrays`` from the objective, rows as ``(lo, {col: coef}, hi)``,
    the bounds and the indices of the integer columns."""
    entries = [(i, j, a) for i, (_, terms, _) in enumerate(rows) for j, a in terms.items()]
    return ModelArrays(
        c=array("d", c),
        row=array("i", [i for i, _, _ in entries]),
        col=array("i", [j for _, j, _ in entries]),
        val=array("d", [a for _, _, a in entries]),
        row_lo=array("d", [lo for lo, _, _ in rows]),
        row_hi=array("d", [hi for _, _, hi in rows]),
        lb=array("d", lb),
        ub=array("d", ub),
        integrality=array("b", [j in integer for j in range(len(c))]),
        constant=constant,
    )


def test_a_fixed_column_shifts_both_row_sides():
    arrays = model(c=[5, 1, 1], rows=[(1, {0: 3, 1: 1, 2: 1}, 9)],
                   lb=[2, 0, 0], ub=[2, 10, 10])
    reduced = reduce_model(arrays)
    assert reduced.keep.tolist() == [False, True, True]
    assert (reduced.row_lo.tolist(), reduced.row_hi.tolist()) == ([-5], [3])
    assert reduced.x[0] == 2 and reduced.offset == 10
    status, x, info = solve_model(arrays)
    assert status == "optimal"
    assert x.tolist() == [2, 0, 0]
    assert info["objective"] == 10


def test_a_singleton_row_with_a_negative_coefficient_swaps_its_sides():
    arrays = model(c=[1, 1], rows=[(2, {0: -2}, 6), (-INF, {0: 1, 1: 1}, 8)],
                   lb=[-10, 0], ub=[10, 10])
    reduced = reduce_model(arrays)
    assert (reduced.lb.tolist(), reduced.ub.tolist()) == ([-3, 0], [-1, 10])
    assert reduced.a.shape == (1, 2)


def test_integer_bounds_are_rounded_inward():
    arrays = model(c=[1, -1], rows=[(1, {0: 2}, 7), (0, {0: 1, 1: -1}, INF)],
                   lb=[0, 0], ub=[10, 10], integer={0})
    reduced = reduce_model(arrays)
    assert (reduced.lb[0], reduced.ub[0]) == (1, 3)
    status, x, _ = solve_model(arrays)
    assert status == "optimal"
    assert x.tolist() == [1, 1]


def test_a_chain_of_fixings_leaves_nothing_for_highs():
    # x0 is fixed; that leaves row 0 a singleton, which fixes x1, which
    # leaves row 1 a singleton, which fixes x2
    arrays = model(c=[1, 1, 1], rows=[(3, {0: 1, 1: 1}, 3), (5, {1: 1, 2: 1}, 5)],
                   lb=[1, 0, 0], ub=[1, 10, 10], constant=0.5)
    reduced = reduce_model(arrays)
    assert reduced.a.shape == (0, 0)
    assert reduced.x.tolist() == [1, 2, 3]
    status, x, info = solve_model(arrays)
    assert status == "optimal"
    assert x.tolist() == [1, 2, 3]
    assert info["objective"] == 6.5
    assert (info["reduced_rows"], info["reduced_cols"]) == (0, 0)


@pytest.mark.parametrize("arrays, where", [
    # both columns fixed: the row is left empty with 2 >= 3 to meet
    (model(c=[0, 0], rows=[(3, {0: 1, 1: 1}, INF)], lb=[1, 1], ub=[1, 1]), "row 0"),
    # the singleton row asks x0 >= 2 of a column bounded by 1
    (model(c=[0], rows=[(2, {0: 1}, INF)], lb=[0], ub=[1]), "column 0"),
    # crossed bounds from the start
    (model(c=[0], rows=[], lb=[1], ub=[0]), "column 0"),
])
def test_the_reduction_proves_infeasibility(arrays, where):
    with pytest.raises(Infeasible, match=where):
        reduce_model(arrays)
    status, x, info = solve_model(arrays)
    assert (status, x) == ("infeasible", None)
    assert info["status"] == 2
    assert "infeasible by reduction" in info["message"]


def test_a_point_that_violates_a_dropped_row_is_an_error(monkeypatch):
    # row 0 becomes the bound x0 <= 1 and is dropped; HiGHS's stand-in
    # answers x0 = 5, inside x0's own bounds but not row 0
    arrays = model(c=[1, 1], rows=[(-INF, {0: 1}, 1), (1, {0: 1, 1: 1}, INF)],
                   lb=[0, 0], ub=[10, 10])
    calls = []

    def stub(**kwargs):
        calls.append(kwargs)
        return OptimizeResult(status=0, message="stub", x=np.array([5.0, 0.0]), fun=5.0,
                              mip_node_count=0, mip_gap=0.0, mip_dual_bound=5.0)

    monkeypatch.setattr(highs_cli, "milp", stub)
    status, x, info = solve_model(arrays)
    assert (status, x) == ("error", None)
    assert "postsolved point violates the model: row [0]" in info["message"]
    assert calls[0]["options"]["presolve"] is False
