"""The exact reduction in front of HiGHS, its postsolve and its check, on
small hand-made models."""

import hashlib
import json
import math
from array import array
from pathlib import Path
from types import SimpleNamespace

import pytest

from blackstart import encode, load_case
from blackstart.cases import bundled_case_path, bundled_cases
from blackstart.model import ModelArrays
from blackstart.solvers.external import _force_on
from blackstart.solvers.highs_cli import _core, Infeasible, reduce_model, solve_model

from conftest import DRAWN_DOCUMENTS

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


# min x0 + 2·x1 with a continuous zero-cost y, bounded [0, 5], tied to them
# by an equality row, its pivot row, and in one other row: y = 0.5 + x0 + x1
# and y + x0 >= 4, so the reduced model has 2·x0 + x1 >= 3.5 and
# x0 + x1 <= 4.5, and the optimum is x0 = 2, x1 = 0, y = 2.5
@pytest.mark.parametrize("pivot", [
    (0.5, {0: -1, 1: -1, 2: 1}, 0.5),
    (-0.5, {0: 1, 1: 1, 2: -1}, -0.5),
])
def test_a_column_is_substituted_through_its_pivot_row(pivot):
    arrays = model(c=[1, 2, 0], rows=[pivot, (4, {0: 1, 2: 1}, INF)],
                   lb=[0, 0, 0], ub=[10, 10, 5], integer={0, 1})
    reduced = reduce_model(arrays)
    assert reduced.keep.tolist() == [True, True, False]
    assert reduced.sub.col.tolist() == [2]
    lo, hi = (-4.5, 0.5) if pivot[0] > 0 else (-0.5, 4.5)
    assert (reduced.row_lo.tolist(), reduced.row_hi.tolist()) == ([lo, 3.5], [hi, INF])
    status, x, info = solve_model(arrays)
    assert status == "optimal"
    assert x.tolist() == [2, 0, 2.5]
    assert info["objective"] == 2
    assert (info["reduced_rows"], info["reduced_cols"], info["substituted"]) == (2, 2, 1)


def substituted(c, rows, integer=()):
    """The columns ``reduce_model`` substitutes out of a hand-made model
    whose columns are in [0, 10], and x0 and x1 integer."""
    n = len(c)
    return reduce_model(model(c, rows, [0] * n, [10] * n, {0, 1, *integer})).sub.col.tolist()


@pytest.mark.parametrize("kind, c, rows, integer, want", [
    ("a candidate", [0, 0, 0], [(0, {0: 1, 1: 1, 2: -1}, 0), (-INF, {0: 1, 2: 1}, 6)], (), [2]),
    ("integer", [0, 0, 0], [(0, {0: 1, 1: 1, 2: -1}, 0), (-INF, {0: 1, 2: 1}, 6)], {2}, []),
    ("nonzero cost", [0, 0, 1], [(0, {0: 1, 1: 1, 2: -1}, 0), (-INF, {0: 1, 2: 1}, 6)], (), []),
    ("three entries", [0, 0, 0], [(0, {0: 1, 1: 1, 2: -1}, 0), (-INF, {0: 1, 2: 1}, 6),
                                  (-INF, {1: 1, 2: 1}, 7)], (), []),
    ("|pivot| != 1", [0, 0, 0], [(0, {0: 1, 1: 1, 2: -2}, 0), (-INF, {0: 1, 2: 1}, 6)], (), []),
])
def test_only_a_column_that_meets_every_condition_goes(kind, c, rows, integer, want):
    assert substituted(c, rows, integer) == want


def test_two_candidates_for_one_pivot_row_substitute_only_the_first():
    rows = [(0, {0: 1, 1: 1, 2: -1, 3: 1}, 0), (-INF, {0: 1, 2: 1}, 6), (-INF, {1: 1, 3: 1}, 7)]
    assert substituted([0] * 4, rows) == [2]


def test_a_candidate_whose_other_row_is_a_pivot_row_stays():
    # column 2's other row, row 1, is the pivot row of column 3
    rows = [(0, {0: 1, 1: 1, 2: -1}, 0), (1, {0: 1, 2: 1, 3: -1}, 1), (-INF, {1: 1, 3: 1}, 9)]
    assert substituted([0] * 4, rows) == [3]


def test_the_pivot_row_of_a_free_column_is_dropped():
    # y = x0 + x1 + 1 is free, so its pivot row bounds nothing once it is
    # out; y + x0 >= 3 becomes 2·x0 + x1 >= 2
    arrays = model(c=[1, 1, 0], rows=[(-1, {0: 1, 1: 1, 2: -1}, -1), (3, {0: 1, 2: 1}, INF)],
                   lb=[0, 0, -INF], ub=[10, 10, INF], integer={0, 1})
    reduced = reduce_model(arrays)
    assert reduced.sub.col.tolist() == [2]
    assert reduced.a.shape == (1, 2)
    assert (reduced.row_lo.tolist(), reduced.row_hi.tolist()) == ([2], [INF])
    status, x, info = solve_model(arrays)
    assert status == "optimal"
    assert x.tolist() == [1, 0, 2]
    assert info["objective"] == 1


class StubHighs:
    """A stand-in for the binding's ``_Highs`` that answers ``col_value`` as
    an optimum and records the options and the start it was given."""

    col_value: list = []
    options: dict = {}
    starts: list = []

    def version(self):
        return "stub"

    def setOptionValue(self, name, value):
        self.options[name] = value
        return _core.HighsStatus.kOk

    def passModel(self, lp):
        return _core.HighsStatus.kOk

    def setSolution(self, solution):
        self.starts.append(list(solution.col_value))
        return _core.HighsStatus.kOk

    def run(self):
        return _core.HighsStatus.kOk

    def getModelStatus(self):
        return _core.HighsModelStatus.kOptimal

    def modelStatusToString(self, status):
        return "stub"

    def getInfo(self):
        value = float(sum(self.col_value))
        return SimpleNamespace(objective_function_value=value, mip_node_count=0,
                               mip_gap=0.0, mip_dual_bound=value)

    def getSolution(self):
        return SimpleNamespace(col_value=self.col_value)


@pytest.fixture()
def stub_highs(monkeypatch):
    monkeypatch.setattr(StubHighs, "options", {})
    monkeypatch.setattr(StubHighs, "starts", [])
    monkeypatch.setattr(_core, "_Highs", StubHighs)
    return StubHighs


def test_a_point_that_violates_a_dropped_row_is_an_error(stub_highs, monkeypatch):
    # row 0 becomes the bound x0 <= 1 and is dropped; HiGHS's stand-in
    # answers x0 = 5, inside x0's own bounds but not row 0
    arrays = model(c=[1, 1], rows=[(-INF, {0: 1}, 1), (1, {0: 1, 1: 1}, INF)],
                   lb=[0, 0], ub=[10, 10])
    monkeypatch.setattr(stub_highs, "col_value", [5.0, 0.0])
    status, x, info = solve_model(arrays)
    assert (status, x) == ("error", None)
    assert "postsolved point violates the model: row [0]" in info["message"]
    assert stub_highs.options["presolve"] == "off"


def test_a_start_is_checked_only_on_the_fixed_columns(stub_highs, monkeypatch):
    # x0 is fixed at 1 and y (column 3) is substituted out through row 0;
    # HiGHS gets x1 and x2
    arrays = model(c=[0, 1, 1, 0], rows=[(0, {0: 1, 1: 1, 2: 1, 3: -1}, 0),
                                         (-INF, {1: 1, 3: 1}, 8)],
                   lb=[1, 0, 0, 0], ub=[1, 10, 10, 10])
    monkeypatch.setattr(stub_highs, "col_value", [0.0, 0.0])
    for start, kept in [([1, 2, 3, 99], True), ([1, 2, 3, 6], True), ([0, 2, 3, 6], False)]:
        stub_highs.starts.clear()
        status, x, info = solve_model(arrays, start=start)
        assert status == "optimal" and info["substituted"] == 1
        assert x.tolist() == [1, 0, 0, 1]
        assert stub_highs.starts == ([[2, 3]] if kept else [])
        assert (info["start_objective"] is not None) == kept


REDUCED_SHA256 = json.loads((Path(__file__).parent / "data" / "reduced_sha256.json").read_text())


def test_reduced_digests_cover_the_bundled_and_drawn_cases():
    assert sorted(REDUCED_SHA256) == sorted([*bundled_cases(), *DRAWN_DOCUMENTS])


def reduced_digest(name):
    """The sha256 of HiGHS's input for a bundled or drawn case, the reduced
    model of the arrays with the solver host's energization fixing, or
    "infeasible" where the reduction proves the case infeasible (its
    message names row and column numbers)."""
    case = load_case(DRAWN_DOCUMENTS.get(name) or bundled_case_path(name))
    model = encode(case)
    arrays = model.arrays()
    _force_on(model, case, arrays)
    try:
        r = reduce_model(arrays)
    except Infeasible:
        return "infeasible"
    h = hashlib.sha256()
    for a in (r.c, r.a.start, r.a.index, r.a.value, r.row_lo, r.row_hi, r.lb, r.ub,
              r.integrality):
        h.update(a.tobytes())
    h.update(repr(r.offset).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(REDUCED_SHA256))
def test_what_highs_is_given_is_pinned(name):
    """HiGHS's input for each bundled and drawn case keeps its recorded
    bytes: an encoder change that leaves this digest in place hands HiGHS
    the same problem."""
    assert reduced_digest(name) == REDUCED_SHA256[name]
