"""Differential test of the reduced solve: ``highs_cli.solve_model`` against a
plain ``scipy.optimize.milp`` call (HiGHS with its default presolve) on the
unreduced arrays, on drawn small cases and, under ``-m slow``, on many more
drawn cases and the bundled 39-bus cases.

The two must agree on status and on the objective within 1e-6 relative, and
the reduced solve's point must satisfy the full model and decode to a
schedule that validates.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from blackstart import decode, encode, load_case, validate
from blackstart.solvers.highs_cli import solve_model

from conftest import load_bundled
from strategies import case_documents

REL_TOL = 1e-6


def plain_milp(arrays):
    """``("optimal", objective)`` or ``("infeasible", None)`` from HiGHS with
    its defaults on the arrays as they are."""
    c, row, col, val, row_lo, row_hi, lb, ub, integer = (
        np.frombuffer(a, dtype=a.typecode) for a in arrays[:-1])
    a = sparse.csc_matrix((val, (row, col)), shape=(len(row_lo), len(c)))
    res = milp(c=c, constraints=[LinearConstraint(a, row_lo, row_hi)] if len(row_lo) else [],
               integrality=integer, bounds=Bounds(lb, ub), options={"mip_rel_gap": 0.0})
    assert res.status in (0, 2), res.message
    return ("optimal", res.fun + arrays.constant) if res.status == 0 else ("infeasible", None)


def assert_solvers_agree(case):
    model = encode(case)
    arrays = model.arrays()
    status, x, info = solve_model(arrays)
    want_status, want_objective = plain_milp(arrays)
    assert status == want_status, info["message"]
    if status != "optimal":
        return
    assert math.isclose(info["objective"], want_objective, rel_tol=REL_TOL, abs_tol=1e-9)
    x = x.tolist()
    assert len(x) == len(model.names)
    assert model.check_assignment(x) == []
    assert math.isclose(model.objective_of(x), want_objective, rel_tol=REL_TOL, abs_tol=1e-9)
    assert validate(case, decode(model, x, case)).passed


PROPERTY = dict(deadline=None, database=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


@settings(max_examples=40, **PROPERTY)
@given(case_documents())
def test_reduced_solve_agrees_with_plain_highs(doc):
    assert_solvers_agree(load_case(doc))


@pytest.mark.slow
@settings(max_examples=1000, **PROPERTY)
@given(case_documents())
def test_reduced_solve_agrees_with_plain_highs_on_many_cases(doc):
    assert_solvers_agree(load_case(doc))


@pytest.mark.slow
@pytest.mark.parametrize("name", ["ieee39_nores", "ieee39_fc50", "ieee39_bt50", "ieee39_bt30"])
def test_reduced_solve_agrees_with_plain_highs_on_ieee39(name):
    assert_solvers_agree(load_bundled(name))
