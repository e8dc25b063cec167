"""Differential tests of the solver host's solve.

``highs_cli.solve_model`` on the arrays with the host's energization fixing
(``external._force_on``) against a plain ``scipy.optimize.milp`` call
(HiGHS with its default presolve) on the unreduced, unforced arrays, on
drawn small cases and, under ``-m slow``, on many more drawn cases and the
bundled 39-bus cases. The two must agree on status and on the objective
within 1e-6 relative, the reduced solve's point must satisfy the full model
and decode to a schedule that validates, and every forced column must have
a nonpositive objective weight and an upper bound of 1.

``solve_external`` (the host's whole pipeline) against the exhaustive
oracle, ``solve_enumeration``, on drawn cases it can enumerate: the two
must agree on status and on the objective within 1e-6.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from blackstart import decode, encode, load_case, solve_enumeration, solve_external, validate
from blackstart.solvers import EnumerationCapError
from blackstart.solvers.external import _force_on
from blackstart.solvers.highs_cli import solve_model

from conftest import load_bundled
from strategies import case_documents
from test_greedy_start import ORACLE_CAP

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
    arrays, forced = model.arrays(), model.arrays()
    raised = _force_on(model, case, forced)
    up = np.frombuffer(forced.lb) != np.frombuffer(arrays.lb)
    assert np.count_nonzero(up) == raised
    assert np.all(np.frombuffer(forced.c)[up] <= 0)
    assert np.all(np.frombuffer(arrays.ub)[up] == 1)
    status, x, info = solve_model(forced)
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


def assert_the_oracle_agrees(case):
    try:
        want = solve_enumeration(case, cap=ORACLE_CAP)
    except EnumerationCapError:
        return
    got = solve_external(case)
    assert got.status == want.status, got.message
    if got.status == "optimal":
        assert math.isclose(got.objective, want.objective, rel_tol=REL_TOL, abs_tol=REL_TOL)


@settings(max_examples=40, **PROPERTY)
@given(case_documents())
def test_the_host_agrees_with_the_oracle(doc):
    assert_the_oracle_agrees(load_case(doc))


@pytest.mark.slow
@settings(max_examples=1000, **PROPERTY)
@given(case_documents())
def test_the_host_agrees_with_the_oracle_on_many_cases(doc):
    assert_the_oracle_agrees(load_case(doc))
