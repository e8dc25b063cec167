"""Differential tests of the solver host's solve.

``highs_cli.solve_model`` on the arrays with the host's energization fixing
(``external._force_on``) against a plain ``scipy.optimize.milp`` call
(HiGHS with its default presolve) on the unreduced, unforced arrays, on
drawn small cases and, under ``-m slow``, on many more drawn cases and the
bundled 39-bus cases. The two must agree on status and on the objective
within 1e-6 relative, the reduced solve's point must satisfy the full model
and decode to a schedule that validates, and every forced column must have
a nonpositive objective weight and an upper bound of 1. The reduction's
substitution must take out every generator output column that would
reach HiGHS in two rows, its eq23g row and eq2, and the properties check
that it did so on most optimal draws with a non-black-start generator.

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
from blackstart.milp import GEN_POWER
from blackstart.solvers import EnumerationCapError
from blackstart.solvers.external import _force_on
from blackstart.solvers.highs_cli import reduce_model, solve_model

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
    """Assert the agreement above; returns the count of columns the
    reduction substituted out, or None where the case has no
    non-black-start generator or no optimum."""
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
        return None
    assert math.isclose(info["objective"], want_objective, rel_tol=REL_TOL, abs_tol=1e-9)
    x = x.tolist()
    assert len(x) == len(model.names)
    assert model.check_assignment(x) == []
    assert math.isclose(model.objective_of(x), want_objective, rel_tol=REL_TOL, abs_tol=1e-9)
    assert validate(case, decode(model, x, case)).passed
    reduced = reduce_model(forced)
    output = np.array([name.startswith(f"{GEN_POWER}.") for name in model.names])
    assert np.all(np.diff(reduced.a.start)[output[reduced.keep]] <= 1)
    assert info["substituted"] == len(reduced.sub.col)
    return info["substituted"] if any(not g.is_black_start for g in case.generators) else None


PROPERTY = dict(deadline=None, database=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


def assert_solvers_agree_on_draws(max_examples):
    """``assert_solvers_agree`` on drawn cases, and a substitution on more
    than half of the optimal draws with a non-black-start generator."""
    counts = []

    @settings(max_examples=max_examples, **PROPERTY)
    @given(case_documents())
    def agree(doc):
        counts.append(assert_solvers_agree(load_case(doc)))

    agree()
    counts = [n for n in counts if n is not None]
    assert 2 * sum(n > 0 for n in counts) > len(counts) > 0, counts


def test_reduced_solve_agrees_with_plain_highs():
    assert_solvers_agree_on_draws(40)


@pytest.mark.slow
def test_reduced_solve_agrees_with_plain_highs_on_many_cases():
    assert_solvers_agree_on_draws(1000)


@pytest.mark.slow
@pytest.mark.parametrize("name", ["ieee39_nores", "ieee39_fc50", "ieee39_bt50", "ieee39_bt30"])
def test_reduced_solve_agrees_with_plain_highs_on_ieee39(name):
    assert assert_solvers_agree(load_bundled(name)) > 0


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
