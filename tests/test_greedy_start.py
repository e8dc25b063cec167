"""The MILP start, ``enumeration.greedy_schedule``: whenever it returns a
schedule, that schedule validates, its point satisfies the full model, and
its objective is no better than the MILP's optimum (nor, where the oracle
can enumerate the case, the oracle's). On drawn cases and, under ``-m
slow``, on many more; and on the nine bundled cases."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from blackstart import encode, load_case, solve_enumeration, validate
from blackstart.cases import bundled_cases
from blackstart.milp import objective_value, point_from_schedule
from blackstart.solvers import EnumerationCapError
from blackstart.solvers.enumeration import greedy_schedule
from blackstart.solvers.highs_cli import solve_model, violations

from conftest import load_bundled
from strategies import case_documents

TOL = 1e-6
# drawn cases with more decision combinations are not enumerated
ORACLE_CAP = 20_000


def assert_a_sound_start(case, oracle: bool):
    schedule = greedy_schedule(case)
    if schedule is None:
        return
    report = validate(case, schedule)
    assert report.passed, report.violations
    model = encode(case)
    x = point_from_schedule(model, case, schedule)
    arrays = model.arrays()
    assert violations(arrays, np.array(x)) is None
    objective = objective_value(case, schedule)
    assert math.isclose(model.objective_of(x), objective, rel_tol=TOL, abs_tol=TOL)
    status, _, info = solve_model(arrays)
    assert status == "optimal", info["message"]
    assert objective >= info["objective"] - TOL * (1 + abs(objective))
    if oracle:
        try:
            best = solve_enumeration(case, cap=ORACLE_CAP)
        except EnumerationCapError:
            return
        assert best.status == "optimal"
        assert objective >= best.objective - TOL * (1 + abs(objective))


PROPERTY = dict(deadline=None, database=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


@settings(max_examples=40, **PROPERTY)
@given(case_documents())
def test_the_start_is_sound_on_drawn_cases(doc):
    assert_a_sound_start(load_case(doc), oracle=True)


@pytest.mark.slow
@settings(max_examples=500, **PROPERTY)
@given(case_documents())
def test_the_start_is_sound_on_many_drawn_cases(doc):
    assert_a_sound_start(load_case(doc), oracle=True)


@pytest.mark.parametrize("name", bundled_cases())
def test_the_start_is_sound_on_the_bundled_cases(name):
    assert_a_sound_start(load_bundled(name), oracle=name.startswith("toy_"))


# all bundled cases but toy_bt_tight, whose optimum opens its battery a step
# after the battery's earliest start
@pytest.mark.parametrize("name", [name for name in bundled_cases() if name != "toy_bt_tight"])
def test_the_start_is_the_optimum_on_the_other_bundled_cases(name):
    case = load_bundled(name)
    status, _, info = solve_model(encode(case).arrays())
    assert status == "optimal"
    assert math.isclose(objective_value(case, greedy_schedule(case)), info["objective"],
                        rel_tol=1e-9)
