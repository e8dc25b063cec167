import json
import math

import pytest

from blackstart import CaseError, dumps_case, load_case
from blackstart.caseio import case_to_document

from conftest import TOY_NAMES, bundled_document, doc_variant, load_bundled


def test_minimal_two_bus_case(minimal_two_bus_doc):
    case = load_case(minimal_two_bus_doc)
    assert len(case.buses) == 2
    assert len(case.branches) == 1
    assert len(case.generators) == 1
    assert case.time_grid.n_steps == 8
    assert case.generators[0].crank_steps == 2
    assert case.generators[0].is_black_start


def test_battery_p_min_defaults_to_ten_percent(minimal_two_bus_doc):
    doc = doc_variant(minimal_two_bus_doc)
    doc["batteries"] = [{"id": "bt1", "bus": "b2", "p_max": 50, "soc_init": 50}]
    case = load_case(doc)
    assert case.batteries[0].p_min == pytest.approx(5.0)


def test_dangling_fuel_cell_bus(minimal_two_bus_doc):
    doc = doc_variant(minimal_two_bus_doc)
    doc["fuel_cells"] = [{"id": "fc1", "bus": "b99", "p_max": 5}]
    with pytest.raises(CaseError, match="b99"):
        load_case(doc)


def test_time_defaults(minimal_two_bus_doc):
    doc = doc_variant(minimal_two_bus_doc, time=None)
    case = load_case(doc)
    assert case.time_grid.step_minutes == 20
    assert case.time_grid.n_steps == 18


def test_generator_crank_default_is_three_steps(minimal_two_bus_doc):
    doc = doc_variant(minimal_two_bus_doc, **{"generators.0.crank_minutes": None})
    case = load_case(doc)
    assert case.generators[0].crank_steps == 3


def test_beta_default(minimal_two_bus_doc):
    case = load_case(minimal_two_bus_doc)
    assert case.beta == pytest.approx(1e-3 * (100 - 10))
    explicit = load_case(doc_variant(minimal_two_bus_doc, objective={"beta": 0.5}))
    assert explicit.beta == 0.5


def test_importance_defaults_to_degree(minimal_two_bus_doc):
    case = load_case(minimal_two_bus_doc)
    assert {b.id: b.importance for b in case.buses} == {"b1": 1.0, "b2": 1.0}
    doc = doc_variant(minimal_two_bus_doc, **{"buses.0.importance": 7})
    mixed = load_case(doc)
    assert mixed.bus("b1").importance == 7.0
    assert mixed.bus("b2").importance == 1.0  # still defaulted


def test_non_multiple_minutes_is_load_error(minimal_two_bus_doc):
    bad = doc_variant(minimal_two_bus_doc, **{"generators.0.crank_minutes": 30})
    with pytest.raises(CaseError, match="multiple"):
        load_case(bad)


def test_unknown_keys_rejected(minimal_two_bus_doc):
    with pytest.raises(CaseError, match="unknown"):
        load_case(doc_variant(minimal_two_bus_doc, extra_section=1))
    with pytest.raises(CaseError, match="unknown"):
        load_case(doc_variant(minimal_two_bus_doc, **{"generators.0.typo_field": 1}))


def test_missing_required_key_names_path(minimal_two_bus_doc):
    bad = doc_variant(minimal_two_bus_doc, **{"generators.0.p_max": None})
    with pytest.raises(CaseError, match=r"generators\[0\]"):
        load_case(bad)


@pytest.mark.parametrize("path, value", [
    ("time.horizon_minutes", math.inf),
    ("time.step_minutes", math.nan),
    ("batteries.0.soc_init", math.nan),
    ("buses.0.importance", math.nan),
    ("generators.0.p_max", -math.inf),
    pytest.param("generators.0.p_crank", 10 ** 400, id="generators.0.p_crank-10**400"),
])
def test_a_number_that_is_not_finite_is_a_load_error(path, value):
    """``json`` reads NaN, ±Infinity and integers beyond a float's range."""
    text = json.dumps(doc_variant(bundled_document("toy_bt"), **{path: value}))
    key = path.rsplit(".", 1)[1]
    with pytest.raises(CaseError, match=f"{key}: expected a finite number"):
        load_case(text)


def test_load_accepts_json_text_and_path(minimal_two_bus_doc, tmp_path):
    text = json.dumps(minimal_two_bus_doc)
    by_text = load_case(text)
    path = tmp_path / "case.json"
    path.write_text(text)
    by_path = load_case(path)
    by_str_path = load_case(str(path))
    assert by_text == by_path == by_str_path


@pytest.mark.parametrize("name", TOY_NAMES + ["ieee39_nores", "ieee39_fc50", "ieee39_bt30"])
def test_canonical_round_trip_is_byte_stable(name):
    case = load_bundled(name)
    text1 = dumps_case(case)
    case2 = load_case(json.loads(text1))
    text2 = dumps_case(case2)
    assert case == case2
    assert text1 == text2


def test_identical_documents_give_identical_cases(minimal_two_bus_doc):
    a = load_case(doc_variant(minimal_two_bus_doc))
    b = load_case(doc_variant(minimal_two_bus_doc))
    assert a == b
    assert case_to_document(a) == case_to_document(b)


def test_document_units_are_minutes(minimal_two_bus_doc):
    doc = doc_variant(minimal_two_bus_doc)
    doc["time"] = {"step_minutes": 10, "horizon_minutes": 160}
    doc["generators"][0]["crank_minutes"] = 40
    doc["generators"][0]["ramp_minutes"] = 40
    case = load_case(doc)
    assert case.time_grid.n_steps == 16
    assert case.generators[0].crank_steps == 4
    assert case.generators[0].ramp_steps == 4
