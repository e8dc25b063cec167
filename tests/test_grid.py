import pytest

from blackstart import (
    CaseError,
    bus_importance_from_degree,
    load_case,
)

from conftest import bundled_document, doc_variant, load_bundled


def star_doc(n_leaves=4):
    buses = [{"id": "hub"}] + [{"id": f"leaf{i}"} for i in range(n_leaves)]
    branches = [
        {"id": f"s{i}", "from_bus": "hub", "to_bus": f"leaf{i}"} for i in range(n_leaves)
    ]
    return {
        "time": {"step_minutes": 20, "horizon_minutes": 160},
        "buses": buses + [{"id": "isolated"}],
        "branches": branches,
        "generators": [
            {"id": "g1", "bus": "hub", "p_max": 10, "p_crank": 1,
             "crank_minutes": 20, "ramp_minutes": 20, "black_start": True}
        ],
        "fuel_cells": [],
        "batteries": [],
    }


def test_degree_star():
    case = load_case(star_doc())
    deg = bus_importance_from_degree(case)
    assert deg["hub"] == 4
    assert all(deg[f"leaf{i}"] == 1 for i in range(4))


def test_degree_isolated_bus_is_zero():
    case = load_case(star_doc())
    assert bus_importance_from_degree(case)["isolated"] == 0


def test_bundled_39bus_top_degrees_are_b6_b16():
    # independent recount straight from the document, not through the package
    doc = bundled_document("ieee39_nores")
    degree = {b["id"]: 0 for b in doc["buses"]}
    for k in doc["branches"]:
        degree[k["from_bus"]] += 1
        degree[k["to_bus"]] += 1
    ranked = sorted(degree, key=lambda b: (-degree[b], b))
    assert set(ranked[:2]) == {"b6", "b16"}
    third_best = degree[ranked[2]]
    assert degree["b6"] > third_best and degree["b16"] > third_best

    case = load_bundled("ieee39_nores")
    assert bus_importance_from_degree(case) == {b: float(d) for b, d in degree.items()}


def test_adjacency_counts(toy_cases):
    case = toy_cases["toy_t5"]
    adj = case.adjacency
    assert len(adj.branches["b1"]) == 2  # ring: two incident branches
    assert adj.generators["b1"] == ("g1",)
    assert adj.fuel_cells["b2"] == ("fc1",)
    assert adj.generators["b2"] == ()


def test_adjacency_fc_and_battery_bus():
    doc = star_doc()
    doc["fuel_cells"] = [{"id": "fc1", "bus": "leaf0", "p_max": 5}]
    doc["batteries"] = [{"id": "bt1", "bus": "leaf0", "p_max": 5, "soc_init": 5}]
    adj = load_case(doc).adjacency
    assert adj.fuel_cells["leaf0"] == ("fc1",)
    assert adj.batteries["leaf0"] == ("bt1",)


@pytest.mark.parametrize("name", ["toy_t5", "ieee39_nores", "ieee39_fc50"])
def test_adjacency_branch_symmetry(name):
    case = load_bundled(name)
    adj = case.adjacency
    for k in case.branches:
        assert adj.branches[k.from_bus].count(k.id) == 1
        assert adj.branches[k.to_bus].count(k.id) == 1


def test_adjacency_ordering_is_deterministic():
    case = load_bundled("ieee39_fc50")
    adj = case.adjacency
    for bus_id, names in adj.branches.items():
        assert list(names) == sorted(names)


# every type invariant rejects with an error naming the entity
INVARIANT_BREAKS = [
    ("time.step_minutes", 0, "step_minutes"),
    ("buses.0.importance", -1, "importance"),
    ("branches.0.to_bus", "b1", "branch"),
    ("generators.0.p_crank", 100, "g1"),
    ("generators.0.p_crank", 0, "g1"),
    ("generators.0.crank_minutes", 0, "crank"),
    ("generators.0.ramp_minutes", 0, "ramp"),
    ("generators.0.earliest_start_minutes", 0, "earliest"),
    ("generators.0.latest_start_minutes", 1000, "g1"),
    ("generators.0.bus", "b99", "g1"),
]


@pytest.mark.parametrize("path,value,needle", INVARIANT_BREAKS)
def test_invariants_rejected_with_located_error(minimal_two_bus_doc, path, value, needle):
    bad = doc_variant(minimal_two_bus_doc, **{path: value})
    with pytest.raises(CaseError) as err:
        load_case(bad)
    assert needle in str(err.value)


BATTERY_BREAKS = [
    ("batteries.0.p_min", 60, "bt1"),
    ("batteries.0.soc_min", 99, "bt1"),
    ("batteries.0.earliest_start_minutes", 0, "earliest"),
    ("batteries.0.bus", "nowhere", "bt1"),
]


@pytest.mark.parametrize("path,value,needle", BATTERY_BREAKS)
def test_battery_invariants_rejected(minimal_two_bus_doc, path, value, needle):
    doc = doc_variant(minimal_two_bus_doc)
    doc["batteries"] = [
        {"id": "bt1", "bus": "b2", "p_max": 50, "soc_init": 50, "soc_min": 0}
    ]
    bad = doc_variant(doc, **{path: value})
    with pytest.raises(CaseError) as err:
        load_case(bad)
    assert needle in str(err.value)


def test_no_self_start_resource_rejected(minimal_two_bus_doc):
    bad = doc_variant(minimal_two_bus_doc, **{"generators.0.black_start": False})
    with pytest.raises(CaseError, match="self-start"):
        load_case(bad)


def test_black_start_window_must_include_step_2(minimal_two_bus_doc):
    bad = doc_variant(minimal_two_bus_doc, **{"generators.0.earliest_start_minutes": 40})
    with pytest.raises(CaseError, match="black-start"):
        load_case(bad)


def test_duplicate_device_ids_rejected(minimal_two_bus_doc):
    doc = doc_variant(minimal_two_bus_doc)
    doc["fuel_cells"] = [{"id": "g1", "bus": "b2", "p_max": 5}]
    with pytest.raises(CaseError, match="unique"):
        load_case(doc)


def test_ids_with_dots_rejected(minimal_two_bus_doc):
    bad = doc_variant(minimal_two_bus_doc, **{"buses.0.id": "b.1"})
    with pytest.raises(CaseError):
        load_case(bad)
