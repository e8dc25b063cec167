import copy
import json
import os
from pathlib import Path

import pytest

from blackstart import load_case, solve_enumeration, solve_external
from blackstart.cases import bundled_case_path
from blackstart.solvers.external import stop_solver_host

TOY_NAMES = ["toy_t5", "toy_path3", "toy_fc", "toy_bt", "toy_bt_tight"]
SRC = Path(__file__).resolve().parent.parent / "src"
# Small drawn cases (``strategies.case_documents``) kept with their MPS digests.
DRAWN_DOCUMENTS = {name: pin["document"] for name, pin in json.loads(
    (Path(__file__).parent / "data" / "drawn_mps_sha256.json").read_text()).items()}


@pytest.fixture(scope="session", autouse=True)
def solver_children_import_this_checkout():
    """pytest's ``pythonpath`` setting reaches only this process; stub solver
    commands run as fresh interpreters, and some import ``blackstart.mps``."""
    with pytest.MonkeyPatch.context() as mp:
        paths = [str(SRC), os.environ.get("PYTHONPATH")]
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, paths)))
        yield


@pytest.fixture()
def fresh_solver_host():
    """Stop this process's solver hosts before and after the test.

    A host keeps the code it was forked with, so a stub patched into this
    process reaches a host only if the host starts after the patch, and
    must not outlive the test. Stopping them also leaves the test with no
    live children of this process.
    """
    stop_solver_host()
    yield
    stop_solver_host()


def load_bundled(name):
    return load_case(bundled_case_path(name))


def bundled_document(name):
    return json.loads(bundled_case_path(name).read_text())


@pytest.fixture(scope="session")
def toy_cases():
    return {name: load_bundled(name) for name in TOY_NAMES}


@pytest.fixture(scope="session")
def toy_enum(toy_cases):
    return {name: solve_enumeration(case) for name, case in toy_cases.items()}


@pytest.fixture(scope="session")
def toy_external(toy_cases):
    return {name: solve_external(case) for name, case in toy_cases.items()}


@pytest.fixture()
def minimal_two_bus_doc():
    """Smallest valid case: two buses, one branch, one black-start generator."""
    return {
        "time": {"step_minutes": 20, "horizon_minutes": 160},
        "buses": [{"id": "b1"}, {"id": "b2"}],
        "branches": [{"id": "l1_2", "from_bus": "b1", "to_bus": "b2"}],
        "generators": [
            {
                "id": "g1",
                "bus": "b1",
                "p_max": 100,
                "p_crank": 10,
                "crank_minutes": 40,
                "ramp_minutes": 40,
                "black_start": True,
            }
        ],
        "fuel_cells": [],
        "batteries": [],
        "objective": {},
    }


def doc_variant(doc, **edits):
    """Deep-copied document with dotted-path edits, e.g. ``{"generators.0.p_max": 5}``."""
    out = copy.deepcopy(doc)
    for path, value in edits.items():
        node = out
        parts = path.split(".")
        for part in parts[:-1]:
            node = node[int(part)] if isinstance(node, list) else node[part]
        last = parts[-1]
        if isinstance(node, list):
            node[int(last)] = value
        elif value is None:
            node.pop(last, None)
        else:
            node[last] = value
    return out
