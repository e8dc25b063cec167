import hashlib
import json
import math
from array import array
from pathlib import Path

import pytest

from blackstart import encode, export_mps, import_mps, load_case, models_structurally_equal
from blackstart.cases import bundled_cases
from blackstart.milp import MilpModel
from blackstart.mps import MpsParseError, read_mps, write_mps

from conftest import TOY_NAMES, load_bundled

DATA = Path(__file__).parent / "data"


def add_row(model, name, cols, vals, lo, hi):
    """Append row ``name``: ``lo <= sum(vals[k] * x[cols[k]]) <= hi``."""
    i = len(model.row_names)
    model.add_rows([name], array("d", [lo]), array("d", [hi]), array("i", [i] * len(cols)),
                   array("i", cols), array("d", vals))


def rows_of(model):
    """Each row as (name, [(column name, coefficient)], lo, hi), from ``arrays()``."""
    a = model.arrays()
    terms = [[] for _ in model.row_names]
    for i, j, v in zip(a.row, a.col, a.val):
        terms[i].append((model.names[j], v))
    return [(name, t, lo, hi) for name, t, lo, hi in zip(model.row_names, terms, a.row_lo, a.row_hi)]


def test_empty_model_round_trip():
    model = MilpModel(name="empty")
    text = export_mps(model)
    back = import_mps(text)
    assert models_structurally_equal(model, back)
    assert "ROWS" in text and "ENDATA" in text


@pytest.mark.parametrize("name", TOY_NAMES + ["ieee39_nores", "ieee39_fc50", "ieee39_bt50"])
def test_round_trip_structural_identity(name):
    model = encode(load_bundled(name))
    back = import_mps(export_mps(model))
    assert models_structurally_equal(model, back)


def test_tiny_coefficient_full_precision():
    model = MilpModel(name="precision")
    model.add_vars(["x.a.1"], 0, 10, False)
    model.add_vars(["x.b.1"], -1e-12, 1e300, False)
    add_row(model, "row1", [0, 1], [1e-12, 0.1 + 0.2], -math.inf, 1e-12)
    model.c[0] += 1e-12
    back = import_mps(export_mps(model))
    assert rows_of(back) == [("row1", [("x.a.1", 1e-12), ("x.b.1", 0.1 + 0.2)], -math.inf, 1e-12)]
    assert rows_of(back) == rows_of(model)
    assert list(back.c) == [1e-12, 0.0]
    assert (back.arrays().lb[1], back.arrays().ub[1]) == (-1e-12, 1e300)


def test_objective_constant_round_trips():
    model = MilpModel(name="const")
    model.add_vars(["x.a.1"], 0, 1, True)
    model.c[0] += -2.5
    model.objective_constant = 41.25
    back = import_mps(export_mps(model))
    assert back.objective_constant == 41.25
    assert list(back.c) == [-2.5]
    assert models_structurally_equal(model, back)


def test_bounds_emission(toy_cases):
    text = export_mps(encode(toy_cases["toy_bt_tight"]))
    assert " BV bnd " in text            # free binaries
    assert " FX bnd " in text            # blackout fixings
    assert " LO bnd " in text and " UP bnd " in text  # continuous injections
    assert "'INTORG'" in text and "'INTEND'" in text


def test_export_is_deterministic(toy_cases):
    model1 = encode(toy_cases["toy_t5"])
    model2 = encode(toy_cases["toy_t5"])
    assert export_mps(model1) == export_mps(model2)


def test_golden_file_byte_stable():
    """The committed golden export must be reproduced byte for byte."""
    model = encode(load_bundled("toy_path3"))
    golden = DATA / "toy_path3.mps"
    assert golden.exists(), "golden MPS file missing"
    assert export_mps(model) == golden.read_text()


BUNDLED_MPS_SHA256 = json.loads((DATA / "bundled_mps_sha256.json").read_text())


def test_bundled_mps_digests_cover_every_bundled_case():
    assert sorted(BUNDLED_MPS_SHA256) == sorted(bundled_cases())


@pytest.mark.parametrize("name", sorted(BUNDLED_MPS_SHA256))
def test_bundled_model_export_is_pinned(name):
    """Every bundled case's MPS export keeps the recorded bytes: the encoder's
    variables, rows, coefficients, bounds and their order do not move."""
    text = export_mps(encode(load_bundled(name)))
    assert hashlib.sha256(text.encode()).hexdigest() == BUNDLED_MPS_SHA256[name]


DRAWN_CASES = json.loads((DATA / "drawn_mps_sha256.json").read_text())


@pytest.mark.parametrize("name", sorted(DRAWN_CASES))
def test_drawn_model_export_is_pinned(name):
    """Small drawn cases (``strategies.case_documents``: meshes, fuel cells
    with and without a cranking draw, batteries, 4-9 steps) keep the MPS
    bytes recorded with them, zero coefficients dropped and all."""
    pin = DRAWN_CASES[name]
    text = export_mps(encode(load_case(pin["document"])))
    assert hashlib.sha256(text.encode()).hexdigest() == pin["mps_sha256"]


def test_golden_file_gives_the_encoded_model_arrays():
    """The solver host and the MPS front end build HiGHS's input with one
    ``MilpModel.arrays()``; the golden file gives the encoder's arrays."""
    assert read_mps(DATA / "toy_path3.mps").arrays() == encode(load_bundled("toy_path3")).arrays()


def test_file_round_trip(tmp_path, toy_cases):
    model = encode(toy_cases["toy_fc"])
    path = tmp_path / "m.mps"
    write_mps(model, path)
    assert models_structurally_equal(model, read_mps(path))


def _columns_text(*entries):
    """Two-row, two-column model whose COLUMNS section lists ``entries``."""
    lines = ["NAME dup", "ROWS", " N obj", " L r1", " G r2", "COLUMNS"]
    lines += [f"    {col} {row} {value}" for col, row, value in entries]
    lines += ["RHS", "    rhs r1 4.0", "ENDATA"]
    return "\n".join(lines) + "\n"


def test_duplicate_entries_are_summed():
    model = import_mps(_columns_text(
        ("y.a.1", "r1", "1.5"), ("x.a.1", "r1", "2.0"), ("y.a.1", "r1", "0.25"),
        ("x.a.1", "obj", "1.0"), ("x.a.1", "obj", "2.0"),
    ))
    assert model.names == ["y.a.1", "x.a.1"]
    assert rows_of(model) == [("r1", [("y.a.1", 1.75), ("x.a.1", 2.0)], -math.inf, 4.0),
                              ("r2", [], 0.0, math.inf)]
    assert list(model.c) == [0.0, 3.0]


def test_entries_summing_to_zero_are_dropped():
    model = import_mps(_columns_text(
        ("x.a.1", "r1", "2.0"), ("x.a.1", "r1", "-2.0"), ("y.a.1", "r1", "1.0"),
        ("x.a.1", "obj", "1.0"), ("x.a.1", "obj", "-1.0"),
    ))
    assert rows_of(model)[0][1] == [("y.a.1", 1.0)]
    assert list(model.c) == [0.0, 0.0]
    assert all(math.copysign(1.0, c) == 1.0 for c in model.c)


def test_row_without_terms_round_trips():
    model = MilpModel(name="empty_row")
    model.add_vars(["x.a.1"], 0, 1, True)
    add_row(model, "r1", [0], [1.0], -math.inf, 1)
    add_row(model, "r2", [], [], -3.0, math.inf)
    back = import_mps(export_mps(model))
    assert rows_of(back) == [
        ("r1", [("x.a.1", 1.0)], -math.inf, 1), ("r2", [], -3.0, math.inf),
    ]
    assert models_structurally_equal(model, back)
    back = import_mps(_columns_text(("x.a.1", "r1", "1.0")))
    assert back.row_names[1] == "r2" and rows_of(back)[1][1] == []


def test_unknown_row_rejected():
    with pytest.raises(MpsParseError):
        import_mps("NAME x\nROWS\n N obj\nCOLUMNS\n    v1 nosuchrow 1.0\nENDATA\n")


def test_comment_lines_ignored():
    model = MilpModel(name="c")
    model.add_vars(["x.a.1"], 0, 1, True)
    text = export_mps(model)
    with_comments = text.replace("NAME c", "* leading comment\nNAME c")
    assert models_structurally_equal(import_mps(with_comments), model)


@pytest.mark.parametrize("name", ["v1", "x.a.01", "x.a.b", "x.a.1_0", "x.a.+1"])
def test_a_column_named_outside_the_grammar_keeps_its_name(name):
    """A column is its name: the reader neither renames nor rejects one
    outside ``<kind>.<entity>.<t...>``, and the row that lists it keeps it."""
    model = import_mps(_columns_text((name, "r1", "1.0")))
    arrays = model.arrays()
    assert model.names == [name]
    assert (list(arrays.row), list(arrays.col), list(arrays.val)) == ([0], [0], [1.0])
    assert export_mps(import_mps(export_mps(model))) == export_mps(model)


@pytest.mark.parametrize("name", ["x.a", "x.a.1", "x.a.1.12", "x.a.-1"])
def test_column_names_in_the_grammar_keep_their_spelling(name):
    assert import_mps(_columns_text((name, "r1", "1.0"))).names == [name]


NOT_FINITE = "line [0-9]+: .* is not a finite number"


@pytest.mark.parametrize("old, new, match", [
    ("x.a.1 r1 1.0", "x.a.1 r1 nan", NOT_FINITE),
    ("x.a.1 r1 1.0", "x.a.1 r1 -inf", NOT_FINITE),
    ("rhs r1 4.0", "rhs r1 NaN", NOT_FINITE),
    ("rhs r1 4.0", "rhs r1 inf", NOT_FINITE),
    ("rhs r1 4.0", "rhs obj inf", NOT_FINITE),
    ("ENDATA", "BOUNDS\n UP bnd x.a.1 nan\nENDATA", NOT_FINITE),
    (" G r2", " G r2\n L", "line 6: a row is a type and a name"),
    (" G r2", " G r2\n E r1", "line 6: row r1 declared twice"),
    ("ENDATA", "BOUNDS\n UP bnd\nENDATA", "line 11: UP bound without a column or value"),
    ("ENDATA", "BOUNDS\n UP bnd x.a.1\nENDATA", "line 11: UP bound without a column or value"),
    ("ENDATA", "BOUNDS\n UP bnd w.a.1 3\nENDATA", "line 11: bound on undeclared column w.a.1"),
    ("rhs r1 4.0", "rhs r1", "line 9: odd row/value tokens"),
    ("ENDATA", "BOUNDS\n XX bnd x.a.1 3\nENDATA", "line 11: unknown bound type XX"),
], ids=["coefficient-nan", "coefficient-inf", "rhs-nan", "rhs-inf", "objective-rhs-inf",
        "bound-nan", "row-without-name", "row-declared-twice", "bound-without-column", "bound-without-value",
        "bound-on-undeclared-column", "rhs-without-value", "unknown-bound-type"])
def test_nan_anywhere_and_infinity_outside_a_bound_are_parse_errors(old, new, match):
    """So are malformed lines: each names its line, none is a traceback or
    dropped."""
    text = _columns_text(("x.a.1", "r1", "1.0")).replace(old, new)
    with pytest.raises(MpsParseError, match=match):
        import_mps(text)


def test_infinite_bounds_round_trip():
    text = _columns_text(("x.a.1", "r1", "1.0")).replace(
        "ENDATA", "BOUNDS\n LO bnd x.a.1 -inf\n UP bnd x.a.1 inf\nENDATA")
    model = import_mps(text)
    assert (model.arrays().lb[0], model.arrays().ub[0]) == (-math.inf, math.inf)
    assert models_structurally_equal(import_mps(export_mps(model)), model)
