from pathlib import Path

import pytest

from blackstart import encode, export_mps, import_mps, models_structurally_equal
from blackstart.milp import MilpModel
from blackstart.mps import MpsParseError, read_mps, write_mps

from conftest import TOY_NAMES, load_bundled

DATA = Path(__file__).parent / "data"


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
    model.add_var("x", "a", (1,), 0, 10, False)
    model.add_var("x", "b", (1,), -1e-12, 1e300, False)
    model.add_constraint("row1", {"x.a.1": 1e-12, "x.b.1": 0.1 + 0.2}, "<=", 1e-12)
    model.objective = {"x.a.1": 1e-12}
    back = import_mps(export_mps(model))
    assert back.constraints[0].terms == model.constraints[0].terms
    assert back.constraints[0].rhs == 1e-12
    assert back.objective == model.objective
    assert back.variables[1].lb == -1e-12


def test_objective_constant_round_trips():
    model = MilpModel(name="const")
    model.add_var("x", "a", (1,), 0, 1, True)
    model.objective = {"x.a.1": -2.5}
    model.objective_constant = 41.25
    back = import_mps(export_mps(model))
    assert back.objective_constant == 41.25
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
    assert model.constraints[0].terms == (("x.a.1", 2.0), ("y.a.1", 1.75))
    assert model.constraints[0].rhs == 4.0
    assert model.objective == {"x.a.1": 3.0}


def test_entries_summing_to_zero_are_dropped():
    model = import_mps(_columns_text(
        ("x.a.1", "r1", "2.0"), ("x.a.1", "r1", "-2.0"), ("y.a.1", "r1", "1.0"),
        ("x.a.1", "obj", "1.0"), ("x.a.1", "obj", "-1.0"),
    ))
    assert model.constraints[0].terms == (("y.a.1", 1.0),)
    assert model.objective == {}


def test_row_without_terms_round_trips():
    model = MilpModel(name="empty_row")
    model.add_var("x", "a", (1,), 0, 1, True)
    model.add_constraint("r1", {"x.a.1": 1.0}, "<=", 1)
    model.add_constraint("r2", {}, ">=", -3.0)
    back = import_mps(export_mps(model))
    assert [(c.name, c.terms, c.sense, c.rhs) for c in back.constraints] == [
        ("r1", (("x.a.1", 1.0),), "<=", 1), ("r2", (), ">=", -3.0),
    ]
    assert models_structurally_equal(model, back)
    back = import_mps(_columns_text(("x.a.1", "r1", "1.0")))
    assert back.constraints[1].name == "r2" and back.constraints[1].terms == ()


def test_unknown_row_rejected():
    with pytest.raises(MpsParseError):
        import_mps("NAME x\nROWS\n N obj\nCOLUMNS\n    v1 nosuchrow 1.0\nENDATA\n")


def test_comment_lines_ignored():
    model = MilpModel(name="c")
    model.add_var("x", "a", (1,), 0, 1, True)
    text = export_mps(model)
    with_comments = text.replace("NAME c", "* leading comment\nNAME c")
    assert models_structurally_equal(import_mps(with_comments), model)
