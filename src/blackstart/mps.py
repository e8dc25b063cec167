"""Free-format MPS writer and reader for the model IR.

The writer emits OBJSENSE/ROWS/COLUMNS/RHS/BOUNDS sections with
whitespace-separated tokens, so names are never truncated. Integer columns
sit between INTORG/INTEND markers and every variable additionally gets an
explicit bounds entry (BV for free binaries, FX for fixings, LO/UP pairs
otherwise). Coefficients are written with shortest round-trip precision:
reading the file back reproduces the exact doubles.

A constant objective offset is carried as an RHS entry on the objective
row with the usual sign convention: objective = c.x - rhs(obj).

The reader parses exactly this dialect; it exists as the inverse of the
writer for round-trip checks and for out-of-process solver front ends. It
accumulates each row's terms while reading COLUMNS, so its time is linear in
the number of entries: duplicate (column, row) entries are summed, and
each row goes into the model through ``MilpModel.add_constraint``, which
drops sums of exactly zero; rows without terms are kept.
"""

from __future__ import annotations

from pathlib import Path

from .milp import MilpModel

OBJ_ROW = "obj"
RHS_SET = "rhs"
BOUND_SET = "bnd"

_SENSE_TO_ROW = {"<=": "L", ">=": "G", "=": "E"}
_ROW_TO_SENSE = {v: k for k, v in _SENSE_TO_ROW.items()}


def _fmt(x: float) -> str:
    return repr(float(x))


def export_mps(model: MilpModel) -> str:
    """Serialize a model to free-format MPS text (deterministic bytes)."""
    lines: list[str] = []
    lines.append(f"NAME {model.name}")
    lines.append("OBJSENSE")
    lines.append("    MIN")
    lines.append("ROWS")
    lines.append(f" N {OBJ_ROW}")
    for c in model.constraints:
        lines.append(f" {_SENSE_TO_ROW[c.sense]} {c.name}")

    # Column-major coefficient lists, in variable declaration order. A column
    # with no nonzero coefficient still gets a zero objective entry so it
    # survives the round trip; zero objective entries are canonicalized away
    # on both sides.
    entries: dict[str, list[tuple[str, float]]] = {v.name: [] for v in model.variables}
    for var, coef in model.objective.items():
        if coef != 0.0:
            entries[var].append((OBJ_ROW, coef))
    for c in model.constraints:
        for var, coef in c.terms:
            entries[var].append((c.name, coef))

    lines.append("COLUMNS")
    in_integer = False
    marker = 0
    for v in model.variables:
        if v.is_integer != in_integer:
            kind = "'INTORG'" if v.is_integer else "'INTEND'"
            lines.append(f"    MARKER{marker} 'MARKER' {kind}")
            marker += 1
            in_integer = v.is_integer
        for row, coef in entries[v.name] or [(OBJ_ROW, 0.0)]:
            lines.append(f"    {v.name} {row} {_fmt(coef)}")
    if in_integer:
        lines.append(f"    MARKER{marker} 'MARKER' 'INTEND'")

    lines.append("RHS")
    if model.objective_constant:
        lines.append(f"    {RHS_SET} {OBJ_ROW} {_fmt(-model.objective_constant)}")
    for c in model.constraints:
        if c.rhs:
            lines.append(f"    {RHS_SET} {c.name} {_fmt(c.rhs)}")

    lines.append("BOUNDS")
    for v in model.variables:
        if v.lb == v.ub:
            lines.append(f" FX {BOUND_SET} {v.name} {_fmt(v.lb)}")
        elif v.is_integer and v.lb == 0 and v.ub == 1:
            lines.append(f" BV {BOUND_SET} {v.name}")
        else:
            lines.append(f" LO {BOUND_SET} {v.name} {_fmt(v.lb)}")
            lines.append(f" UP {BOUND_SET} {v.name} {_fmt(v.ub)}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def write_mps(model: MilpModel, path: str | Path) -> None:
    Path(path).write_text(export_mps(model))


class MpsParseError(ValueError):
    pass


def import_mps(text: str) -> MilpModel:
    """Parse the dialect emitted by export_mps back into a model."""
    model = MilpModel(name="")
    row_sense: dict[str, str] = {}
    row_order: list[str] = []
    row_terms: dict[str, dict[str, float]] = {}
    col_integer: dict[str, bool] = {}
    col_order: list[str] = []
    rhs: dict[str, float] = {}
    bounds: dict[str, list[tuple[str, float | None]]] = {}
    obj_terms: dict[str, float] = {}
    obj_row: str | None = None

    section = None
    in_integer = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        tokens = raw.split()
        head = tokens[0].upper()
        if not raw[0].isspace() and head in (
            "NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA",
        ):
            section = head
            if head == "NAME":
                model.name = tokens[1] if len(tokens) > 1 else ""
            if head == "ENDATA":
                break
            continue
        if section == "OBJSENSE":
            if tokens[0].upper() not in ("MIN", "MINIMIZE"):
                raise MpsParseError(f"line {lineno}: only minimization is supported")
        elif section == "ROWS":
            kind, name = tokens[0].upper(), tokens[1]
            if kind == "N":
                if obj_row is None:
                    obj_row = name
                continue
            if kind not in _ROW_TO_SENSE:
                raise MpsParseError(f"line {lineno}: unknown row type {kind}")
            row_sense[name] = _ROW_TO_SENSE[kind]
            row_terms[name] = {}
            row_order.append(name)
        elif section == "COLUMNS":
            if len(tokens) >= 3 and tokens[1] == "'MARKER'":
                if tokens[2] == "'INTORG'":
                    in_integer = True
                elif tokens[2] == "'INTEND'":
                    in_integer = False
                else:
                    raise MpsParseError(f"line {lineno}: unknown marker {tokens[2]}")
                continue
            col = tokens[0]
            if col not in col_integer:
                col_integer[col] = in_integer
                col_order.append(col)
            pairs = tokens[1:]
            if len(pairs) % 2:
                raise MpsParseError(f"line {lineno}: odd row/value tokens")
            for row, value in zip(pairs[::2], pairs[1::2]):
                if row == obj_row:
                    obj_terms[col] = obj_terms.get(col, 0.0) + float(value)
                elif row in row_terms:
                    terms = row_terms[row]
                    terms[col] = terms.get(col, 0.0) + float(value)
                else:
                    raise MpsParseError(f"line {lineno}: unknown row {row}")
        elif section == "RHS":
            pairs = tokens[1:]
            for row, value in zip(pairs[::2], pairs[1::2]):
                if row == obj_row:
                    model.objective_constant = -float(value)
                elif row in row_sense:
                    rhs[row] = float(value)
                else:
                    raise MpsParseError(f"line {lineno}: unknown RHS row {row}")
        elif section == "BOUNDS":
            kind = tokens[0].upper()
            name = tokens[2]
            value = float(tokens[3]) if len(tokens) > 3 else None
            bounds.setdefault(name, []).append((kind, value))
        elif section == "RANGES":
            raise MpsParseError("RANGES sections are not part of this dialect")
        else:
            raise MpsParseError(f"line {lineno}: content outside any section")

    for col in col_order:
        lb, ub = 0.0, float("inf")
        integer = col_integer[col]
        for kind, value in bounds.get(col, []):
            if kind == "FX":
                lb = ub = value
            elif kind == "BV":
                lb, ub, integer = 0.0, 1.0, True
            elif kind == "LO":
                lb = value
            elif kind == "UP":
                ub = value
            elif kind == "FR":
                lb, ub = float("-inf"), float("inf")
            elif kind == "MI":
                lb = float("-inf")
            else:
                raise MpsParseError(f"unknown bound type {kind}")
        model.add_var(*_column_key(col), lb, ub, integer)

    for name in row_order:
        model.add_constraint(name, row_terms[name], row_sense[name], rhs.get(name, 0.0))
    model.objective = {var: coef for var, coef in obj_terms.items() if coef != 0.0}
    return model


def _column_key(name: str) -> tuple[str, str, tuple[int, ...]]:
    """The ``(kind, entity, steps)`` that ``MilpModel.add_var`` joins back
    into ``name``; a name that no such parts rebuild exactly (``v1``,
    ``x.a.01``) is a parse error, not a renamed column."""
    parts = name.split(".")
    try:
        key = parts[0], parts[1], tuple(int(p) for p in parts[2:])
    except (IndexError, ValueError):
        key = None
    if key is None or ".".join((key[0], key[1], *map(str, key[2]))) != name:
        raise MpsParseError(f"column {name!r} is not named <kind>.<entity>.<t...>")
    return key


def read_mps(path: str | Path) -> MilpModel:
    return import_mps(Path(path).read_text())


def models_structurally_equal(a: MilpModel, b: MilpModel) -> bool:
    """Same variables (bounds, integrality), constraints, and objective.

    Zero coefficients are not structure; they compare equal to absent.
    """

    def var_sig(m: MilpModel) -> list[tuple]:
        return [(v.name, v.lb, v.ub, v.is_integer) for v in m.variables]

    def con_sig(m: MilpModel) -> list[tuple]:
        return [(c.name, c.terms, c.sense, c.rhs) for c in m.constraints]

    def obj_sig(m: MilpModel) -> dict:
        return {var: coef for var, coef in m.objective.items() if coef != 0.0}

    return (
        var_sig(a) == var_sig(b)
        and con_sig(a) == con_sig(b)
        and obj_sig(a) == obj_sig(b)
        and a.objective_constant == b.objective_constant
    )
