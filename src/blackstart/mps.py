"""Free-format MPS writer and reader for the model IR.

The writer emits OBJSENSE/ROWS/COLUMNS/RHS/BOUNDS sections with
whitespace-separated tokens, so names are never truncated. Integer columns
sit between INTORG/INTEND markers and every variable additionally gets an
explicit bounds entry (BV for free binaries, FX for fixings, LO/UP pairs
otherwise). Coefficients are written with shortest round-trip precision:
reading the file back reproduces the exact doubles.

A constant objective offset is carried as an RHS entry on the objective
row with the usual sign convention: objective = c.x - rhs(obj).

The writer reads the model's stored arrays, ``names`` and ``row_names``,
and gathers each column's entries in one pass over the row-major matrix.

The reader parses exactly this dialect; it exists as the inverse of the
writer for round-trip checks and for out-of-process solver front ends.
Each column is added under the name it was read with. The reader
accumulates each row's terms and the objective by column while reading
COLUMNS, so its time is linear in the number of entries: duplicate
(column, row) entries are summed. It then builds the model with the
model's own builders: the columns through one ``MilpModel.add_vars`` per
run of equal bounds and integrality, and all rows through one
``add_rows``. Sums of exactly zero are dropped; rows without terms are
kept. NaN is a parse error anywhere, and so is an infinite coefficient or
RHS; bounds may be infinite.
"""

from __future__ import annotations

import itertools
import math
from array import array
from pathlib import Path

from .model import MilpModel, row_sense, row_sides

OBJ_ROW = "obj"
RHS_SET = "rhs"
BOUND_SET = "bnd"

_SENSE_TO_ROW = {"<=": "L", ">=": "G", "=": "E"}
_ROW_TO_SENSE = {v: k for k, v in _SENSE_TO_ROW.items()}


def _fmt(x: float) -> str:
    return repr(float(x))


def export_mps(model: MilpModel) -> str:
    """Serialize a model to free-format MPS text (deterministic bytes)."""
    a = model.arrays()
    row_names = model.row_names
    rows = [(name, *row_sense(lo, hi)) for name, lo, hi in zip(row_names, a.row_lo, a.row_hi)]
    lines = [f"NAME {model.name}", "OBJSENSE", "    MIN", "ROWS", f" N {OBJ_ROW}"]
    lines += [f" {_SENSE_TO_ROW[sense]} {name}" for name, sense, _ in rows]

    # Each column's entries, objective first, then its rows in order (one
    # pass over the row-major matrix). A column with no nonzero coefficient
    # still gets a zero objective entry so it survives the round trip; zero
    # objective entries are canonicalized away on both sides.
    entries: list[list[str]] = [[f"{OBJ_ROW} {_fmt(c)}"] if c else [] for c in a.c]
    for i, j, coef in zip(a.row, a.col, a.val):
        entries[j].append(f"{row_names[i]} {_fmt(coef)}")

    lines.append("COLUMNS")
    in_integer = False
    marker = 0
    for name, integer, column in zip(model.names, a.integrality, entries):
        if integer != in_integer:
            kind = "'INTORG'" if integer else "'INTEND'"
            lines.append(f"    MARKER{marker} 'MARKER' {kind}")
            marker += 1
            in_integer = integer
        lines += [f"    {name} {entry}" for entry in column or [f"{OBJ_ROW} 0.0"]]
    if in_integer:
        lines.append(f"    MARKER{marker} 'MARKER' 'INTEND'")

    lines.append("RHS")
    if model.objective_constant:
        lines.append(f"    {RHS_SET} {OBJ_ROW} {_fmt(-model.objective_constant)}")
    lines += [f"    {RHS_SET} {name} {_fmt(rhs)}" for name, _, rhs in rows if rhs]

    lines.append("BOUNDS")
    for name, lb, ub, integer in zip(model.names, a.lb, a.ub, a.integrality):
        if lb == ub:
            lines.append(f" FX {BOUND_SET} {name} {_fmt(lb)}")
        elif integer and lb == 0 and ub == 1:
            lines.append(f" BV {BOUND_SET} {name}")
        else:
            lines.append(f" LO {BOUND_SET} {name} {_fmt(lb)}")
            lines.append(f" UP {BOUND_SET} {name} {_fmt(ub)}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def write_mps(model: MilpModel, path: str | Path) -> None:
    Path(path).write_text(export_mps(model))


class MpsParseError(ValueError):
    pass


def import_mps(text: str) -> MilpModel:
    """Parse the dialect emitted by export_mps back into a model."""
    model = MilpModel(name="")
    senses: dict[str, str] = {}
    row_terms: dict[str, dict[int, float]] = {}
    cols: dict[str, int] = {}
    lb: list[float] = []
    ub: list[float] = []
    integer: list[bool] = []
    obj = array("d")
    rhs: dict[str, float] = {}
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
            if len(tokens) != 2:
                raise MpsParseError(f"line {lineno}: a row is a type and a name")
            kind, name = tokens[0].upper(), tokens[1]
            if kind == "N":
                if obj_row is None:
                    obj_row = name
                continue
            if kind not in _ROW_TO_SENSE:
                raise MpsParseError(f"line {lineno}: unknown row type {kind}")
            if name in senses:
                raise MpsParseError(f"line {lineno}: row {name} declared twice")
            senses[name] = _ROW_TO_SENSE[kind]
            row_terms[name] = {}
        elif section == "COLUMNS":
            if len(tokens) >= 3 and tokens[1] == "'MARKER'":
                if tokens[2] == "'INTORG'":
                    in_integer = True
                elif tokens[2] == "'INTEND'":
                    in_integer = False
                else:
                    raise MpsParseError(f"line {lineno}: unknown marker {tokens[2]}")
                continue
            j = cols.setdefault(tokens[0], len(cols))
            if j == len(integer):
                lb.append(0.0)
                ub.append(math.inf)
                integer.append(in_integer)
                obj.append(0.0)
            pairs = tokens[1:]
            if len(pairs) % 2:
                raise MpsParseError(f"line {lineno}: odd row/value tokens")
            for row, value in zip(pairs[::2], pairs[1::2]):
                value = _number(lineno, value)
                if row == obj_row:
                    obj[j] += value
                elif row in row_terms:
                    terms = row_terms[row]
                    terms[j] = terms.get(j, 0.0) + value
                else:
                    raise MpsParseError(f"line {lineno}: unknown row {row}")
        elif section == "RHS":
            pairs = tokens[1:]
            if len(pairs) % 2:
                raise MpsParseError(f"line {lineno}: odd row/value tokens")
            for row, value in zip(pairs[::2], pairs[1::2]):
                if row == obj_row:
                    model.objective_constant = -_number(lineno, value)
                elif row in senses:
                    rhs[row] = _number(lineno, value)
                else:
                    raise MpsParseError(f"line {lineno}: unknown RHS row {row}")
        elif section == "BOUNDS":
            kind = tokens[0].upper()
            if len(tokens) < (3 if kind in ("BV", "FR", "MI") else 4):
                raise MpsParseError(f"line {lineno}: {kind} bound without a column or value")
            j = cols.get(tokens[2])
            if j is None:
                raise MpsParseError(f"line {lineno}: bound on undeclared column {tokens[2]}")
            value = _number(lineno, tokens[3], bound=True) if len(tokens) > 3 else None
            if kind == "FX":
                lb[j] = ub[j] = value
            elif kind == "BV":
                lb[j], ub[j], integer[j] = 0.0, 1.0, True
            elif kind == "LO":
                lb[j] = value
            elif kind == "UP":
                ub[j] = value
            elif kind == "FR":
                lb[j], ub[j] = -math.inf, math.inf
            elif kind == "MI":
                lb[j] = -math.inf
            else:
                raise MpsParseError(f"line {lineno}: unknown bound type {kind}")
        elif section == "RANGES":
            raise MpsParseError("RANGES sections are not part of this dialect")
        else:
            raise MpsParseError(f"line {lineno}: content outside any section")

    # Columns in runs of equal bounds and integrality, one add_vars per run.
    names = iter(cols)
    for kind, run in itertools.groupby(zip(lb, ub, integer)):
        model.add_vars(list(itertools.islice(names, sum(1 for _ in run))), *kind)
    model.c = obj  # the objective as read, in column order

    # All rows in one add_rows: each row's entries by column, zero sums dropped.
    row, col, val = array("i"), array("i"), array("d")
    for i, terms in enumerate(row_terms.values()):
        entries = [(j, v) for j, v in sorted(terms.items()) if v != 0.0]
        row.extend([i] * len(entries))
        col.extend(j for j, _ in entries)
        val.extend(v for _, v in entries)
    sides = [row_sides(name, sense, rhs.get(name, 0.0)) for name, sense in senses.items()]
    model.add_rows(list(senses), array("d", [lo for lo, _ in sides]),
                   array("d", [hi for _, hi in sides]), row, col, val)
    return model


def _number(lineno: int, token: str, bound: bool = False) -> float:
    """``token`` as a float. A token ``float`` cannot read is an error, NaN
    is one anywhere, and ±inf everywhere but in a bound: export writes
    ``UP bnd x inf`` for an unbounded column."""
    try:
        value = float(token)
    except ValueError:
        raise MpsParseError(f"line {lineno}: {token!r} is not a number") from None
    if math.isnan(value) or (math.isinf(value) and not bound):
        raise MpsParseError(f"line {lineno}: {token!r} is not a finite number")
    return value


def read_mps(path: str | Path) -> MilpModel:
    return import_mps(Path(path).read_text())


def models_structurally_equal(a: MilpModel, b: MilpModel) -> bool:
    """Same columns (names, bounds, integrality), rows (names, entries,
    sides), objective and objective constant.

    Zero coefficients are not structure; they compare equal to absent.
    """
    return a.names == b.names and a.row_names == b.row_names and a.arrays() == b.arrays()
