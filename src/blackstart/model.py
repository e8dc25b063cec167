"""A solver-agnostic MILP, stored as the arrays HiGHS takes: ``MilpModel``."""

from __future__ import annotations

import math
import operator
from array import array
from collections.abc import Iterable, Sequence
from typing import NamedTuple


class EncodingError(ValueError):
    """The case cannot be encoded into a meaningful model."""


class VarRef(NamedTuple):
    """One model variable: its name, bounds and integrality."""

    name: str
    lb: float
    ub: float
    is_integer: bool


class Constraint(NamedTuple):
    """Linear constraint: sum of terms <sense> rhs, sense in {<=, >=, =}."""

    name: str
    terms: tuple[tuple[str, float], ...]
    sense: str
    rhs: float


class ModelArrays(NamedTuple):
    """A model as flat arrays, in its column (``MilpModel.names``) and row order.

    The constraint matrix is COO (``row``, ``col``, ``val``); each row is
    ``row_lo <= a·x <= row_hi`` with infinite sides for one-sided senses;
    ``integrality`` is 1 for an integer variable. The objective is
    ``c·x + constant``, minimized.
    """

    c: array
    row: array
    col: array
    val: array
    row_lo: array
    row_hi: array
    lb: array
    ub: array
    integrality: array
    constant: float


class MilpModel:
    """Immutable-after-build MILP, stored as the arrays HiGHS takes; minimize objective.

    Column order is the model's only order. Each fact is stored once, as it
    is built: columns are ``names`` (declaration order) with the objective
    ``c`` and bound and integrality ``array.array``s beside them; rows are
    ``row_names`` with lower and upper side arrays (from which ``row_sense``
    gives back a row's sense and rhs) and a COO matrix whose rows list their
    entries in ascending column order. ``add_vars``, ``fix`` and
    ``add_rows`` are the only builders: ``add_vars`` appends a block of
    columns with zero objective, and the encoder and the MPS reader add
    their coefficients into ``c``. ``arrays()`` and ``size()`` only copy or
    count what is stored; MPS export and ``models_structurally_equal`` read
    the arrays too.

    A solution, or any point, is a sequence of floats in ``names`` order;
    ``objective_of`` and ``check_assignment`` take one.

    ``variables`` and ``constraints`` are views rebuilt from the arrays on
    each access (``VarRef``s, and ``Constraint``s with name-sorted terms).
    Their only reader is the benchmark's ``trace_layers``
    (``perfbench/workloads.py``); they go once that reads ``size()``.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.c = array("d")
        self.objective_constant = 0.0
        self.names: list[str] = []
        self.row_names: list[str] = []
        self._pos: dict[str, int] = {}
        self._lb, self._ub, self._integrality = array("d"), array("d"), array("b")
        self._row, self._col, self._val = array("i"), array("i"), array("d")
        self._row_lo, self._row_hi = array("d"), array("d")

    def add_vars(self, names: list[str], lb: float, ub: float, is_integer: bool) -> int:
        """Append columns ``names`` with one bound pair and integrality and a
        zero objective; returns the first one's index."""
        first, pos, n = len(self.names), self._pos, len(names)
        self.names += names
        pos.update(zip(names, range(first, first + n)))
        if len(pos) != len(self.names):
            dup = next(name for j, name in enumerate(self.names) if pos[name] != j)
            raise EncodingError(f"duplicate variable {dup}")
        self.c += array("d", bytes(8 * n))
        self._lb += array("d", [lb]) * n
        self._ub += array("d", [ub]) * n
        self._integrality += array("b", [is_integer]) * n
        return first

    def fix(self, cols: Iterable[int], value: float) -> None:
        for j in cols:
            self._lb[j] = self._ub[j] = value

    def add_rows(self, names: list[str], lo: array, hi: array, rows: array, cols: array,
                 vals: array) -> None:
        """Append rows ``names`` with sides ``lo <= a·x <= hi`` and the COO
        entries ``rows``, ``cols``, ``vals``: row indices go on from
        ``len(row_names)``, and each row's entries come together, in strictly
        ascending order of declared columns, with nonzero coefficients."""
        first = len(self.row_names)
        self.row_names += names
        self._row += rows
        self._col += cols
        self._val += vals
        self._row_lo += lo
        self._row_hi += hi
        if not (len(self._row) == len(self._col) == len(self._val)
                and len(self._row_lo) == len(self._row_hi) == len(self.row_names)
                and (not rows or first <= rows[0] <= rows[-1] < len(self.row_names)
                     and 0 <= min(cols) and max(cols) < len(self.names))):
            raise EncodingError(f"rows {first}-{len(self.row_names) - 1}: entries, sides or "
                                "columns do not line up")

    @property
    def variables(self) -> tuple[VarRef, ...]:
        return tuple(map(VarRef, self.names, self._lb, self._ub, map(bool, self._integrality)))

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        names = self.names
        terms: list[list[tuple[str, float]]] = [[] for _ in self.row_names]
        for i, j, coef in zip(self._row, self._col, self._val):
            terms[i].append((names[j], coef))
        return tuple(
            Constraint(name, tuple(sorted(row_terms)), *row_sense(lo, hi))
            for name, row_terms, lo, hi in zip(self.row_names, terms, self._row_lo, self._row_hi)
        )

    def column(self, name: str) -> int | None:
        """The index of column ``name``, None if the model has none."""
        return self._pos.get(name)

    def size(self) -> dict[str, int]:
        """Variable, integer-variable, row and constraint-nonzero counts."""
        return {
            "vars": len(self.names),
            "int_vars": self._integrality.count(1),
            "rows": len(self.row_names),
            "nnz": len(self._val),
        }

    def arrays(self) -> ModelArrays:
        """The model as flat ``array.array``s, cheap to pickle and to wrap in numpy."""
        return ModelArrays(
            self.c[:], self._row[:], self._col[:], self._val[:], self._row_lo[:],
            self._row_hi[:], lb=self._lb[:], ub=self._ub[:], integrality=self._integrality[:],
            constant=self.objective_constant,
        )

    def objective_of(self, x: Sequence[float]) -> float:
        """Objective value of a point (compensated summation)."""
        return math.fsum(map(operator.mul, self.c, x)) + self.objective_constant

    def check_assignment(self, x: Sequence[float], tol: float = 1e-6) -> list[str]:
        """Names of the constraints and bounds a point violates."""
        bad = [f"bounds:{name}" for name, xj, lb, ub in zip(self.names, x, self._lb, self._ub)
               if xj < lb - tol or xj > ub + tol]
        products: list[list[float]] = [[] for _ in self.row_names]
        for i, j, coef in zip(self._row, self._col, self._val):
            products[i].append(coef * x[j])
        for name, row, lo, hi in zip(self.row_names, products, self._row_lo, self._row_hi):
            lhs = math.fsum(row)
            if lhs < lo - tol or lhs > hi + tol:
                bad.append(name)
        return bad


def row_sides(name: str, sense: str, rhs: float) -> tuple[float, float]:
    """The sides ``lo <= a·x <= hi`` of row ``name`` with a sense and rhs."""
    if sense == "<=":
        return -math.inf, rhs
    if sense == ">=":
        return rhs, math.inf
    if sense == "=":
        return rhs, rhs
    raise EncodingError(f"constraint {name}: bad sense {sense!r}")


def row_sense(lo: float, hi: float) -> tuple[str, float]:
    """The ``(sense, rhs)`` of a row stored with sides ``lo <= a·x <= hi``."""
    if lo == hi:
        return "=", lo
    if lo == -math.inf:
        return "<=", hi
    return ">=", lo
