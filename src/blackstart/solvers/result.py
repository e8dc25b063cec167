"""Common result type for the solve backends."""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from ..schedule import Schedule
from ..validate import ValidationReport

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
ERROR = "error"
# The one line of a solution document that marks a proven-infeasible model.
INFEASIBLE_SENTINEL = "=infeasible="


@dataclass
class SolveResult:
    """A solve's outcome. ``point`` is the solver's answer, an ``array("d")``
    of one value per variable in ``MilpModel.names`` order (None where the
    solver gave none, and for the enumeration oracle, which builds no model)."""

    status: str
    point: array | None = None
    objective: float | None = None
    stats: dict = field(default_factory=dict)
    schedule: Schedule | None = None
    validation: ValidationReport | None = None
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status == OPTIMAL
