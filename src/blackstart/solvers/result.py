"""Common result type for the solve backends."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..schedule import Schedule
from ..validate import ValidationReport

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
ERROR = "error"


@dataclass
class SolveResult:
    status: str
    assignment: dict[str, float] | None = None
    objective: float | None = None
    stats: dict = field(default_factory=dict)
    schedule: Schedule | None = None
    validation: ValidationReport | None = None
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status == OPTIMAL
