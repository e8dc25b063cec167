"""Solve backends: exhaustive enumeration, and HiGHS on a solver host or a solver command."""

from __future__ import annotations

from ..grid import GridCase
from .enumeration import (
    DEFAULT_COMBINATION_CAP,
    EnumerationCapError,
    energization_closure,
    solve_enumeration,
)
from .external import (
    ENV_SOLVER_CMD,
    import_solution,
    resolve_solver_command,
    solve_external,
)
from .result import ERROR, INFEASIBLE, OPTIMAL, SolveResult

BACKENDS = ("enum", "external")


def solve(case: GridCase, backend: str = "external", *,
          solver_command: str | None = None,
          enum_cap: int = DEFAULT_COMBINATION_CAP) -> SolveResult:
    """Solve a case with the named backend."""
    if backend == "enum":
        return solve_enumeration(case, cap=enum_cap)
    if backend == "external":
        return solve_external(case, command=solver_command)
    raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")


__all__ = [
    "BACKENDS",
    "DEFAULT_COMBINATION_CAP",
    "ENV_SOLVER_CMD",
    "ERROR",
    "EnumerationCapError",
    "INFEASIBLE",
    "OPTIMAL",
    "SolveResult",
    "energization_closure",
    "import_solution",
    "resolve_solver_command",
    "solve",
    "solve_enumeration",
    "solve_external",
]
