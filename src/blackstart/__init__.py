"""Black-start generator startup sequencing with fuel cells and batteries.

Workflow: load a case document, encode it as a time-expanded MILP, solve
it with the enumeration oracle, the bundled HiGHS on a forked solver host, or a
solver command exchanging MPS/solution files, and verify any resulting
schedule against the device semantics with the independent validator.
"""

from .caseio import case_to_document, dumps_case, load_case
from .cases import bundled_case_path, bundled_cases
from .devices import soc_trajectory, system_power
from .grid import (
    Battery,
    Branch,
    Bus,
    CaseError,
    FuelCell,
    Generator,
    GridCase,
    TimeGrid,
    bus_importance_from_degree,
)
from .milp import (
    DecodeError,
    decode,
    encode,
    objective_value,
    point_from_schedule,
)
from .model import EncodingError, MilpModel
from .mps import export_mps, import_mps, models_structurally_equal, read_mps, write_mps
from .schedule import Schedule, empty_schedule
from .solvers import (
    SolveResult,
    solve,
    solve_enumeration,
    solve_external,
)
from .validate import (
    ChainError,
    MalformedScheduleError,
    ValidationReport,
    energization_chain,
    mutation_suite,
    validate,
)

__version__ = "0.1.0"
