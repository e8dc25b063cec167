"""The benchmark's workloads: inputs from a seed, one pass of units, and the
correctness gate every unit goes through.

A pass runs each input of the workload once, in the order the seed chose.
The same pass code serves the timed run and the traced run: with a tracer in
the context, each call into a layer is also recorded as a span, and the
traced run additionally calls the layers of the pipeline one by one
(``trace_layers``) so that each gets its own time.
"""

from __future__ import annotations

import io
import json
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import blackstart as bs
from blackstart import analysis, cli, milp, mps
from blackstart.solvers import INFEASIBLE, OPTIMAL
from blackstart.solvers.external import import_solution

import toycases
from spans import Tracer

REL_TOL = 1e-6
IEEE39_CASES = ("ieee39_nores", "ieee39_fc50", "ieee39_bt50", "ieee39_bt30")
TOY_CASES = ("toy_t5", "toy_path3", "toy_fc", "toy_bt", "toy_bt_tight")
GENERATED_TOYS = 5
FC_BASE = "ieee39_fc50"
FC_VALUES = (5, 10, 15, 20, 30, 40, 50, 100)
FC_WORKERS = 2
# fc_sweep scenarios that also get the full per-layer breakdown in the traced
# run; each costs two more MPS imports of the fc50 model, so one keeps the
# traced run well inside its time limit.
FC_DETAILED = 1


class GateError(AssertionError):
    """A unit's output failed the benchmark's correctness check."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def close(a: float | None, b: float) -> bool:
    return a is not None and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-9)


@dataclass
class Unit:
    """One unit of work: its timed seconds, accepted schedules, and failure if any."""

    id: str
    seconds: float = 0.0
    schedules: int = 0
    stage: str = "setup"
    failure: dict | None = None


@contextmanager
def gated(unit: Unit):
    """Record any exception as the unit's failure at its current stage; never re-raise."""
    try:
        yield unit
    except Exception as exc:  # the run must go on; the failure is counted and kept
        unit.failure = {"unit": unit.id, "stage": unit.stage,
                        "type": type(exc).__name__, "message": str(exc)[:500]}


@dataclass
class Context:
    work: Path
    reference: dict
    tracer: Tracer | None = None

    def step(self, unit: Unit, name: str):
        """Mark the unit's stage and, when tracing, time the call as a span."""
        unit.stage = name
        return nullcontext() if self.tracer is None else self.tracer.span(name, unit.id)

    def count(self, unit: Unit, name: str, value: float) -> None:
        if self.tracer is not None:
            self.tracer.count(name, unit.id, value)


def _gate_schedule(case, result, reference: float | None) -> None:
    """Status, re-validation, objective from device semantics, reference objective."""
    check(result.status == OPTIMAL, f"status {result.status}: {result.message}")
    check(bs.validate(case, result.schedule).passed, "schedule fails re-validation")
    recomputed = milp.objective_value(case, result.schedule)
    check(close(result.objective, recomputed),
          f"objective {result.objective} != recomputed {recomputed}")
    if reference is not None:
        check(close(result.objective, reference),
              f"objective {result.objective} != reference {reference}")


def trace_layers(ctx: Context, unit: Unit, case) -> None:
    """Call each layer of the external-solve pipeline on its own, as spans.

    ``solve_external`` does encode, export, then in a child process import
    and HiGHS, then import_solution, decode and validate. Here each of those
    runs in this process so that it gets its own time; ``external.spawn``
    starts the solver front end with no arguments, which costs the
    interpreter start and the scipy import and then exits 2.
    """
    from blackstart.solvers import highs_cli  # imports scipy; set-up must not pay for it

    with ctx.step(unit, "milp.encode"):
        model = milp.encode(case)
    ctx.count(unit, "milp.vars", len(model.variables))
    ctx.count(unit, "milp.int_vars", sum(v.is_integer for v in model.variables))
    ctx.count(unit, "milp.rows", len(model.constraints))
    ctx.count(unit, "milp.nnz", sum(len(c.terms) for c in model.constraints))
    with ctx.step(unit, "mps.export"):
        text = mps.export_mps(model)
    ctx.count(unit, "mps.bytes", len(text.encode()))
    with ctx.step(unit, "mps.import"):
        mps.import_mps(text)
    mps_path = ctx.work / f"{unit.id}.mps"
    sol_path = ctx.work / f"{unit.id}.sol"
    mps_path.write_text(text)
    with ctx.step(unit, "highs.solve_mps_file"):
        code = highs_cli.solve_mps_file(mps_path, sol_path)
    check(code == 0, f"in-process solve_mps_file returned {code}")
    with ctx.step(unit, "external.spawn"):
        proc = subprocess.run([sys.executable, "-m", "blackstart.solvers.highs_cli"],
                              capture_output=True, timeout=120)
    check(proc.returncode == 2, f"solver front end without arguments exited {proc.returncode}")
    sol_text = sol_path.read_text()
    mps_path.unlink()
    sol_path.unlink()
    with ctx.step(unit, "external.import_solution"):
        assignment = import_solution(model, sol_text)
    if assignment is None:
        return
    with ctx.step(unit, "milp.decode"):
        schedule = milp.decode(model, assignment, case)
    with ctx.step(unit, "validate.validate"):
        report = bs.validate(case, schedule)
    check(report.passed, "in-process pipeline schedule fails validation")
    with ctx.step(unit, "analysis.artifacts"):
        analysis.write_run_artifacts(ctx.work / "artifacts" / unit.id, case, schedule,
                                     report, model.objective_of(assignment))


def warm_up(ctx: Context) -> None:
    """One small solve, so that lazy imports and the file cache are not charged to unit 1."""
    case = bs.load_case(bs.bundled_case_path("toy_fc"))
    bs.solve_external(case)
    if ctx.tracer is not None:
        # The traced run solves in this process too, which imports scipy once.
        from blackstart.solvers import highs_cli

        mps_path = ctx.work / "warm_up.mps"
        mps.write_mps(milp.encode(case), mps_path)
        highs_cli.solve_mps_file(mps_path, ctx.work / "warm_up.sol")


# -- ieee39_solve ---------------------------------------------------------------

def ieee39_setup(seed: int) -> list:
    names = random.Random(seed).sample(IEEE39_CASES, len(IEEE39_CASES))
    return [(n, bs.bundled_case_path(n), bs.load_case(bs.bundled_case_path(n))) for n in names]


def ieee39_unit(ctx: Context, unit: Unit, item) -> None:
    """``blackstart run`` on one case through ``cli.main``, gated from the files it wrote."""
    name, path, case = item
    out_dir = ctx.work / "run" / unit.id
    stdout = io.StringIO()
    started = time.perf_counter()
    with ctx.step(unit, "cli.run"), redirect_stdout(stdout):
        code = cli.main(["run", "--case", str(path), "--out-dir", str(out_dir)])
    unit.seconds = time.perf_counter() - started
    unit.stage = "gate.status"
    check(code == cli.EXIT_OK, f"blackstart run exited {code}")
    summary = json.loads(stdout.getvalue())
    check(summary["status"] == OPTIMAL, f"status {summary['status']}")
    unit.stage = "gate.validate"
    schedule = bs.Schedule.load(out_dir / "schedule.json")
    check(bs.validate(case, schedule).passed, "schedule.json fails re-validation")
    unit.stage = "gate.objective"
    recomputed = milp.objective_value(case, schedule)
    check(close(summary["objective"], recomputed),
          f"objective {summary['objective']} != recomputed {recomputed}")
    unit.stage = "gate.reference"
    reference = ctx.reference["ieee39_solve"][name]
    check(close(summary["objective"], reference),
          f"objective {summary['objective']} != reference {reference}")
    unit.schedules = 1
    if ctx.tracer is not None:
        with ctx.step(unit, "caseio.load"):
            case = bs.load_case(path)
        with ctx.step(unit, "external.solve"):
            result = bs.solve_external(case)
        _gate_schedule(case, result, reference)
        trace_layers(ctx, unit, case)


# -- toy_oracle -----------------------------------------------------------------

def toy_setup(seed: int) -> list:
    items = [(n, json.loads(bs.bundled_case_path(n).read_text())) for n in TOY_CASES]
    items += [(f"gen{i}", doc) for i, doc in enumerate(toycases.generate(seed, GENERATED_TOYS))]
    random.Random(seed).shuffle(items)
    return items


def toy_unit(ctx: Context, unit: Unit, item) -> None:
    """Oracle and MILP on one small case, then the mutation suite on the oracle's winner."""
    name, doc = item
    started = time.perf_counter()
    with ctx.step(unit, "caseio.load"):
        case = bs.load_case(doc)
    with ctx.step(unit, "enumeration.solve"):
        oracle = bs.solve_enumeration(case)
    with ctx.step(unit, "external.solve"):
        result = bs.solve_external(case)
    mutants = None
    if oracle.status == OPTIMAL:
        with ctx.step(unit, "validate.mutation"):
            mutants = bs.mutation_suite(case, oracle.schedule)
    unit.seconds = time.perf_counter() - started
    ctx.count(unit, "enumeration.combinations", oracle.stats["combinations"])
    unit.stage = "gate.oracle"
    if oracle.status == INFEASIBLE and result.status == INFEASIBLE:
        return
    check(oracle.status == OPTIMAL, f"oracle status {oracle.status}: {oracle.message}")
    check(close(result.objective, oracle.objective),
          f"MILP objective {result.objective} != oracle {oracle.objective}")
    unit.stage = "gate.schedule"
    _gate_schedule(case, result, ctx.reference["toy_oracle"].get(name))
    unit.stage = "gate.mutation"
    ctx.count(unit, "validate.mutants", mutants.total)
    ctx.count(unit, "validate.caught", mutants.detected)
    check(mutants.all_caught, f"mutation suite caught {mutants.detected} of {mutants.total}")
    unit.schedules = 1
    if ctx.tracer is not None:
        trace_layers(ctx, unit, case)


# -- fc_sweep -------------------------------------------------------------------

def fc_setup(seed: int):
    base = bs.load_case(bs.bundled_case_path(FC_BASE))
    values = random.Random(seed).sample(FC_VALUES, len(FC_VALUES))
    return base, values


def _gate_sweep(ctx: Context, units: dict, result) -> None:
    """Rows optimal and equal to the reference; averages non-increasing in capacity."""
    reference = ctx.reference["fc_sweep"]
    for row in result.rows:
        unit = units[row.value]
        with gated(unit):
            unit.stage = "gate.status"
            check(row.status == OPTIMAL, f"status {row.status}: {row.message}")
            unit.stage = "gate.reference"
            ref = reference[f"{row.value:g}"]
            check(close(row.objective, ref["objective"]),
                  f"objective {row.objective} != reference {ref['objective']}")
            check(close(row.average, ref["average"]),
                  f"average {row.average} != reference {ref['average']}")
            unit.schedules = 1
    rows = sorted(result.rows, key=lambda r: r.value)
    for prev, row in zip(rows, rows[1:]):
        unit = units[row.value]
        with gated(unit):
            unit.stage = "gate.monotone"
            check(row.average is not None and prev.average is not None
                  and row.average <= prev.average + 1e-9,
                  f"average rises from {prev.average} at {prev.value:g} "
                  f"to {row.average} at {row.value:g}")
        if unit.failure is not None:
            unit.schedules = 0


def fc_pass(ctx: Context, inputs, tag: str) -> tuple[list[Unit], float]:
    """One ``analysis.sweep`` over the pool; traced, then each scenario alone.

    A scenario runs inside a pool worker, out of this process's reach, so a
    unit's seconds is its share of the sweep: makespan x workers / scenarios.
    """
    base, values = inputs
    units = {v: Unit(f"{tag}:fc{v:g}") for v in values}
    spec = analysis.SweepSpec(case=base, axis="fc_capacity", values=list(values),
                              workers=FC_WORKERS)
    started = time.perf_counter()
    with nullcontext() if ctx.tracer is None else ctx.tracer.span("analysis.sweep", f"{tag}:sweep"):
        result = analysis.sweep(spec)
    makespan = time.perf_counter() - started
    for unit in units.values():
        unit.seconds = makespan * FC_WORKERS / len(values)
    _gate_sweep(ctx, units, result)
    if ctx.tracer is not None:
        doc_json = json.dumps(bs.case_to_document(base))
        for i, v in enumerate(values):
            unit = Unit(f"{tag}:serial:fc{v:g}")
            with gated(unit), ctx.tracer.span("unit", unit.id):
                with ctx.step(unit, "analysis.scenario"):
                    with ctx.step(unit, "caseio.load"):
                        case = bs.load_case(json.loads(doc_json))
                    with ctx.step(unit, "caseio.scenario_doc"):
                        case = analysis.apply_axis_value(case, "fc_capacity", v)
                    with ctx.step(unit, "external.solve"):
                        res = bs.solve_external(case)
                _gate_schedule(case, res, ctx.reference["fc_sweep"][f"{v:g}"]["objective"])
                if i < FC_DETAILED:
                    trace_layers(ctx, unit, case)
            if unit.failure is not None and units[v].failure is None:
                units[v].failure, units[v].schedules = unit.failure, 0
    return list(units.values()), makespan


def closed_loop_pass(unit_fn: Callable) -> Callable:
    """A pass of a one-client closed loop: each input in turn, the next after the last."""
    def run_pass(ctx: Context, inputs, tag: str) -> tuple[list[Unit], float]:
        units = []
        for item in inputs:
            unit = Unit(f"{tag}:{item[0]}")
            root = nullcontext() if ctx.tracer is None else ctx.tracer.span("unit", unit.id)
            with gated(unit), root:
                unit_fn(ctx, unit, item)
            units.append(unit)
        return units, sum(u.seconds for u in units)
    return run_pass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int], object]
    run_pass: Callable[[Context, object, str], tuple[list[Unit], float]]
    # Per-layer metrics only this workload exercises, beyond the common ones.
    extra_layers: tuple[str, ...]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "ieee39_solve",
            "blackstart run on the four 39-bus cases (1.9k-4k vars, 0.7-1.6 MB MPS): "
            "MPS import, encode and HiGHS dominate; ROADMAP item 2 (linear import, "
            "IR) shows here",
            ieee39_setup, closed_loop_pass(ieee39_unit),
            ("cli.self_s",),
        ),
        Workload(
            "toy_oracle",
            "oracle plus MILP on small bundled and seeded cases: the solver child's "
            "start dominates and MPS import is ~30 ms; in-process solve shows here, "
            "import fixes should not",
            toy_setup, closed_loop_pass(toy_unit),
            ("enumeration.solve_s", "enumeration.combinations", "validate.mutation_s",
             "validate.mutants", "validate.caught_frac"),
        ),
        Workload(
            "fc_sweep",
            "fc_capacity sweep of ieee39_fc50 over 8 values on 2 pool workers: "
            "per-scenario overhead, document round trips and pool packing show here",
            fc_setup, fc_pass,
            ("caseio.scenario_doc_s", "analysis.scenario_s.p50", "analysis.pool_busy_frac"),
        ),
    )
}
