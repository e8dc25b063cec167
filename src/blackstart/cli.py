"""Command-line front end.

Verbs: run, sweep, validate, export-mps, report. Exit codes: 0 success;
2 usage error, a case that does not load or encode, a schedule that does
not load or fit the case, or an output path that cannot be written (``run``
makes its artifact directory before it solves); 3 solve failure (error,
infeasible, or over the enumeration cap); 4 validation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import analysis, solvers
from .caseio import load_case
from .grid import CaseError
from .milp import EncodingError, encode
from .mps import export_mps
from .schedule import Schedule
from .validate import MalformedScheduleError, validate

EXIT_OK = 0
EXIT_LOAD = 2
EXIT_SOLVE = 3
EXIT_VALIDATION = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blackstart",
        description="Black-start generator startup sequencing",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--case", required=True, help="case document path")
        p.add_argument("--backend", choices=solvers.BACKENDS, default="external")
        p.add_argument("--solver-cmd", default=None,
                       help="solver command template with {mps} and {sol} placeholders, "
                            "run on an MPS file (default: "
                            f"${solvers.ENV_SOLVER_CMD}, else the bundled HiGHS "
                            "on a forked solver host, with no files)")
        p.add_argument("--enum-cap", type=int, default=solvers.DEFAULT_COMBINATION_CAP)
        p.add_argument("--out-dir", default="out", help="artifact directory")

    p_run = sub.add_parser("run", help="solve a case and write artifacts")
    common(p_run)

    p_sweep = sub.add_parser(
        "sweep", help="sensitivity sweeps, one per --axis, in one process")
    common(p_sweep)
    p_sweep.add_argument("--axis", required=True, action="append",
                         choices=analysis.SWEEP_AXES, help="repeatable")
    p_sweep.add_argument(
        "--values", required=True, action="append",
        help="one per --axis, in the same order: comma-separated numbers, or "
             "for resource_location semicolon-separated groups of bus ids "
             "joined by '+', e.g. 'b6+b16;b11+b19'",
    )
    p_sweep.add_argument("--workers", type=int, default=1)

    p_val = sub.add_parser("validate", help="validate a stored schedule")
    p_val.add_argument("--case", required=True)
    p_val.add_argument("--schedule", required=True)

    p_mps = sub.add_parser("export-mps", help="write the case's model as MPS")
    p_mps.add_argument("--case", required=True)
    p_mps.add_argument("--out", default="-", help="output path or - for stdout")

    p_rep = sub.add_parser("report", help="tables and series from a stored schedule")
    p_rep.add_argument("--case", required=True)
    p_rep.add_argument("--schedule", required=True)
    p_rep.add_argument("--out-dir", default="out")
    return parser


def _load(path: str):
    try:
        return load_case(Path(path))
    except (CaseError, OSError) as exc:
        print(f"case load failed: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_LOAD)


def _load_and_validate(case_path: str, schedule_path: str):
    """The case, the stored schedule, and the schedule's validation report."""
    case = _load(case_path)
    try:
        schedule = Schedule.load(schedule_path)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"schedule load failed: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_LOAD)
    try:
        return case, schedule, validate(case, schedule)
    except MalformedScheduleError as exc:
        print(f"schedule does not fit the case: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_LOAD)


def _parse_values(axis: str, text: str) -> list:
    if axis == "resource_location":
        return [group.split("+") for group in text.split(";") if group]
    return [float(v) for v in text.split(",") if v]


def cmd_run(args: argparse.Namespace) -> int:
    case = _load(args.case)
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    result = solvers.solve(case, args.backend, solver_command=args.solver_cmd,
                           enum_cap=args.enum_cap)
    if result.status == solvers.ERROR and result.validation is not None:
        (Path(args.out_dir) / "validation.json").write_text(result.validation.dumps())
        print(f"solve produced an invalid solution: {result.message}", file=sys.stderr)
        return EXIT_VALIDATION
    if not result.ok or result.schedule is None:
        print(f"solve failed ({result.status}): {result.message}", file=sys.stderr)
        return EXIT_SOLVE
    paths = analysis.write_run_artifacts(
        args.out_dir, case, result.schedule, result.validation, result.objective
    )
    summary = {
        "status": result.status,
        "objective": result.objective,
        "stats": result.stats,
        "artifacts": {k: str(v) for k, v in paths.items()},
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    """One sweep per ``--axis``, all on this process's solver hosts; every
    spec is checked before the first scenario runs."""
    case = _load(args.case)
    try:
        if len(args.values) != len(args.axis) or len(set(args.axis)) != len(args.axis):
            raise ValueError("give each axis once, with one --values per --axis")
        specs = [analysis.SweepSpec(
            case=case,
            axis=axis,
            values=_parse_values(axis, values),
            backend=args.backend,
            solver_command=args.solver_cmd,
            workers=args.workers,
            enum_cap=args.enum_cap,
        ) for axis, values in zip(args.axis, args.values)]
    except ValueError as exc:
        print(f"bad sweep spec: {exc}", file=sys.stderr)
        return EXIT_LOAD
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    solved = True
    for spec in specs:
        result = analysis.sweep(spec)
        out = out_dir / f"sweep_{spec.axis}.csv"
        out.write_text(result.to_csv())
        print(result.to_csv(), end="")
        print(f"wrote {out}", file=sys.stderr)
        solved &= all(r.status == solvers.OPTIMAL for r in result.rows)
    return EXIT_OK if solved else EXIT_SOLVE


def cmd_validate(args: argparse.Namespace) -> int:
    _, _, report = _load_and_validate(args.case, args.schedule)
    print(report.dumps(), end="")
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_export_mps(args: argparse.Namespace) -> int:
    case = _load(args.case)
    text = export_mps(encode(case))
    if args.out == "-":
        print(text, end="")
    else:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    case, schedule, report = _load_and_validate(args.case, args.schedule)
    if not report.passed:
        print(f"schedule fails validation with {len(report.violations)} violation(s)",
              file=sys.stderr)
        return EXIT_VALIDATION
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "gsus.csv").write_text(analysis.gsus_table(schedule, case).to_csv())
    (out / "restored_power.csv").write_text(
        analysis.series_to_csv(analysis.restored_power_series(schedule, case))
    )
    stats = analysis.restoration_stats(schedule, case)
    (out / "stats.json").write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n")
    print(json.dumps(stats, indent=2, sort_keys=True))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": cmd_run,
        "sweep": cmd_sweep,
        "validate": cmd_validate,
        "export-mps": cmd_export_mps,
        "report": cmd_report,
    }
    try:
        return handlers[args.verb](args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    except EncodingError as exc:
        print(f"case cannot be encoded: {exc}", file=sys.stderr)
        return EXIT_LOAD
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_LOAD
    except solvers.EnumerationCapError as exc:
        print(f"enumeration refused: {exc}", file=sys.stderr)
        return EXIT_SOLVE


if __name__ == "__main__":
    sys.exit(main())
