"""Benchmark of the unit of work: case document -> validated schedule.

Run from the root of a checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload ieee39_solve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1
    python3 perfbench/run.py --list

``--trace 0`` is the timed run and reports the end-to-end metrics;
``--trace 1`` is the separate traced run and reports the per-layer metrics.
Every metric is printed as ``name value unit n=<samples>``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The full result, with the environment block, each
unit's outcome and (traced) every span, is written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_PROBES = 21

END_TO_END = {  # name: unit; the README defines each
    "setup_s": "s",
    "solve_s.p50": "s",
    "sweep_s.p50": "s",
    "schedules_per_s": "1/s",
    "peak_rss_mb": "MB",
}

COUNTS = ("milp.vars", "milp.int_vars", "milp.rows", "milp.nnz", "mps.bytes")
SPAN_METRICS = {
    "caseio.load_s": "caseio.load",
    "milp.encode_s": "milp.encode",
    "mps.export_s": "mps.export",
    "mps.import_s": "mps.import",
    "external.spawn_s": "external.spawn",
    "external.import_solution_s": "external.import_solution",
    "milp.decode_s": "milp.decode",
    "validate.validate_s": "validate.validate",
    "analysis.artifacts_s": "analysis.artifacts",
    "trace.unit_s.p50": "unit",
    "enumeration.solve_s": "enumeration.solve",
    "validate.mutation_s": "validate.mutation",
    "caseio.scenario_doc_s": "caseio.scenario_doc",
    "analysis.scenario_s.p50": "analysis.scenario",
}
# Layers that solve_external runs, each timed on its own in the traced run;
# the rest of solve_external's wall time is its self time (file I/O, waiting).
EXTERNAL_PARTS = ("milp.encode", "mps.export", "highs.solve_mps_file", "external.spawn",
                  "external.import_solution", "milp.decode", "validate.validate")
COMMON_LAYERS = (
    "caseio.load_s", "milp.encode_s", *COUNTS[:4], "mps.export_s", "mps.bytes",
    "mps.import_s", "highs.solve_s", "external.spawn_s", "external.import_solution_s",
    "external.self_s", "milp.decode_s", "validate.validate_s", "analysis.artifacts_s",
    "trace.unit_s.p50",
)


def layer_unit(name: str) -> str:
    if name in COUNTS or name in ("enumeration.combinations", "validate.mutants"):
        return "count"
    return "ratio" if name.endswith("_frac") else "s"


def median(values: list[float]) -> tuple[float, int]:
    return (statistics.median(values), len(values)) if values else (float("nan"), 0)


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            models = [ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": commit,
    }


def peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import the program and build the inputs."""
    code = (f"import sys; sys.path[:0] = [{str(HERE)!r}, {str(SRC)!r}]; "
            f"import workloads; workloads.WORKLOADS[{workload!r}].setup({seed})")
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        # No timeout: with one, subprocess polls for the exit in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", code], check=True)
        samples.append(time.perf_counter() - started)
    return samples


def run_passes(wl, ctx, inputs, seconds: float):
    """Closed loop: whole passes until ``seconds`` have gone by, at least one."""
    units, passes = [], []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        pass_units, pass_seconds = wl.run_pass(ctx, inputs, f"p{len(passes)}")
        units += pass_units
        passes.append(pass_seconds)
    return units, passes


def timed_metrics(units, passes, setup) -> dict:
    metrics = {
        "setup_s": median(setup),
        # A unit that raised before its timed call ended has no time.
        "solve_s.p50": median([u.seconds for u in units if u.seconds > 0]),
        "sweep_s.p50": median(passes),
        "schedules_per_s": (sum(u.schedules for u in units) / sum(passes), len(units)),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }
    return {k: {"value": v, "unit": END_TO_END[k], "n": n} for k, (v, n) in metrics.items()}


def layer_metrics(tracer, extra: tuple[str, ...]) -> tuple[dict, dict]:
    """Per-layer metrics, and each unit's layer times (its breakdown)."""
    import workloads

    per_unit = {name: tracer.per_unit(span) for name, span in SPAN_METRICS.items()}
    solve_file = tracer.per_unit("highs.solve_mps_file")
    imports = tracer.per_unit("mps.import")
    per_unit["highs.solve_s"] = {u: s - imports[u] for u, s in solve_file.items() if u in imports}
    parts = [tracer.per_unit(p) for p in EXTERNAL_PARTS]
    per_unit["external.self_s"] = {
        u: s - sum(p[u] for p in parts)
        for u, s in tracer.per_unit("external.solve").items() if all(u in p for p in parts)
    }
    cli_parts = [tracer.per_unit(p)
                 for p in ("caseio.load", "external.solve", "analysis.artifacts")]
    per_unit["cli.self_s"] = {
        u: s - sum(p[u] for p in cli_parts)
        for u, s in tracer.per_unit("cli.run").items() if all(u in p for p in cli_parts)
    }
    metrics = {name: median(list(values.values())) for name, values in per_unit.items()}

    # Counts repeat exactly from pass to pass; report one pass's totals.
    first = [(n, v) for n, u, v in tracer.counts if u.startswith("p0:")]
    for name in (*COUNTS, "enumeration.combinations", "validate.mutants", "validate.caught"):
        values = [v for n, v in first if n == name]
        metrics[name] = (sum(values), len(values))
    mutants = metrics.pop("validate.caught")
    metrics["validate.caught_frac"] = (
        mutants[0] / metrics["validate.mutants"][0] if metrics["validate.mutants"][0] else 0.0,
        mutants[1],
    )
    sweeps = tracer.per_unit("analysis.sweep")
    scenarios = tracer.per_unit("analysis.scenario")
    busy = []
    for sweep_unit, makespan in sweeps.items():
        tag = sweep_unit.split(":")[0] + ":"
        service = sum(s for u, s in scenarios.items() if u.startswith(tag))
        busy.append(service / (workloads.FC_WORKERS * makespan))
    metrics["analysis.pool_busy_frac"] = median(busy)

    breakdown: dict[str, dict[str, float]] = {}
    for name, values in per_unit.items():
        if name not in ("trace.unit_s.p50", "analysis.scenario_s.p50"):
            for unit, seconds in values.items():
                breakdown.setdefault(unit, {})[name] = seconds
    return ({name: {"value": metrics[name][0], "unit": layer_unit(name), "n": metrics[name][1]}
             for name in (*COMMON_LAYERS, *extra)}, breakdown)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 reference: dict | None = None) -> dict:
    """One timed (trace=False) or traced run of a workload; returns the result document."""
    import workloads
    from spans import Tracer

    wl = workloads.WORKLOADS[name]
    if reference is None:
        reference = json.loads((HERE / "reference.json").read_text())
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(work=work, reference=reference, tracer=Tracer() if trace else None)
    try:
        setup = [] if trace else setup_seconds(name, seed)
        inputs = wl.setup(seed)
        workloads.warm_up(ctx)
        units, passes = run_passes(wl, ctx, inputs, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    breakdown = {}
    if trace:
        metrics, breakdown = layer_metrics(ctx.tracer, wl.extra_layers)
    else:
        metrics = timed_metrics(units, passes, setup)
    failures = [u.failure for u in units if u.failure is not None]
    doc = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "attempted": len(units), "failed": len(failures),
        "failed_frac": len(failures) / len(units),
        "metrics": metrics,
        "passes": passes,
        "units": [{"id": u.id, "seconds": u.seconds, "schedules": u.schedules} for u in units],
        "failures": failures,
    }
    if trace:
        doc["breakdown"] = breakdown
        doc["spans"] = ctx.tracer.to_document()
    return doc


def report(doc: dict) -> None:
    print(f"# {doc['workload']} seed={doc['seed']} seconds={doc['seconds']} trace={doc['trace']}")
    print(f"# environment {json.dumps(doc['environment'], sort_keys=True)}")
    for name, m in doc["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']} n={m['n']}")
    # Not in BENCHMARK.json, whose metrics must never be 0.
    print(f"failed_frac {doc['failed_frac']:.6g} ratio n={doc['attempted']}")
    for unit, layers in doc.get("breakdown", {}).items():
        top = max(layers, key=layers.get)
        print(f"# unit {unit}: largest layer time {top} {layers[top]:.4g} s of {len(layers)}")
    for f in doc["failures"]:
        print(f"# failed {f['unit']} at {f['stage']}: {f['type']}: {f['message']}")


def list_workloads(benchmark: dict) -> None:
    import workloads

    driven = {w["name"] for w in benchmark["workloads"]}
    for wl in workloads.WORKLOADS.values():
        note = "" if wl.name in driven else " (not in BENCHMARK.json: see the README)"
        print(f"{wl.name}: {wl.why}{note}")
        print(f"  end-to-end (--trace 0): {', '.join([*END_TO_END, 'failed_frac'])}")
        print(f"  per-layer (--trace 1): {', '.join([*COMMON_LAYERS, *wl.extra_layers])}")


def prepare() -> str | None:
    """Make ./src the program this process and its children run; None when it is."""
    if not (SRC / "blackstart" / "__init__.py").is_file():
        return f"no program source at {SRC}; run from the root of a checkout"
    sys.path[:0] = [str(HERE), str(SRC)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    # Solver files go under the checkout, not the system temporary directory.
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    import blackstart
    if not Path(blackstart.__file__).resolve().is_relative_to(SRC.resolve()):
        return f"blackstart imported from {blackstart.__file__}, not {SRC}"
    return None


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=WORK / "results",
                        help="directory for the full result documents")
    parser.add_argument("--list", action="store_true", help="list workloads and their metrics")
    args = parser.parse_args(argv)

    problem = prepare()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    import workloads

    if args.list:
        list_workloads(benchmark)
        return 0
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}")
    args.out.mkdir(parents=True, exist_ok=True)
    docs = []
    for name in names:
        doc = run_workload(name, args.seed, args.seconds, bool(args.trace))
        (args.out / f"{name}-trace{args.trace}.json").write_text(json.dumps(doc, indent=1) + "\n")
        report(doc)
        docs.append(doc)
    # The last line carries the metrics BENCHMARK.json declares; the rest are printed above.
    declared = [m["name"] for m in benchmark["per_layer" if args.trace else "end_to_end"]]
    prefix = len(docs) > 1
    print(json.dumps({
        "correct": all(d["failed"] == 0 for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": {
            (f"{d['workload']}/{k}" if prefix else k):
                {"value": d["metrics"][k]["value"], "unit": d["metrics"][k]["unit"]}
            for d in docs for k in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
