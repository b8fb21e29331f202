"""e2vem benchmark: time to a checked solution, with an outside-in trace.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload honeycomb-L3 --seed 0 --seconds 20 --trace 0

One process, one closed-loop client: each timed run starts after the
previous one has finished and been checked. A timed run builds a fresh
``PolygonalMesh`` per input mesh, calls ``solve_problem(mesh, "minimal",
problem, load_mode, solver="auto")`` and then ``solution_errors``.
Checks run outside the timed region. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` also makes one traced
run and reports the per-layer metrics. The last stdout line is the JSON
result; the lines before it are a readable report.
"""
from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from functools import cached_property  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-ups per run (this process plus fresh probe processes); setup_s is
#: their median.
SETUP_SAMPLES = 5


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import e2vem from this checkout's sources, never from elsewhere."""
    if not (SRC / "e2vem" / "__init__.py").is_file():
        fail(f"no e2vem sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import e2vem
    if SRC not in Path(e2vem.__file__).resolve().parents:
        fail(f"imported e2vem from {e2vem.__file__}, not from {SRC}")
    return e2vem


def cached_names(cls) -> list:
    """Names of the ``cached_property`` attributes of ``cls``."""
    return sorted({name for klass in cls.__mro__
                   for name, attr in vars(klass).items()
                   if isinstance(attr, cached_property)})


def warm_up(e2vem, workload, mesh_cached) -> None:
    """Pay the one-time per-process cost (lazy imports, rule caches, BLAS
    thread start) on the family's level-0 mesh, through both the Cholesky
    and the CG path, and check that the freshness test sees a cached
    attribute."""
    base = e2vem.make_mesh(e2vem.MeshFamilySpec(workload.family, level=0))
    problem = workload.problem()
    for solver in ("cholesky", "cg"):
        mesh = e2vem.PolygonalMesh(base.vertices, base.cells)
        result = e2vem.solve_problem(mesh, "minimal", problem,
                                     workload.load_mode, solver=solver)
        e2vem.solution_errors(result)
    probe = e2vem.PolygonalMesh(base.vertices, base.cells)
    _ = probe.h
    if not any(name in vars(probe) for name in mesh_cached):
        fail("freshness self-test: a mesh with a cached attribute was "
             f"not detected (cached properties: {mesh_cached})")


def set_up(workload_name: str, seed: int) -> dict:
    """Import, warm up and build the inputs; returns the phase times."""
    start = time.perf_counter()
    e2vem = import_library()
    import workloads
    import_s = time.perf_counter() - start
    if workload_name not in workloads.WORKLOADS:
        fail(f"unknown workload {workload_name!r}; expected one of "
             f"{sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[workload_name]
    mesh_cached = cached_names(e2vem.PolygonalMesh)
    start = time.perf_counter()
    warm_up(e2vem, workload, mesh_cached)
    warmup_s = time.perf_counter() - start
    base, make_mesh_s = workloads.make_base(workload)
    inputs = workloads.make_inputs(workload, base, seed, 0)
    return {"e2vem": e2vem, "workloads": workloads, "workload": workload,
            "seed": seed, "base": base, "inputs": inputs,
            "mesh_cached": mesh_cached,
            "setup_s": time.perf_counter() - PROCESS_START,
            "import_s": import_s, "warmup_s": warmup_s,
            "make_mesh_s": make_mesh_s}


def timed_run(e2vem, workload, problem, inputs, mesh_cached) -> list:
    """One timed run over every input mesh; returns per-mesh outcomes
    (the mesh objects themselves are dropped)."""
    outcomes = []
    for vertices, cells in inputs:
        mesh = e2vem.PolygonalMesh(vertices, cells)
        stale = [name for name in mesh_cached if name in vars(mesh)]
        result = e2vem.solve_problem(mesh, "minimal", problem,
                                     workload.load_mode, solver="auto")
        errors = e2vem.solution_errors(result)
        outcomes.append({"stale": stale, "degrees": result.degrees,
                         "values": result.vertex_values,
                         "iterations": result.stats.iterations,
                         "errors": errors})
    return outcomes


def run_inputs(ctx, run: int) -> list:
    """Input meshes of timed run ``run``; a jittered workload gets fresh
    ones for every run."""
    if run == 0 or not ctx["workload"].seeded:
        return ctx["inputs"]
    return ctx["workloads"].make_inputs(ctx["workload"], ctx["base"],
                                        ctx["seed"], run)


def measured_run(ctx, problem, run: int, tracer=None) -> dict:
    """Time run number ``run``, then check it outside the timed region."""
    e2vem, wl, workload = ctx["e2vem"], ctx["workloads"], ctx["workload"]
    inputs = run_inputs(ctx, run)
    n_cells = sum(len(c) for _, c in inputs)
    outcomes, crash = None, None
    region = contextlib.nullcontext() if tracer is None else tracer.tracing()
    start = time.perf_counter()
    try:
        with region:
            outcomes = timed_run(e2vem, workload, problem, inputs,
                                 ctx["mesh_cached"])
    except Exception:  # a failing run is counted, the loop goes on
        crash = traceback.format_exc()
    seconds = time.perf_counter() - start
    if crash is not None:
        return {"seconds": seconds, "outcomes": None, "problems": [crash],
                "cells": n_cells}
    references = (ctx["references"][workload.name]
                  if wl.has_reference(workload, ctx["seed"], run) else None)
    problems = []
    for index, ((vertices, cells), outcome) in enumerate(zip(inputs, outcomes)):
        residual = wl.relative_residual(workload, vertices, cells,
                                        outcome["degrees"], outcome["values"])
        outcome["cell_sizes"] = [len(c) for c in cells]
        problems += wl.check_mesh(workload, index, outcome, residual,
                                  None if references is None
                                  else references[index])
    return {"seconds": seconds, "outcomes": outcomes, "problems": problems,
            "cells": n_cells}


def same_values(a: dict, b: dict) -> bool:
    return all(x["values"].tobytes() == y["values"].tobytes()
               for x, y in zip(a["outcomes"], b["outcomes"]))


def probe_setups(args, count: int) -> list:
    """Set up ``count`` more times, each in a fresh process."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def blas_info() -> list:
    """Loaded OpenBLAS builds with their configuration and thread count."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return [{"library": "unknown"}]
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for symbol in ("scipy_openblas_{}64_", "scipy_openblas_{}",
                       "openblas_{}64_", "openblas_{}"):
            threads = getattr(lib, symbol.format("get_num_threads"), None)
            config = getattr(lib, symbol.format("get_config"), None)
            if threads is not None and config is not None:
                config.restype = ctypes.c_char_p
                entry.update(threads=int(threads()), config=config().decode())
                break
        out.append(entry)
    return out


def environment(args, inherited_threads) -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "blas": blas_info(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "E2VEM_THREADS": os.environ.get("E2VEM_THREADS"),
            "E2VEM_THREADS_inherited": inherited_threads,
            "seed": args.seed}


def layer_metrics(tracer, n_cells: int, iterations: int) -> dict:
    summary = tracer.summary()

    def stat(name, key):
        return summary.get(name, {}).get(key, 0)

    searches = tracer.count_under("degree.min_admissible_l",
                                  "degree.assign_degrees")
    return {
        "geometry.build_polygon.calls_per_cell":
            stat("geometry.build_polygon", "calls") / n_cells,
        "geometry.build_polygon.self_s": stat("geometry.build_polygon", "self_s"),
        "geometry.polygon_quadrature.calls":
            stat("geometry.polygon_quadrature", "calls"),
        "degree.assign_degrees_s": stat("degree.assign_degrees", "total_s"),
        "degree.congruence_key.self_s": stat("degree.congruence_key", "self_s"),
        "degree.min_admissible_l.calls": stat("degree.min_admissible_l", "calls"),
        "degree.stiffness_rank.calls": stat("degree.stiffness_rank", "calls"),
        "degree.memo_hit_ratio": 1.0 - searches / n_cells,
        "projectors.build_projectors.calls_per_cell":
            stat("projectors.build_projectors", "calls") / n_cells,
        "projectors.build_projectors.self_s":
            stat("projectors.build_projectors", "self_s"),
        "projectors.compute_pinabla.calls_per_cell":
            stat("projectors.compute_pinabla", "calls") / n_cells,
        "polyspace.build_moment_table.self_s":
            stat("polyspace.build_moment_table", "self_s"),
        "assembly.assemble_s": stat("assembly.assemble", "total_s"),
        "assembly.assemble_full.self_s": stat("assembly.assemble_full", "self_s"),
        "assembly.assemble.self_s": stat("assembly.assemble", "self_s"),
        "assembly.classes": tracer.count_under("projectors.build_projectors",
                                               "assembly.assemble_full"),
        "assembly.solve_s": stat("assembly.solve", "total_s"),
        "assembly.solve.iterations": iterations,
        "analysis.errors_s": stat("analysis.solution_errors", "total_s"),
        "analysis.error_classes": tracer.count_under(
            "projectors.compute_pinabla", "analysis.solution_errors"),
    }


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # the library's optional class thread pool stays off
    inherited_threads = os.environ.pop("E2VEM_THREADS", None)
    ctx = set_up(args.workload, args.seed)
    phases = ("setup_s", "import_s", "warmup_s", "make_mesh_s")
    if args.setup_probe:
        print(json.dumps({k: ctx[k] for k in phases}))
        return 0
    declared = declared_metrics()
    workload, wl = ctx["workload"], ctx["workloads"]
    ctx["references"] = wl.load_references()
    problem = workload.problem()

    runs = []
    deadline = time.perf_counter() + args.seconds
    while not runs or time.perf_counter() < deadline:
        runs.append(measured_run(ctx, problem, len(runs)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # the same inputs must give the same bits, traced or not
    pairs = [] if workload.seeded else [(runs[0], run) for run in runs[1:]]
    checked = list(runs)
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        traced = measured_run(ctx, problem, len(runs), tracer)
        # a jittered traced run has inputs of its own: replay them untraced
        untraced = (measured_run(ctx, problem, len(runs)) if workload.seeded
                    else runs[0])
        checked += [traced, untraced] if workload.seeded else [traced]
        pairs.append((untraced, traced))
        iterations = sum(o["iterations"] for o in traced["outcomes"] or [])
        metrics = layer_metrics(tracer, traced["cells"], iterations)
        if workload.seeded and metrics["degree.memo_hit_ratio"] != 0:
            traced["problems"].append(
                "degree.memo_hit_ratio is "
                f"{metrics['degree.memo_hit_ratio']:.4f}, not 0: a degree was "
                "reused although no two cells of any run are alike")
    for first, run in pairs:
        if first["outcomes"] and run["outcomes"] \
                and not same_values(first, run):
            run["problems"].append("vertex values differ bitwise from an "
                                   "untraced run on the same inputs")

    samples = [{k: ctx[k] for k in phases}] + probe_setups(args, SETUP_SAMPLES - 1)
    setup = {k: statistics.median(s[k] for s in samples) for k in phases}

    failed = sum(1 for r in checked if r["problems"])
    times = [r["seconds"] for r in runs]
    time_to_solution_s = statistics.median(times)
    print(f"workload {workload.name}: {workload.why}")
    print("environment " + json.dumps(environment(args, inherited_threads)))
    print(f"time_to_solution_s {time_to_solution_s:.4f} s "
          f"(median of {len(times)} runs: "
          + ", ".join(f"{t:.3f}" for t in times) + ")")
    print(f"setup_s {setup['setup_s']:.4f} s (median of {len(samples)} set-ups: "
          + ", ".join(f"{s['setup_s']:.3f}" for s in samples) + ")")
    print(f"peak_rss_mb {peak_rss_mb:.1f} MiB")
    print(f"fail_ratio {failed / len(checked):.4f} "
          f"({failed} of {len(checked)} checked runs failed)")
    for i, run in enumerate(checked):
        for problem_text in run["problems"]:
            print(f"run {i} failed: {problem_text}")

    if args.trace:
        metrics.update({"setup.import_s": setup["import_s"],
                        "setup.warmup_s": setup["warmup_s"],
                        "meshgen.make_mesh_s": setup["make_mesh_s"],
                        "trace.overhead_s": traced["seconds"] - time_to_solution_s})
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.npz"
        tracer.write(spans_path)
        print(f"traced run {traced['seconds']:.4f} s; {len(tracer.spans)} "
              f"spans written to {spans_path.relative_to(ROOT)}")
        if tracer.absent:
            print("absent traced names: " + ", ".join(tracer.absent))
        units = declared["per_layer"]
    else:
        metrics = {"time_to_solution_s": time_to_solution_s,
                   "setup_s": setup["setup_s"], "peak_rss_mb": peak_rss_mb,
                   "pass_ratio": 1.0 - failed / len(checked)}
        units = declared["end_to_end"]
    if set(metrics) != set(units):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
             "BENCHMARK.json")
    if args.trace:
        for name, unit in units.items():
            print(f"{name} {metrics[name]:.6g} {unit}")
    result = {"correct": failed == 0, "attempted": len(checked),
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
