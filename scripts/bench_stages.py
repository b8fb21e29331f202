"""Per-stage wall-clock times and peak memory of the solver pipeline, for
two source trees.

Usage, from the root of a source checkout::

    python3 scripts/bench_stages.py --base ../parent/src --out BENCH.json

Every case runs in ``PAIRS`` pairs of fresh processes, one process per
source tree in each pair; the tree that goes first alternates from pair
to pair, so a drift of the machine's load falls on both trees. A process
imports numpy and ``e2vem`` from its tree, recording ``import`` (the wall
time of those two imports, in s) and ``import_rss_mb`` (the process's
peak resident memory right after them, in MiB), warms up on the family's
level-0 mesh (through the Cholesky and the CG path; a case above level
0, whose solve builds multigrid levels, then solves the level-1 mesh by
CG, which must build one, so that ``scipy.sparse``'s one-time import falls
in the warm-up, not in the first timed run; jitter-batch's solve never
loads it), and then times
``REPS`` runs, each on a ``PolygonalMesh`` built afresh from the case's
arrays, with in-process ``perf_counter`` timers around the stages:
``classes`` (``mesh.cell_classes``: the mesh's whole validity decision,
which builds the cell-class index; a tree whose ``assemble`` still
counted edge use times that count under ``assemble``), ``degrees``
(``assign_degrees``), ``assemble`` (``assemble``), ``solve``
(``solve``), ``errors`` (``solution_errors``) and ``total`` (all of
them). After its timed runs
it records ``peak_rss_mb``, its peak resident memory, and then makes one
untimed run under ``tracemalloc``, recording ``<stage>_traced_mb``: the
most memory each stage held above its own start, in MiB (for ``total``,
above the run's start; the largest over a case's meshes). It also
records three exact counts: ``f_points``, the points at which one more
untimed ``assemble`` of each of the case's meshes evaluates the source,
and ``iterations`` and ``levels``, each mesh's CG iterations and level
sizes (``SolveStats.iterations`` and ``.levels``) in the last timed
run. Each stage reports the median and
quartiles over all timed runs of a tree's processes; the other
per-process readings over its processes; the counts once, which must
agree across a tree's processes. The report
names the ``OPENBLAS_NUM_THREADS`` the workers inherited (``unset`` for
none), since results can differ in their last bits between thread
counts.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

#: (name, family, level, problem kind, load mode, jitter seed or None)
CASES = [(f"{family}-L{level}", family, level, kind, mode, None)
         for family, kind, mode in (("honeycomb", "poisson", "mean"),
                                    ("concave_star", "diffusion_reaction", "p1"),
                                    ("cut_corner_octagon", "poisson", "mean"))
         for level in (2, 3, 4)]
CASES += [("jitter-batch", "honeycomb", 0, "poisson", "mean", "batch"),
          ("jittered-honeycomb-L3", "honeycomb", 3, "poisson", "mean", 1)]
STAGES = ("classes", "degrees", "assemble", "solve", "errors", "total")
#: Readings taken once per process.
PROCESS = ("import", "import_rss_mb", "peak_rss_mb",
           *(f"{stage}_traced_mb" for stage in STAGES))
#: Exact counts, taken once per process.
COUNTS = ("f_points", "iterations", "levels")
#: Process pairs per case, and timed runs per process.
PAIRS = 3
REPS = 3


def case_meshes(e2vem, np, family, level, jitter):
    """The case's ``(vertices, cells)`` arrays. ``batch`` is four copies of
    the mesh with interior vertices moved by up to 0.05 h, drawn like
    perfbench's jitter-batch run 0 at seed 0; an int jitters one copy with
    that seed."""
    base = e2vem.make_mesh(e2vem.MeshFamilySpec(family, level=level))
    cells = [list(c) for c in base.cells]
    if jitter is None:
        return [(base.vertices.copy(), cells)]
    interior = ~np.asarray(base.boundary_vertex_flags)
    rng = np.random.default_rng((0, 0) if jitter == "batch" else jitter)
    out = []
    for _ in range(4 if jitter == "batch" else 1):
        verts = base.vertices.copy()
        shift = rng.uniform(-0.05, 0.05, size=(int(interior.sum()), 2))
        verts[interior] += shift * base.h
        out.append((verts, cells))
    return out


def worker(src: str, case: str) -> dict:
    sys.path.insert(0, src)
    start = time.perf_counter()
    import numpy as np

    import e2vem
    imported = {"import": time.perf_counter() - start,
                "import_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    from e2vem.assembly import assemble, solve
    from e2vem.degree import assign_degrees

    _, family, level, kind, mode, jitter = next(c for c in CASES if c[0] == case)
    problem = e2vem.sin_sin_problem(kind)
    warm = e2vem.make_mesh(e2vem.MeshFamilySpec(family, level=0))
    for solver in ("cholesky", "cg"):
        mesh = e2vem.PolygonalMesh(warm.vertices, warm.cells)
        e2vem.solution_errors(e2vem.solve_problem(mesh, "minimal", problem,
                                                  mode, solver=solver))
    if level > 0:
        # the case's solve builds multigrid levels, whose first build
        # imports scipy.sparse: a level-1 CG solve pays that here
        warm = e2vem.make_mesh(e2vem.MeshFamilySpec(family, level=1))
        stats = e2vem.solve_problem(warm, "minimal", problem, mode,
                                    solver="cg").stats
        if len(stats.levels) < 2:
            raise SystemExit(f"{case}: the level-1 warm-up built no "
                             f"multigrid level: {stats.levels}")
    inputs = case_meshes(e2vem, np, family, level, jitter)

    def run(mark):
        """One run over the case's meshes; ``mark(None)`` as a mesh's
        first stage starts, ``mark(stage)`` as each stage ends."""
        for vertices, cells in inputs:
            mesh = e2vem.PolygonalMesh(vertices, cells)
            mark(None)
            mesh.cell_classes
            mark("classes")
            degrees = assign_degrees(mesh, "minimal")
            mark("degrees")
            system = assemble(mesh, degrees, problem, mode)
            mark("assemble")
            x, stats = solve(system)
            mark("solve")
            solves.append(stats)
            result = e2vem.SolutionResult(mesh, problem, degrees,
                                          system.expand(x), None)
            e2vem.solution_errors(result)
            mark("errors")

    runs = []
    for _ in range(REPS):
        times = dict.fromkeys(STAGES, 0.0)
        clock = None
        solves = []

        def lap(stage):
            nonlocal clock
            now = time.perf_counter()
            if stage:
                times[stage] += now - clock
            clock = now

        run(lap)
        times["total"] = sum(times[s] for s in STAGES[:-1])
        runs.append(times)
    counts = {"iterations": [s.iterations for s in solves],
              "levels": [list(s.levels) for s in solves]}
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = dict.fromkeys(STAGES, 0)
    tracemalloc.start()
    begin = stage_start = tracemalloc.get_traced_memory()[0]

    def trace(stage):
        nonlocal stage_start
        now, top = tracemalloc.get_traced_memory()
        if stage:
            traced[stage] = max(traced[stage], top - stage_start)
        traced["total"] = max(traced["total"], top - begin)
        stage_start = now
        tracemalloc.reset_peak()

    run(trace)
    tracemalloc.stop()
    f_points = 0

    def counting_f(x, y):
        nonlocal f_points
        f_points += np.size(x)
        return problem.f(x, y)

    for vertices, cells in inputs:
        mesh = e2vem.PolygonalMesh(vertices, cells)
        assemble(mesh, assign_degrees(mesh, "minimal"),
                 e2vem.ProblemSpec(kind, counting_f), mode)
    return {**imported, "peak_rss_mb": peak, "f_points": f_points, **counts,
            **{f"{stage}_traced_mb": v / 2**20 for stage, v in traced.items()},
            **{stage: [r[stage] for r in runs] for stage in STAGES}}


def summary(values) -> dict:
    """Median and quartiles of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base",
                        help="src directory of the tree to compare against")
    parser.add_argument("--out", help="path of the JSON report")
    parser.add_argument("--worker", nargs=2, metavar=("SRC", "CASE"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(*args.worker)))
        return 0
    if not (args.base and args.out):
        parser.error("--base and --out are required")
    trees = {"base": str(Path(args.base).resolve()),
             "change": str(Path(__file__).resolve().parents[1] / "src")}
    results = {}
    for case, *_ in CASES:
        readings = {label: [] for label in trees}
        for pair in range(PAIRS):
            for label in list(trees)[::1 if pair % 2 == 0 else -1]:
                proc = subprocess.run(
                    [sys.executable, __file__, "--worker", trees[label], case],
                    capture_output=True, text=True, check=True)
                readings[label].append(
                    json.loads(proc.stdout.strip().splitlines()[-1]))
        for label, runs in readings.items():
            if any(r[key] != runs[0][key] for r in runs for key in COUNTS):
                raise SystemExit(f"{case}: the {label} processes' counts "
                                 f"differ")
        results[case] = {
            label: {**{key: summary([r[key] for r in runs])
                       for key in PROCESS},
                    **{key: runs[0][key] for key in COUNTS},
                    **{stage: summary([t for r in runs for t in r[stage]])
                       for stage in STAGES}}
            for label, runs in readings.items()}
        print(case, json.dumps({label: {key: (v if key in COUNTS
                                              else round(v["median"], 4))
                                        for key, v in res.items()}
                                for label, res in results[case].items()}),
              flush=True)
    report = {
        "command": (f"python3 scripts/bench_stages.py --base <base>/src "
                    f"--out {args.out}"),
        "machine": f"{platform.machine()}, {os.cpu_count()} cores",
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS",
                                               "unset"),
        "python": platform.python_version(),
        "method": (f"in-process perf_counter stage timers after a level-0 "
                   f"warm-up, ended by a level-1 CG solve with a multigrid "
                   f"level for the cases above level 0; {PAIRS} pairs of "
                   f"fresh processes per case, one "
                   f"per tree, the first tree alternating from pair to "
                   f"pair; {REPS} timed runs per process. Stages give the "
                   f"median and quartiles of all {PAIRS * REPS} runs of a "
                   f"tree; import, import_rss_mb (after the numpy and "
                   f"e2vem imports), peak_rss_mb (after the timed runs) "
                   f"and <stage>_traced_mb (one untimed run under "
                   f"tracemalloc after those: each stage's peak above its "
                   f"start, total's above the run's start) those of its "
                   f"{PAIRS} processes; f_points (the source's points in "
                   f"one more untimed assemble), iterations and levels "
                   f"(each mesh's CG iterations and level sizes) exact "
                   f"counts, equal in all its processes"),
        "trees": {"base": "the src directory given as --base",
                  "change": "this checkout's src"},
        "unit": "s; import_rss_mb, peak_rss_mb and *_traced_mb in MiB",
        "cases": results,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
