"""Workload definitions, input generation and correctness checks.

Each workload is a list of meshes given as raw vertex and cell arrays.
Inputs depend only on the workload and the seed; the solver sees nothing
but these arrays.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import e2vem
from e2vem.degree import ell_check, ell_hat

#: Seed at which ``references.json`` was recorded.
DEFAULT_SEED = 0

RESIDUAL_LIMIT = 1e-10
ERROR_RTOL = 1e-6

REFERENCES = Path(__file__).with_name("references.json")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    family: str
    level: int
    problem_kind: str
    load_mode: str
    copies: int = 1
    #: interior vertices move by a uniform offset in [-jitter, jitter] * h
    jitter: float = 0.0
    #: error bands [lo, hi] for (l2, h1) that every jittered mesh must
    #: meet, whatever its seed
    error_bands: tuple = ()

    @property
    def seeded(self) -> bool:
        return self.jitter > 0.0

    def problem(self):
        return e2vem.sin_sin_problem(self.problem_kind)


WORKLOADS = {w.name: w for w in (
    Workload(
        "honeycomb-L3",
        "cells repeat (7 translation classes, 4 certified shapes) yet "
        "polygons and congruence keys are built per cell: the reuse path",
        "honeycomb", 3, "poisson", "mean"),
    Workload(
        "concave_star-L4",
        "largest solve and memory; only workload through the reaction "
        "and p1-load assembly paths, on 50,176 non-convex cells",
        "concave_star", 4, "diffusion_reaction", "p1"),
    Workload(
        "jitter-batch",
        "4 jittered meshes of 304 distinct cells: nothing can be reused, "
        "and 540 DOF puts auto on the dense Cholesky side",
        "honeycomb", 0, "poisson", "mean", copies=4, jitter=0.05,
        # over seeds 0..19 (80 meshes) l2 spans [0.017321, 0.017427] and
        # h1 [0.66252, 0.66573]; the bands are about three times as wide
        error_bands=((0.0172, 0.01755), (0.6575, 0.6710))),
)}


def make_base(workload: Workload):
    """The workload's mesh from ``meshgen.make_mesh`` and the seconds
    spent building it."""
    start = time.perf_counter()
    base = e2vem.make_mesh(e2vem.MeshFamilySpec(workload.family,
                                                level=workload.level))
    return base, time.perf_counter() - start


def make_inputs(workload: Workload, base, seed: int, run: int):
    """Raw ``(vertices, cells)`` pairs for timed run ``run`` at ``seed``.

    A jittered workload draws fresh offsets for every run from
    ``(seed, run)``, so no two runs of a process share an input mesh; the
    other workloads give the same arrays at every seed and run.
    """
    cells = [list(c) for c in base.cells]
    if not workload.seeded:
        return [(base.vertices.copy(), cells)]
    rng = np.random.default_rng((seed, run))
    interior = ~np.asarray(base.boundary_vertex_flags)
    out = []
    for _ in range(workload.copies):
        verts = base.vertices.copy()
        shift = rng.uniform(-workload.jitter, workload.jitter,
                            size=(int(interior.sum()), 2))
        verts[interior] += shift * base.h
        out.append((verts, cells))
    return out


def has_reference(workload: Workload, seed: int, run: int) -> bool:
    """Whether ``references.json`` holds the result of this run's input."""
    return not workload.seeded or (seed, run) == (DEFAULT_SEED, 0)


def degree_histogram(levels) -> dict:
    values, counts = np.unique(np.asarray(levels), return_counts=True)
    return {str(int(v)): int(c) for v, c in zip(values, counts)}


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def relative_residual(workload: Workload, vertices, cells, degrees,
                      vertex_values) -> float:
    """Residual of the solution in a freshly assembled reduced system."""
    mesh = e2vem.PolygonalMesh(vertices, cells)
    system = e2vem.assemble(mesh, degrees, workload.problem(),
                            workload.load_mode)
    x = np.asarray(vertex_values)[system.free]
    bnorm = float(np.linalg.norm(system.rhs)) or 1.0
    return float(np.linalg.norm(system.matrix @ x - system.rhs)) / bnorm


def check_mesh(workload: Workload, index: int, outcome, residual: float,
               reference=None) -> list:
    """Problems found in one mesh's result; empty when it is correct.

    ``outcome`` holds the degree assignment, the errors and the cached
    attributes found on the mesh before the run. ``reference`` is the
    mesh's entry in ``references.json`` when the run's input has one. A
    jittered mesh is also held to the seed-independent bands.
    """
    problems = []
    if outcome["stale"]:
        problems.append(f"mesh {index}: run started with cached "
                        f"{sorted(outcome['stale'])}")
    if not residual <= RESIDUAL_LIMIT:
        problems.append(f"mesh {index}: relative residual {residual:.3e} "
                        f"> {RESIDUAL_LIMIT:.0e}")
    degrees = outcome["degrees"]
    bad = [ci for ci, ev in enumerate(degrees.evidence) if not ev.admissible]
    if bad:
        problems.append(f"mesh {index}: {len(bad)} cells without full-rank "
                        f"evidence, first {bad[0]}")
    l2, h1 = outcome["errors"]
    if reference is not None:
        hist = degree_histogram(degrees.levels)
        if hist != reference["degree_histogram"]:
            problems.append(f"mesh {index}: degree histogram {hist} != "
                            f"{reference['degree_histogram']}")
        for label, got, want in (("l2", l2, reference["l2"]),
                                 ("h1", h1, reference["h1"])):
            if not abs(got - want) <= ERROR_RTOL * abs(want):
                problems.append(f"mesh {index}: {label} error {got!r} != "
                                f"reference {want!r}")
    if workload.seeded:
        sizes = outcome["cell_sizes"]
        lo = np.array([ell_check(n) for n in sizes])
        hi = np.array([ell_hat(n) for n in sizes])
        levels = np.asarray(degrees.levels)
        if len(levels) != len(sizes) or np.any((levels < lo) | (levels > hi)):
            problems.append(f"mesh {index}: degrees outside "
                            f"[ell_check(n), ell_hat(n)]")
        for label, got, (blo, bhi) in (("l2", l2, workload.error_bands[0]),
                                       ("h1", h1, workload.error_bands[1])):
            if not blo <= got <= bhi:
                problems.append(f"mesh {index}: {label} error {got!r} "
                                f"outside [{blo}, {bhi}]")
    return problems
