"""Global assembly of the discrete Poisson / diffusion-reaction systems,
Dirichlet elimination, and the SPD solve.

Assembly iterates the mesh's one cell-class index, ``mesh.cell_classes``:
the stiffness, reaction, projector and quadrature data are computed once
on each class representative, at the class's certified degree, and
scattered to every member shifted by its anchor offset.
Members are verified translates of the representative, so reuse changes
no value beyond the index's relative tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_factor, cho_solve

from .degree import DegreeAssignment, assign_degrees
from .errors import InadmissibleDegrees, NotSPD
from .geometry import PolygonalMesh, polygon_quadrature
from .meshgen import SplitMix64
from .polyspace import ScaledMonomialBasis
from .projectors import build_projectors


def _as_field(value):
    if callable(value):
        return value
    const = float(value)
    return lambda x, y: np.full_like(np.asarray(x, dtype=float), const)


@dataclass(frozen=True)
class ProblemSpec:
    """Model problem on the unit square.

    ``kind`` is ``poisson`` (-lap U = f) or ``diffusion_reaction``
    (-lap U + U = f). Fields take coordinate arrays: ``f(x, y)`` and
    ``dirichlet_data(x, y)`` return arrays, ``exact_gradient(x, y)``
    returns the pair ``(dU/dx, dU/dy)``.
    """

    kind: str
    f: object
    dirichlet_data: object = 0.0
    exact_solution: object = None
    exact_gradient: object = None
    name: str = ""

    def __post_init__(self):
        if self.kind not in ("poisson", "diffusion_reaction"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        object.__setattr__(self, "f", _as_field(self.f))
        object.__setattr__(self, "dirichlet_data",
                            _as_field(self.dirichlet_data))

    def residual_check(self, n_points: int = 20, tol: float = 1e-6,
                       seed: int = 0x5EED) -> float:
        """Max PDE residual of the declared exact solution at random
        interior points (five-point finite-difference Laplacian),
        relative to the largest sampled magnitude of ``f`` and ``U``.

        Raises ``ValueError`` when the relative residual exceeds ``tol``;
        returns it otherwise. No-op (0.0) without an exact solution.
        """
        if self.exact_solution is None:
            return 0.0
        rng = SplitMix64(seed)
        pts = np.array([[rng.random(), rng.random()] for _ in range(n_points)])
        pts = 0.05 + 0.9 * pts
        x, y = pts[:, 0], pts[:, 1]
        # fourth-order stencil: truncation ~ d^4 |d6 U| / 90 and roundoff
        # ~ eps |U| / d^2 both stay well below 1e-6 of the data's magnitude
        d = 4e-3
        u0 = self.exact_solution(x, y)

        def d2(up2, up1, um1, um2):
            return (-up2 + 16.0 * up1 - 30.0 * u0 + 16.0 * um1 - um2) \
                / (12.0 * d ** 2)

        lap = (d2(self.exact_solution(x + 2 * d, y), self.exact_solution(x + d, y),
                  self.exact_solution(x - d, y), self.exact_solution(x - 2 * d, y))
               + d2(self.exact_solution(x, y + 2 * d), self.exact_solution(x, y + d),
                    self.exact_solution(x, y - d), self.exact_solution(x, y - 2 * d)))
        f = self.f(x, y)
        residual = -lap - f
        if self.kind == "diffusion_reaction":
            residual = residual + u0
        # both error terms scale with the data, so the bound must too
        scale = max(float(np.abs(f).max()), float(np.abs(u0).max())) or 1.0
        worst = float(np.abs(residual).max()) / scale
        if worst > tol:
            raise ValueError(
                f"declared exact solution violates the PDE: max residual "
                f"{worst:.3e} relative to max |f|, |U| = {scale:.3e} at "
                f"{n_points} interior points (tol {tol:.1e})")
        return worst


def sin_sin_problem(kind: str = "poisson") -> ProblemSpec:
    """Manufactured solution U = sin(2 pi x) sin(2 pi y) on the unit
    square with homogeneous Dirichlet data."""
    two_pi = 2.0 * np.pi

    def exact(x, y):
        return np.sin(two_pi * x) * np.sin(two_pi * y)

    def exact_grad(x, y):
        return (two_pi * np.cos(two_pi * x) * np.sin(two_pi * y),
                two_pi * np.sin(two_pi * x) * np.cos(two_pi * y))

    if kind == "poisson":
        def f(x, y):
            return 2.0 * two_pi ** 2 * np.sin(two_pi * x) * np.sin(two_pi * y)
    else:
        def f(x, y):
            return ((2.0 * two_pi ** 2 + 1.0)
                    * np.sin(two_pi * x) * np.sin(two_pi * y))

    return ProblemSpec(kind, f, 0.0, exact, exact_grad, name=f"sin_sin_{kind}")


def linear_problem(a: float, b: float, c: float,
                   kind: str = "poisson") -> ProblemSpec:
    """Patch-test problem with exact solution U = a + b x + c y and
    matching Dirichlet data."""

    def exact(x, y):
        return a + b * x + c * y

    def exact_grad(x, y):
        shape = np.shape(x)
        return (np.full(shape, b), np.full(shape, c))

    f = 0.0 if kind == "poisson" else exact
    return ProblemSpec(kind, f, exact, exact, exact_grad,
                       name=f"linear_{kind}")


@dataclass(eq=False)
class LinearSystem:
    """Reduced SPD system over non-Dirichlet vertices."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    free: np.ndarray
    boundary: np.ndarray
    boundary_values: np.ndarray
    n_vertices: int

    @property
    def n_free(self) -> int:
        return len(self.free)

    @property
    def dof_map(self) -> np.ndarray:
        """Vertex index -> system index, -1 for Dirichlet vertices."""
        table = np.full(self.n_vertices, -1, dtype=np.int64)
        table[self.free] = np.arange(self.n_free)
        return table

    def expand(self, reduced: np.ndarray) -> np.ndarray:
        """Scatter a free-DOF vector back to all mesh vertices."""
        full = np.empty(self.n_vertices)
        full[self.free] = reduced
        full[self.boundary] = self.boundary_values
        return full


def _check_admissible(mesh: PolygonalMesh, degrees: DegreeAssignment):
    classes = mesh.cell_classes
    if len(degrees) != mesh.n_cells or len(degrees.evidence) != len(classes):
        raise InadmissibleDegrees(
            f"degree assignment covers {len(degrees)} cells in "
            f"{len(degrees.evidence)} classes, mesh has {mesh.n_cells} "
            f"cells in {len(classes)}")
    for cls, ev in zip(classes, degrees.evidence):
        off = np.flatnonzero(degrees.levels[cls.members] != ev.l)
        if len(off):
            ci = int(cls.members[off[0]])
            raise InadmissibleDegrees(
                f"cell {ci}: degree {int(degrees.levels[ci])} has no rank "
                f"certificate (its class's evidence is for l={ev.l})")
        if not ev.admissible:
            raise InadmissibleDegrees(
                f"cell {int(cls.members[0])}: stiffness rank {ev.rank} < "
                f"{ev.n_vertices - 1} at l={ev.l}")


def assemble_full(mesh: PolygonalMesh, degrees: DegreeAssignment,
                  problem: ProblemSpec, load_mode: str = "mean"):
    """Assemble the global matrix and load over all vertices, before any
    boundary treatment. Returns ``(A, F)`` with A sparse CSR symmetric,
    constants in its kernel. Each cell class is scattered once, at its
    certified degree; a member's load is its source values at the class
    quadrature points times the class's (P, n) load weights."""
    _check_admissible(mesh, degrees)
    if load_mode not in ("mean", "p1"):
        raise ValueError(f"unknown load mode {load_mode!r}")
    reaction = problem.kind == "diffusion_reaction"
    n = mesh.n_vertices
    load = np.zeros(n)
    row_parts, col_parts, val_parts = [], [], []
    for cls, ev in zip(mesh.cell_classes, degrees.evidence):
        poly, idx = cls.polygon, cls.indices                # idx (m, nv)
        projs = build_projectors(poly, ev.l)
        local = projs.stiffness.copy()
        if reaction:
            local += poly.area * np.outer(projs.pizero, projs.pizero)
        m, nv = idx.shape
        row_parts.append(np.repeat(idx, nv, axis=1).ravel())
        col_parts.append(np.tile(idx, (1, nv)).ravel())
        val_parts.append(np.tile(local.ravel(), m))
        qpts, qw = polygon_quadrature(poly, 2 * (ev.l + 1) + 2)
        if load_mode == "mean":
            weights = np.outer(qw, projs.pizero)
        else:
            qbasis = ScaledMonomialBasis.from_polygon(poly, 1).evaluate(qpts)
            weights = (qw[:, None] * qbasis) @ projs.pione
        for rows, x, y in cls.member_points(qpts):
            fv = np.asarray(problem.f(x, y), dtype=float)
            np.add.at(load, idx[rows], fv.reshape(-1, len(qw)) @ weights)
    matrix = sp.csr_matrix((np.concatenate(val_parts),
                            (np.concatenate(row_parts),
                             np.concatenate(col_parts))), shape=(n, n))
    return matrix, load


def assemble(mesh: PolygonalMesh, degrees: DegreeAssignment,
             problem: ProblemSpec, load_mode: str = "mean") -> LinearSystem:
    """Assemble and eliminate Dirichlet vertices (values interpolated
    from ``problem.dirichlet_data`` move to the right-hand side)."""
    matrix, load = assemble_full(mesh, degrees, problem, load_mode)
    flags = mesh.boundary_vertex_flags
    boundary = np.flatnonzero(flags)
    free = np.flatnonzero(~flags)
    xb, yb = mesh.vertices[boundary, 0], mesh.vertices[boundary, 1]
    bvals = np.asarray(problem.dirichlet_data(xb, yb), dtype=float)
    bvals = np.broadcast_to(bvals, boundary.shape).astype(float)
    free_rows = matrix[free]
    reduced = free_rows[:, free].tocsr()
    rhs = load[free] - free_rows[:, boundary] @ bvals
    return LinearSystem(reduced, rhs, free, boundary, bvals,
                        mesh.n_vertices)


@dataclass(frozen=True)
class SolveStats:
    method: str
    iterations: int
    residual: float


def solve(system: LinearSystem, method: str = "auto", tol: float = 1e-12):
    """Solve the reduced system; returns ``(x, SolveStats)``.

    ``cholesky`` factors the densified matrix (breakdown raises
    :class:`NotSPD`); ``cg`` runs Jacobi-preconditioned conjugate
    gradients to relative residual ``tol``; ``auto`` picks ``cholesky``
    up to 1200 free DOFs, where the dense factor stays small, and ``cg``
    above.
    """
    a, b = system.matrix, system.rhs
    n = system.n_free
    if method == "auto":
        method = "cholesky" if n <= 1200 else "cg"
    if method not in ("cholesky", "cg"):
        raise ValueError(f"unknown solver {method!r}")
    if n == 0:
        return np.zeros(0), SolveStats(method, 0, 0.0)
    bnorm = float(np.linalg.norm(b))
    if method == "cholesky":
        try:
            factor = cho_factor(a.toarray())
        except np.linalg.LinAlgError as exc:
            raise NotSPD(f"Cholesky breakdown: {exc}") from exc
        x = cho_solve(factor, b)
        res = float(np.linalg.norm(a @ x - b)) / (bnorm or 1.0)
        return x, SolveStats("cholesky", 0, res)
    diag = a.diagonal()
    if (diag <= 0.0).any():
        raise NotSPD("non-positive diagonal entry in the reduced matrix")
    precond = sp.diags(1.0 / diag)
    count = [0]

    def tick(_):
        count[0] += 1

    x, info = spla.cg(a, b, rtol=tol, atol=0.0, maxiter=max(500, 4 * n),
                      M=precond, callback=tick)
    if info != 0:
        raise NotSPD(f"CG failed to converge (info={info}) after "
                     f"{count[0]} iterations")
    res = float(np.linalg.norm(a @ x - b)) / (bnorm or 1.0)
    return x, SolveStats("cg", count[0], res)


@dataclass(eq=False)
class SolutionResult:
    """Vertex solution plus the metadata of the run that produced it."""

    mesh: PolygonalMesh
    problem: ProblemSpec
    degrees: DegreeAssignment
    vertex_values: np.ndarray
    stats: SolveStats

    @property
    def h(self) -> float:
        return self.mesh.h

    @property
    def n_cells(self) -> int:
        return self.mesh.n_cells

    @property
    def n_dofs(self) -> int:
        return int((~self.mesh.boundary_vertex_flags).sum())


def export_solution(result: "SolutionResult") -> dict:
    """JSON-ready dict with the mesh name, vertex values and per-cell
    projection degrees."""
    name = result.mesh.name if result.mesh.name is not None else ""
    return {
        "mesh": name,
        "vertex_values": [float(v) for v in result.vertex_values],
        "degrees": [int(l) for l in result.degrees.levels],
    }


def solve_problem(mesh: PolygonalMesh, strategy, problem: ProblemSpec,
                  load_mode: str = "mean", solver: str = "auto",
                  tol: float = 1e-12) -> SolutionResult:
    """assign_degrees + assemble + solve, returning vertex values."""
    problem.residual_check()
    degrees = assign_degrees(mesh, strategy)
    system = assemble(mesh, degrees, problem, load_mode)
    x, stats = solve(system, solver, tol=tol)
    return SolutionResult(mesh, problem, degrees, system.expand(x), stats)
