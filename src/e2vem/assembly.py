"""Global assembly of the discrete Poisson / diffusion-reaction systems,
with the Dirichlet data lifted into the load, and the SPD solve.

Assembly iterates the mesh's one cell-class index, ``mesh.cell_classes``,
grouped by (vertex count, certified degree): the stiffness, reaction,
projector and quadrature data are computed once on each class
representative, in stacks of at most ``geometry._STACK_ROWS`` classes
of a group, and scattered to every member shifted by its anchor offset.
Members are verified translates of the representative, so reuse changes
no value beyond the index's relative tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import rule_parts
from .degree import DegreeAssignment, assign_degrees
from . import geometry
from .errors import InadmissibleDegrees, NotSPD
from .geometry import (PolygonalMesh, at_points, class_groups,
                       class_members, member_points, stack_polygons)
from .meshgen import splitmix64
from .polyspace import stack_monomials
from .projectors import build_projectors, compute_pinabla


#: Largest system stored dense: ``_assemble`` sums a system of at most this
#: many rows into an ndarray and a larger one into CSR, ``auto`` picks
#: Cholesky up to it, and the CG preconditioner's hierarchy coarsens down
#: to it. Only the CSR systems above it load ``scipy.sparse``.
_DENSE_ROWS = 1200

#: The exact-solution self-check: sample count, relative bound and stream seed.
_RESIDUAL_POINTS = 20
_RESIDUAL_TOL = 1e-6
_RESIDUAL_SEED = 0x5EED


def _as_field(value):
    if callable(value):
        return value
    const = float(value)
    return lambda x, y: const


@dataclass(frozen=True)
class ProblemSpec:
    """Model problem on the unit square.

    ``kind`` is ``poisson`` (-lap U = f) or ``diffusion_reaction``
    (-lap U + U = f). Fields take coordinate arrays: ``f(x, y)`` and
    ``dirichlet_data(x, y)`` return arrays, ``exact_gradient(x, y)``
    returns the pair ``(dU/dx, dU/dy)``; a constant stands for an array
    of that value (``geometry.at_points``).
    """

    kind: str
    f: object
    dirichlet_data: object = 0.0
    exact_solution: object = None
    exact_gradient: object = None

    def __post_init__(self):
        if self.kind not in ("poisson", "diffusion_reaction"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        object.__setattr__(self, "f", _as_field(self.f))
        object.__setattr__(self, "dirichlet_data",
                            _as_field(self.dirichlet_data))

    def residual_check(self) -> float:
        """Max PDE residual of the declared exact solution at
        ``_RESIDUAL_POINTS`` random interior points (a Laplacian from the
        fourth-order five-point difference along each axis), relative to
        the largest sampled magnitude of ``f`` and ``U``.

        Raises ``ValueError`` when the relative residual exceeds
        ``_RESIDUAL_TOL``; returns it otherwise. No-op (0.0) without an
        exact solution.
        """
        if self.exact_solution is None:
            return 0.0
        u = splitmix64(_RESIDUAL_SEED, 2 * _RESIDUAL_POINTS) >> 11
        x, y = (0.05 + 0.9 * (u.reshape(-1, 2) * 2.0 ** -53)).T
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
        if worst > _RESIDUAL_TOL:
            raise ValueError(
                f"declared exact solution violates the PDE: max residual "
                f"{worst:.3e} relative to max |f|, |U| = {scale:.3e} at "
                f"{_RESIDUAL_POINTS} interior points (tol {_RESIDUAL_TOL:.1e})")
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

    return ProblemSpec(kind, f, 0.0, exact, exact_grad)


def linear_problem(a: float, b: float, c: float,
                   kind: str = "poisson") -> ProblemSpec:
    """Patch-test problem with exact solution U = a + b x + c y and
    matching Dirichlet data."""

    def exact(x, y):
        return a + b * x + c * y

    def exact_grad(x, y):
        return b, c

    f = 0.0 if kind == "poisson" else exact
    return ProblemSpec(kind, f, exact, exact, exact_grad)


@dataclass(eq=False)
class LinearSystem:
    """Reduced SPD system over non-Dirichlet vertices. ``matrix`` is a
    dense ndarray up to ``_DENSE_ROWS`` rows, and a canonical
    ``scipy.sparse`` CSR matrix above."""

    matrix: object
    rhs: np.ndarray
    free: np.ndarray
    boundary: np.ndarray
    boundary_values: np.ndarray
    n_vertices: int

    @property
    def n_free(self) -> int:
        return len(self.free)

    def expand(self, reduced: np.ndarray) -> np.ndarray:
        """Scatter a free-DOF vector back to all mesh vertices."""
        full = np.empty(self.n_vertices)
        full[self.free] = reduced
        full[self.boundary] = self.boundary_values
        return full


def _check_admissible(mesh: PolygonalMesh, degrees: DegreeAssignment):
    """Refuse degrees that their class's certificate does not cover,
    naming the lowest-index offending cell."""
    classes = mesh.cell_classes
    if len(degrees) != mesh.n_cells or len(degrees.evidence) != len(classes):
        raise InadmissibleDegrees(
            f"degree assignment covers {len(degrees)} cells in "
            f"{len(degrees.evidence)} classes, mesh has {mesh.n_cells} "
            f"cells in {len(classes)}")
    evidence = degrees.evidence
    certified = np.array([ev.l for ev in evidence], dtype=int)
    off = np.flatnonzero(degrees.levels != certified[mesh.cell_class])
    short = np.flatnonzero(~np.array([ev.admissible for ev in evidence],
                                     dtype=bool)[mesh.cell_class])
    cell = int(short[0]) if len(short) else mesh.n_cells
    if len(off) and off[0] <= cell:
        ci = int(off[0])
        raise InadmissibleDegrees(
            f"cell {ci}: degree {int(degrees.levels[ci])} has no rank "
            f"certificate (its class's evidence is for "
            f"l={int(certified[mesh.cell_class[ci]])})")
    if len(short):
        ev = evidence[mesh.cell_class[cell]]
        raise InadmissibleDegrees(
            f"cell {cell}: stiffness rank {ev.rank} < "
            f"{ev.n_vertices - 1} at l={ev.l}")


def assemble_full(mesh: PolygonalMesh, degrees: DegreeAssignment,
                  problem: ProblemSpec, load_mode: str = "mean"):
    """Assemble the global matrix and load over all vertices, before any
    boundary treatment. Returns ``(A, F)`` with A symmetric, constants in
    its kernel, and stored as :class:`LinearSystem` stores its matrix. The
    classes of each (vertex count, degree) are scattered together, from
    stacks of their kernels; a member's load is its source values at its
    class's quadrature points, moved onto the member, against the class's
    load weights, on the rule that ``analysis.rule_parts`` gives the class
    at the load degree 2 (l + 1) + 2: the mesh's compressed rule of the
    class where it has one that is exact to that degree and has fewer
    nodes, the fan rule otherwise."""
    _check_admissible(mesh, degrees)
    n = mesh.n_vertices
    return _assemble(mesh, degrees, problem, load_mode, np.arange(n),
                     np.zeros(n))


def assemble(mesh: PolygonalMesh, degrees: DegreeAssignment,
             problem: ProblemSpec, load_mode: str = "mean") -> LinearSystem:
    """Assemble the system over the non-Dirichlet vertices: values
    interpolated from ``problem.dirichlet_data`` move to the right-hand
    side member by member, and no Dirichlet row or column is stored."""
    _check_admissible(mesh, degrees)
    flags = mesh.boundary_vertex_flags
    boundary = np.flatnonzero(flags)
    free = np.flatnonzero(~flags)
    xb, yb = mesh.vertices[boundary, 0], mesh.vertices[boundary, 1]
    bvals = np.array(at_points(problem.dirichlet_data(xb, yb), xb))
    dof = np.full(mesh.n_vertices, -1)
    dof[free] = np.arange(len(free))
    lift = np.zeros(mesh.n_vertices)
    lift[boundary] = bvals
    matrix, load = _assemble(mesh, degrees, problem, load_mode, dof, lift)
    return LinearSystem(matrix, load[free], free, boundary, bvals,
                        mesh.n_vertices)


def _assemble(mesh, degrees, problem, load_mode, dof, lift):
    """The matrix over the DOFs that ``dof`` numbers (vertex to DOF, -1
    for none), dense up to ``_DENSE_ROWS`` rows and canonical,
    exact-size CSR above, and the load over all vertices, less
    ``K_E lift`` for every member E with a vertex that is not a DOF.

    A (member, local row) "slab" holds the member's entries of one row
    in the columns that are DOFs. One stable sort of the slab rows lays
    the slabs out row by row in buffers of the summed slab length. A
    dense matrix sums them by one ``np.bincount``; for CSR each row's
    columns are sorted and its duplicates summed in place, and the
    buffers shrunk in place to the entries that remain."""
    if load_mode not in ("mean", "p1"):
        raise ValueError(f"unknown load mode {load_mode!r}")
    n, size = mesh.n_vertices, int(dof.max(initial=-1)) + 1
    load = np.zeros(n)
    groups = list(class_groups(mesh.cell_classes,
                               [ev.l for ev in degrees.evidence]))
    # int32 slab bookkeeping unless the vertex or local entry count
    # outgrows it
    counts = np.bincount(mesh.cell_class)
    total = sum(nv * nv * int(counts[group].sum()) for nv, _, group in groups)
    index = np.int32 if max(n, total) <= np.iinfo(np.int32).max else np.int64
    dof = dof.astype(index)
    members = [_assemble_group(mesh, group, l, problem, load_mode, load, dof,
                               lift) for _, l, group in groups]
    starts, indptr = _slab_layout([d for _, _, d in members], size)
    # the stored entries decide the matrix's index type, as scipy does,
    # so that the constructor keeps the buffers shrunk in place below
    if max(size, indptr[-1]) <= np.iinfo(np.int32).max:
        indptr = indptr.astype(np.int32, copy=False)
    indices = np.empty(indptr[-1], dtype=indptr.dtype)
    data = np.empty(indptr[-1])
    head = 0
    for local, cls, d in members:
        slabs = starts[head:head + d.size].reshape(d.shape)
        head += d.size
        for start in range(0, len(d), geometry._CHUNK_MEMBERS):
            chunk = slice(start, start + geometry._CHUNK_MEMBERS)
            _scatter(indices, data, slabs[chunk], d[chunk],
                     np.take(local, cls[chunk], axis=0))
    if size <= _DENSE_ROWS:
        flat = np.repeat(np.arange(size, dtype=indices.dtype) * size,
                         np.diff(indptr))
        flat += indices
        return np.bincount(flat, data, size * size).reshape(size, size), load
    import scipy.sparse as sp
    matrix = sp.csr_matrix((data, indices, indptr), shape=(size, size))
    matrix.sum_duplicates()
    # the summed entries lead the buffers, still at the slab length:
    # shrink them in place (a copy would raise the peak by the matrix)
    nnz = matrix.nnz
    del matrix
    data.resize(nnz, refcheck=False)
    indices.resize(nnz, refcheck=False)
    matrix = sp.csr_matrix((data, indices, indptr), shape=(size, size))
    matrix.has_canonical_format = True
    return matrix, load


def _slab_layout(dofs, size):
    """Where each slab starts in the row-ordered buffers, for the members'
    DOFs ``dofs`` (a list of (m, nv) arrays), with their ``indptr``: a
    slab is as long as its member has DOFs, or empty when its row is not
    one, and slabs of one row keep their order in ``dofs``."""
    index = dofs[0].dtype
    rows = np.concatenate([d.ravel() for d in dofs])
    lengths = np.concatenate([
        np.where(d >= 0, (d >= 0).sum(axis=1, dtype=index)[:, None], 0).ravel()
        for d in dofs])
    order = np.argsort(rows, kind="stable")
    starts = np.empty_like(lengths)
    starts[order] = np.cumsum(lengths[order], dtype=index) - lengths[order]
    # row -1, the slabs that are not stored, counts 0 and leads indptr
    indptr = np.cumsum(np.bincount(rows + 1, lengths, minlength=size + 1))
    return starts, indptr.astype(index)


def _scatter(indices, data, slabs, d, values):
    """Write members' entries ``values`` (m, nv, nv) at DOFs ``d`` (m, nv)
    into their slabs, which start at ``slabs`` (m, nv) in ``indices`` and
    ``data``: the entries whose row and column are both DOFs, packed in
    column order."""
    free = d >= 0
    rank = np.cumsum(free, axis=1, dtype=slabs.dtype) - 1
    kept = free[:, :, None] & free[:, None, :]
    target = (slabs[:, :, None] + rank[:, None, :])[kept]
    indices[target] = np.broadcast_to(d[:, None, :], kept.shape)[kept]
    data[target] = values[kept]


def _assemble_group(mesh, group, l, problem, load_mode, load, dof, lift):
    """The kernels (c, nv, nv) of the classes ``group`` (rows of
    ``mesh.cell_classes``) of one vertex count at degree ``l``, from one
    stack, with their members' classes (m,) and DOFs (m, nv); adds the
    members' load, less their ``K_E lift``, to ``load``. The load splits
    the group as ``analysis.rule_parts`` decides at the load degree, into
    a fan part and a part on the mesh's compressed rules, and evaluates
    ``f`` on the chunks of each part's members across its classes."""
    polys = [mesh.cell_classes[k] for k in group]
    projs = build_projectors(polys, l)
    pizero, local = projs.pizero, projs.stiffness              # (c, nv), (c, nv, nv)
    s = stack_polygons(polys)
    if problem.kind == "diffusion_reaction":
        local = local + s.area[:, None, None] * (pizero[:, :, None]
                                                 * pizero[:, None, :])
    # the load of a member of class c is (f, 1)_E pizero[c], or for p1
    # pinabla[c]^T (f, m_a)_E over the linear monomials m_a
    project = pizero[:, None, :] if load_mode == "mean" else compute_pinabla(s)
    for part, sub, qpts, qw in rule_parts(mesh, group, s, 2 * (l + 1) + 2):
        moments = qw[:, :, None]                                # (c, P, 1)
        if load_mode == "p1":
            moments = moments * stack_monomials(sub, qpts, 1)   # (c, P, 3)
        local_project = project[part]
        for c, vertices, x, y in member_points(mesh, group[part], qpts):
            fv = at_points(problem.f(x, y), x).reshape(len(c), -1)
            f_moments = np.stack([np.einsum("mp,mp->m", fv, moments[c, :, a])
                                  for a in range(moments.shape[2])], axis=1)
            np.add.at(load, vertices,
                      np.einsum("ma,man->mn", f_moments, local_project[c]))
    idx, cls, _ = class_members(mesh, group)  # (m, nv), (m,)
    d = dof[idx]
    lifted = np.flatnonzero((d < 0).any(axis=1))
    if len(lifted):
        g = lift[idx[lifted]]
        np.add.at(load, idx[lifted],
                  -np.einsum("mij,mj->mi", local[cls[lifted]], g))
    return local, cls, d


@dataclass(frozen=True)
class SolveStats:
    """``levels`` holds the rows of every level the solve used, finest
    first, ending with the one factored densely; ``()`` when there were
    no unknowns."""

    method: str
    iterations: int
    residual: float
    levels: tuple


#: Row block of the dense factor and its substitutions: each diagonal
#: block is factored by ``np.linalg.cholesky`` and inverted once, the rest
#: are matrix products. On the 540-row honeycomb L0 Poisson system (lattice
#: order, envelope 32) the factor takes 1.45-1.58 ms at blocks of 32,
#: 1.6-1.7 ms at 64, 1.9-2.1 ms at 16 and 3.8-4.1 ms at 128, against
#: 5.1-5.7 ms for ``np.linalg.cholesky`` on the whole matrix; the
#: substitutions then take 0.19-0.23 ms at 32 and 0.14-0.16 ms at 64-128
#: (quartiles of 60 interleaved runs, shared 2-core VM). A randomly
#: permuted five-point Laplacian, whose envelope spans the matrix, takes
#: 34-36 ms against 29-33 ms at 1,200 rows and 4.3-4.5 ms against 2.9 ms
#: at 540 (medians of 21 runs under 1 and 2 BLAS threads).
_SOLVE_BLOCK = 32


def _dense_factor(a):
    """The lower Cholesky factor ``L`` of the SPD matrix ``a`` (an ndarray,
    or a CSR matrix, which is densified) and the inverses of its diagonal
    blocks of ``_SOLVE_BLOCK`` rows, as the pair ``(L, inverses)``.

    ``L`` overwrites the one dense copy of ``a``, block by block: a
    diagonal block is factored by ``np.linalg.cholesky``, its column panel
    below is scaled by the block's inverse, and the trailing matrix is
    updated only up to the panel's last nonzero row (the envelope, read
    after earlier updates, so fill-in counts; a row left out is zero in
    the panel and its update would change no bit), and only on and below
    its diagonal blocks, one block column at a time, so a badly numbered
    matrix computes no upper half and holds no square temporary. The
    strict upper triangle is zeroed. A failed block factor raises
    :class:`NotSPD`, and so does a non-finite entry of ``a``, which
    reaches a block's diagonal."""
    factor = (np.array(a, dtype=float) if isinstance(a, np.ndarray)
              else a.toarray())
    n = len(factor)
    inverses = []
    for s in range(0, n, _SOLVE_BLOCK):
        e = min(s + _SOLVE_BLOCK, n)
        try:
            block = np.linalg.cholesky(factor[s:e, s:e])
        except np.linalg.LinAlgError as exc:
            raise NotSPD(f"Cholesky breakdown: {exc}") from exc
        if not np.isfinite(np.diagonal(block)).all():
            raise NotSPD("Cholesky breakdown: non-finite matrix entry")
        factor[s:e, s:e] = block
        factor[s:e, e:] = 0.0
        inverses.append(np.linalg.inv(block))
        rows = np.flatnonzero(factor[e:, s:e].any(axis=1))
        if len(rows):
            last = e + int(rows[-1]) + 1
            panel = factor[e:last, s:e] @ inverses[-1].T
            factor[e:last, s:e] = panel
            for j in range(e, last, _SOLVE_BLOCK):
                k = min(j + _SOLVE_BLOCK, last)
                factor[j:last, j:k] -= panel[j - e:] @ panel[j - e:k - e].T
    return factor, inverses


def _cho_solve(factor, x):
    """``x`` overwritten with the solution of ``L L^T x = x``, for the pair
    ``(L, inverses)`` that :func:`_dense_factor` returns, by forward and
    back substitution over row blocks of ``_SOLVE_BLOCK``, each solved by
    its block's inverse; ``x`` is a float (n,) vector that the caller
    hands over, and is returned."""
    lower, inverses = factor
    starts = range(0, len(lower), _SOLVE_BLOCK)
    for inverse, s in zip(inverses, starts):
        e = s + len(inverse)
        x[s:e] = inverse @ (x[s:e] - lower[s:e, :s] @ x[:s])
    for inverse, s in reversed(list(zip(inverses, starts))):
        e = s + len(inverse)
        x[s:e] = inverse.T @ (x[s:e] - lower[e:, s:e].T @ x[e:])
    return x


def _priorities(n: int) -> np.ndarray:
    """A fixed permutation of ``range(n)`` as int32: the ranks of the
    SplitMix64 stream from state 0, so aggregation uses no random
    state and repeats bitwise."""
    ranks = np.empty(n, dtype=np.int32)
    ranks[np.argsort(splitmix64(0, n))] = np.arange(n, dtype=np.int32)
    return ranks


def _aggregates(a, prio: np.ndarray) -> np.ndarray:
    """Aggregate index of every row, from the sparsity graph of the CSR
    matrix ``a``.

    The roots are a distance-2 maximal independent set, found by Luby
    rounds on ``prio``: a live row whose priority is the largest within
    distance 2 becomes a root, and every row within distance 2 of it
    leaves. A row joins the one root within distance 1, or else the
    aggregate of a neighbour. Rows without neighbours share one
    aggregate, so every level at least halves. The neighbour maxima
    gather by fancy indexing with the int32 pattern indices, whose cast
    numpy buffers, so no int64 copy of length nnz is made: the traced
    peak is about 8.6 B per stored entry of ``a``."""
    import scipy.sparse as sp

    n = len(prio)
    # the rounds read the pattern only: share its index arrays under
    # 1-byte data, so that the row slices copy 5 B per entry, not 12
    a = sp.csr_matrix((np.ones(len(a.indices), dtype=bool), a.indices,
                       a.indptr), shape=a.shape)

    def neighbour_max(v, rows):
        return np.maximum.reduceat(v[rows.indices], rows.indptr[:-1])

    key = prio.copy()                   # -1 once a row has left
    near = np.empty(n, dtype=np.int32)  # distance-1 max, kept next to live rows
    owner = np.full(n, -1)              # root of the aggregate
    live, rows, hood, hood_rows = np.arange(n), a, slice(None), a
    while len(live):
        near[hood] = neighbour_max(key, hood_rows)
        roots = live[neighbour_max(near, rows) == key[live]]
        first = a[roots]
        owner[first.indices] = np.repeat(roots, np.diff(first.indptr))
        key[a[first.indices].indices] = -1
        live = live[key[live] >= 0]
        rows = a[live]                  # later rounds see live rows only
        hood = np.zeros(n, dtype=bool)
        hood[rows.indices] = True
        hood_rows = a[hood]
    rest = np.flatnonzero(owner < 0)
    owner[rest] = neighbour_max(owner, a[rest])
    lone = np.diff(a.indptr) == 1
    owner[lone] = owner[lone].max(initial=-1)
    used = np.zeros(n, dtype=bool)
    used[owner] = True
    return (np.cumsum(used) - 1)[owner]


def _dot(u, v) -> float:
    """``u . v`` summed by numpy's own loop, in an order that, unlike
    BLAS's, does not depend on the thread count: every reduction of
    :func:`solve` and :func:`_hierarchy`."""
    return float(np.einsum("i,i->", u, v))


def _norm(u) -> float:
    return math.sqrt(_dot(u, u))


def _hierarchy(a):
    """Smoothed-aggregation levels ``(a, w, pt, p, ap)`` from ``a`` down
    to at most ``_DENSE_ROWS`` rows, and the coarsest matrix, which
    :func:`solve` factors by :func:`_dense_factor`; ``a`` may be dense or
    CSR, and only building a level imports ``scipy.sparse``.

    The prolongator P is the piecewise-constant one smoothed by one
    Jacobi step of weight ``w`` = 4/(3 rho D), rho the spectral radius of
    D^-1 A from ten power steps; ``w`` is also the smoother's weight
    (Vanek, Mandel and Brezina, Computing 56, 1996). ``pt`` = P^T is
    CSR, and ``p`` and ``ap`` = A P are the transposes of ``pt`` and
    P^T A, which share their arrays."""
    levels = []
    while True:
        diag = a.diagonal()
        if not (diag > 0.0).all():
            raise NotSPD("non-positive diagonal entry in the reduced matrix")
        n = a.shape[0]
        if n <= _DENSE_ROWS:
            return levels, a
        import scipy.sparse as sp
        prio = _priorities(n)
        v = prio - 0.5 * n
        for _ in range(10):
            v = a @ v / diag
            v /= _norm(v)
        w = 4.0 / (3.0 * _norm(a @ v / diag)) / diag
        agg = _aggregates(a, prio)
        t = sp.csr_matrix((np.ones(n), agg, np.arange(n + 1)),
                          shape=(n, int(agg.max()) + 1))
        wat = (a @ t).tocsr()
        wat.data *= np.repeat(w, np.diff(wat.indptr))  # the rows of W A T
        p = (t - wat).tocsr()
        del t, wat, agg, prio, v        # not held through the products below
        pt = p.T.tocsr()
        pta = pt @ a
        levels.append((a, w, pt, pt.T, pta.T))
        a = (pta @ p).tocsr()


def _vcycle(levels, factor, r):
    """One symmetric V-cycle on ``r``, which it leaves as it is: a
    damped-Jacobi sweep before and after each coarse correction, the
    coarsest level solved exactly with its Cholesky ``factor``, which is
    all the cycle does without levels."""
    if not levels:
        return _cho_solve(factor, r.copy())
    (a, w, pt, p, ap), rest = levels[0], levels[1:]
    x = w * r
    s = a @ x
    np.subtract(r, s, out=s)
    e = _vcycle(rest, factor, pt @ s)
    # A P e through (P^T A)^T: A is symmetric, and this product is cheaper;
    # x + P e + w (s - A P e), summed in place in that order
    x += p @ e
    ape = ap @ e
    x += np.multiply(w, np.subtract(s, ape, out=ape), out=ape)
    return x


def solve(system: LinearSystem, method: str = "auto", tol: float = 1e-12):
    """Solve the reduced system; returns ``(x, SolveStats)``.

    Both methods share one dense solve: :func:`_dense_factor` factors a
    dense copy of a matrix in place (a CSR matrix is densified), and
    :func:`_cho_solve` substitutes on a copy of a vector. ``cholesky``
    applies it to the whole matrix and the load; ``cg`` to the coarsest
    level of a smoothed-aggregation hierarchy (:func:`_hierarchy`), in
    the V-cycle (:func:`_vcycle`) that preconditions conjugate gradients,
    run until the recursively updated residual r satisfies
    ``|r| <= tol |b|``. The cycle has no options, and on a dense matrix
    it has no level, so neither method loads ``scipy.sparse`` up to
    ``_DENSE_ROWS`` rows.
    ``SolveStats.residual`` is ``|A x - b| / |b|`` recomputed from the
    returned ``x``, so it can exceed ``tol`` by rounding drift in r. ``auto`` picks
    ``cholesky`` up to ``_DENSE_ROWS`` (1200) free DOFs and ``cg`` above.
    A failed Cholesky factor, a non-positive diagonal, CG curvature or
    preconditioned residual product r.z, or CG not converging in
    ``max(500, 4 n)`` iterations raise :class:`NotSPD`; ``tol`` must be
    finite and positive, and so must every entry of the right-hand side.
    """
    a, b = system.matrix, system.rhs
    n = system.n_free
    if method == "auto":
        method = "cholesky" if n <= _DENSE_ROWS else "cg"
    if method not in ("cholesky", "cg"):
        raise ValueError(f"unknown solver {method!r}")
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"solver tol must be finite and positive, got {tol}")
    if n == 0:
        return np.zeros(0), SolveStats(method, 0, 0.0, ())
    bnorm = _norm(b)
    if not np.isfinite(bnorm):
        raise ValueError("the right-hand side has a non-finite entry")
    levels, coarse = _hierarchy(a) if method == "cg" else ([], a)
    factor = _dense_factor(coarse)
    x = z = _vcycle(levels, factor, b)  # Cholesky's answer, CG's first z
    count = 0
    if method == "cg":
        limit = max(500, 4 * n)
        x, r, step = np.zeros(n), b.copy(), np.empty(n)
        d, rz = z, _dot(r, z)
        while not _norm(r) <= tol * bnorm:
            if count == limit:
                raise NotSPD(f"CG failed to converge (info={limit}) after "
                             f"{count} iterations")
            if not rz > 0.0:
                # a V-cycle that is SPD gives r.z > 0 for every r != 0
                raise NotSPD(f"CG iteration {count}: preconditioned "
                             f"residual with r.z = {rz:.3e}; the V-cycle "
                             f"is not positive definite")
            ad = a @ d
            curvature = _dot(d, ad)
            if not curvature > 0.0:
                raise NotSPD(f"CG direction with curvature {curvature:.3e}: "
                             f"the matrix is not positive definite")
            alpha = rz / curvature
            x += np.multiply(alpha, d, out=step)
            r -= np.multiply(alpha, ad, out=ad)
            z = _vcycle(levels, factor, r)
            rz, rz_old = _dot(r, z), rz
            d *= rz / rz_old            # d = z + beta d, in place
            d += z
            count += 1
    res = _norm(a @ x - b) / (bnorm or 1.0)
    sizes = tuple(level[0].shape[0] for level in levels) + coarse.shape[:1]
    return x, SolveStats(method, count, res, sizes)


@dataclass(eq=False)
class SolutionResult:
    """Vertex solution plus the metadata of the run that produced it."""

    mesh: PolygonalMesh
    problem: ProblemSpec
    degrees: DegreeAssignment
    vertex_values: np.ndarray
    stats: SolveStats

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
