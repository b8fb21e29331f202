import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sps

from e2vem import analysis
from e2vem.analysis import solution_errors
from e2vem.assembly import (
    LinearSystem,
    ProblemSpec,
    assemble,
    assemble_full,
    export_solution,
    linear_problem,
    sin_sin_problem,
    solve,
    solve_problem,
)
from e2vem import geometry
from e2vem.degree import assign_degrees
from e2vem.errors import InadmissibleDegrees, NotSPD
from e2vem.geometry import PolygonalMesh, stack_polygons, stack_quadrature
from e2vem.meshgen import MeshFamilySpec, make_mesh

from oracles import as_csr, class_cells, fem_p1_stiffness


def square_grid_2x2():
    xs = np.linspace(0.0, 1.0, 3)
    verts = np.array([(x, y) for y in xs for x in xs])
    cells = [[0, 1, 4, 3], [1, 2, 5, 4], [3, 4, 7, 6], [4, 5, 8, 7]]
    return PolygonalMesh(verts, cells, name="grid2")


def test_problem_residual_check():
    sin_sin_problem("poisson").residual_check()
    sin_sin_problem("diffusion_reaction").residual_check()
    linear_problem(0.3, 0.7, -0.4, "poisson").residual_check()
    bad = ProblemSpec(
        "poisson",
        f=lambda x, y: np.ones_like(x),  # wrong source for this solution
        exact_solution=lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y),
    )
    with pytest.raises(ValueError):
        bad.residual_check()


@pytest.mark.parametrize("scale", [1e-6, 1e3, 1e6])
def test_residual_check_relative_to_data_scale(scale):
    base = sin_sin_problem("poisson")

    def scaled(f_factor):
        return ProblemSpec(
            "poisson", lambda x, y: scale * f_factor * base.f(x, y),
            exact_solution=lambda x, y: scale * base.exact_solution(x, y))

    scaled(1.0).residual_check()
    with pytest.raises(ValueError):
        scaled(1.01).residual_check()  # a source 1 % off


def test_zero_problem_zero_solution():
    mesh = square_grid_2x2()
    prob = ProblemSpec("poisson", f=0.0)
    res = solve_problem(mesh, "minimal", prob)
    assert not res.vertex_values.any()


def test_single_free_dof_hand_elimination():
    mesh = square_grid_2x2()
    prob = sin_sin_problem("poisson")
    degs = assign_degrees(mesh, "minimal")
    system = assemble(mesh, degs, prob)
    assert system.n_free == 1
    x, _ = solve(system)
    A, F = assemble_full(mesh, degs, prob)
    center = int(np.flatnonzero(~mesh.boundary_vertex_flags)[0])
    # hand elimination: boundary data is zero, so x = F_c / A_cc
    assert x[0] == pytest.approx(F[center] / A[center, center], rel=1e-13)
    full = system.expand(x)
    assert full[center] == x[0]
    dof_map = np.full(mesh.n_vertices, -1)
    dof_map[system.free] = np.arange(system.n_free)
    assert dof_map[center] == 0
    assert np.all(dof_map[mesh.boundary_vertex_flags] == -1)


def test_triangle_mesh_matrix_equals_p1_fem():
    mesh = make_mesh(MeshFamilySpec("triangulation", level=0))
    degs = assign_degrees(mesh, "minimal")
    A, _ = assemble_full(mesh, degs, sin_sin_problem("poisson"))
    fem = fem_p1_stiffness(mesh.vertices, mesh.cells)
    assert np.max(np.abs(as_csr(A).toarray() - fem)) < 1e-12


@pytest.mark.parametrize("fam", ["honeycomb", "concave_star"])
def test_global_kernel_before_elimination(fam):
    mesh = make_mesh(MeshFamilySpec(fam, level=0))
    degs = assign_degrees(mesh, "minimal")
    A, _ = assemble_full(mesh, degs, sin_sin_problem("poisson"))
    ones = np.ones(mesh.n_vertices)
    assert np.max(np.abs(A @ ones)) < 1e-11


def test_assembly_order_independent():
    mesh = make_mesh(MeshFamilySpec("cut_corner_octagon", level=0))
    prob = sin_sin_problem("diffusion_reaction")
    degs = assign_degrees(mesh, "minimal")
    A, F = assemble_full(mesh, degs, prob)

    order = np.random.default_rng(3).permutation(mesh.n_cells)
    shuffled = PolygonalMesh(mesh.vertices,
                             [mesh.cells[i] for i in order], name=mesh.name)
    degs2 = assign_degrees(shuffled, "minimal")
    assert np.array_equal(degs2.levels, degs.levels[order])
    assert ({frozenset(order[c]) for c in class_cells(shuffled)}
            == {frozenset(c) for c in class_cells(mesh)})
    A2, F2 = assemble_full(shuffled, degs2, prob)
    assert np.max(np.abs((as_csr(A) - as_csr(A2)).toarray())) < 1e-13
    assert np.max(np.abs(F - F2)) < 1e-13


def _eliminated(mesh, degs, problem, mode):
    """The reduced system by elimination from the full one:
    ``A[free][:, free]`` and ``F[free] - A[free][:, boundary] @ g``."""
    matrix, load = assemble_full(mesh, degs, problem, mode)
    matrix = as_csr(matrix)
    flags = mesh.boundary_vertex_flags
    free, boundary = np.flatnonzero(~flags), np.flatnonzero(flags)
    x, y = mesh.vertices[boundary, 0], mesh.vertices[boundary, 1]
    g = np.broadcast_to(problem.dirichlet_data(x, y), x.shape)
    rows = matrix[free]
    reduced = rows[:, free].tocsr()
    reduced.sort_indices()
    return reduced, load[free] - rows[:, boundary] @ g


def _exp_cos_problem(kind):
    return ProblemSpec(kind, lambda x, y: np.sin(3.0 * x) + y,
                       dirichlet_data=lambda x, y: np.exp(x) * np.cos(y))


@pytest.mark.parametrize("family, level, kind, mode", [
    (family, level, kind, mode)
    for family, kind, mode in (
        ("honeycomb", "poisson", "mean"),
        ("concave_star", "diffusion_reaction", "p1"),
        ("cut_corner_octagon", "poisson", "mean"),
        ("square_grid", "diffusion_reaction", "mean"),
        ("triangulation", "poisson", "p1"))
    for level in (1, 2)])
@pytest.mark.parametrize("data", ["linear_far", "exp_cos"])
def test_reduced_system_equals_elimination(family, level, kind, mode, data):
    # the direct reduced CSR stores no Dirichlet row or column and lifts
    # the boundary data member by member; elimination from the full
    # system is the oracle, entry by entry and on the same pattern
    mesh = make_mesh(MeshFamilySpec(family, level=level))
    if data == "linear_far":
        mesh = PolygonalMesh(mesh.vertices + [1e3, -2e3], mesh.cells)
        problem = linear_problem(0.25, -1.5, 0.75, kind)
    else:
        problem = _exp_cos_problem(kind)
    degs = assign_degrees(mesh, "minimal")
    system = assemble(mesh, degs, problem, mode)
    matrix, rhs = _eliminated(mesh, degs, problem, mode)
    assert np.abs(rhs).max() > 0.0
    a = as_csr(system.matrix)
    assert a.shape == matrix.shape == (system.n_free, system.n_free)
    np.testing.assert_array_equal(a.indptr, matrix.indptr)
    np.testing.assert_array_equal(a.indices, matrix.indices)
    assert np.abs(a.data - matrix.data).max() <= 1e-14 * np.abs(matrix.data).max()
    assert np.abs(system.rhs - rhs).max() <= 1e-13 * np.abs(rhs).max()


def test_reduced_system_without_free_dofs():
    # one cell, four boundary vertices: everything is lifted away
    mesh = PolygonalMesh([(0, 0), (1, 0), (1, 1), (0, 1)], [[0, 1, 2, 3]])
    degs = assign_degrees(mesh, "minimal")
    for kind, mode in (("poisson", "mean"), ("diffusion_reaction", "p1")):
        system = assemble(mesh, degs, _exp_cos_problem(kind), mode)
        a = as_csr(system.matrix)
        assert a.shape == (0, 0) and a.nnz == 0
        assert system.rhs.shape == (0,)
        np.testing.assert_array_equal(system.boundary, np.arange(4))


def test_reduced_matrix_memory_and_format():
    # tracemalloc counts numpy's buffers in this process alone, so the
    # bounds are deterministic; the COO path peaked at 7.6 times the
    # matrix here, the direct CSR kept at slab length retained 1.44 times
    import tracemalloc

    mesh = make_mesh(MeshFamilySpec("concave_star", level=3))
    degs = assign_degrees(mesh, "minimal")
    problem = sin_sin_problem("diffusion_reaction")
    assemble(mesh, degs, problem, "p1")   # fills the mesh's and kernels' caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        system = assemble(mesh, degs, problem, "p1")
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    a = system.matrix
    size = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
    assert peak - start <= 4.0 * size
    assert retained - start <= 1.15 * size
    assert a.indices.dtype == a.indptr.dtype == np.int32
    assert len(a.data) == len(a.indices) == a.nnz
    # canonical: columns strictly ascending within every row
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    assert np.all(np.diff(rows * a.shape[1] + a.indices) > 0)
    assert a.has_canonical_format


@pytest.fixture(scope="module")
def concave_star_l3_matrix():
    mesh = make_mesh(MeshFamilySpec("concave_star", level=3))
    return assemble(mesh, assign_degrees(mesh, "minimal"),
                    sin_sin_problem("diffusion_reaction"), "p1").matrix


def _traced_peak(fn, *args):
    """Peak of the memory that ``fn(*args)`` holds above its start, in
    bytes, as ``tracemalloc`` counts it."""
    import tracemalloc

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - start


def test_aggregation_memory(concave_star_l3_matrix):
    # an np.take gather cast the int32 pattern indices to an int64 copy
    # of length nnz: the peak read 1.19 times the matrix's bytes
    from e2vem.assembly import _aggregates, _priorities

    a = concave_star_l3_matrix
    size = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
    prio = _priorities(a.shape[0])
    assert _traced_peak(_aggregates, a, prio) <= 0.9 * size


def test_hierarchy_memory(concave_star_l3_matrix):
    # the tentative prolongator and the aggregates were kept alive through
    # the P^T A and P^T A P products: the peak read 1.29 times the matrix
    from e2vem.assembly import _hierarchy

    a = concave_star_l3_matrix
    size = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
    assert _traced_peak(_hierarchy, a) <= 1.05 * size


@pytest.mark.parametrize("family, kind, mode, levels, iterations", [
    ("honeycomb", "poisson", "mean", (35712, 1872, 102), 36),
    ("concave_star", "diffusion_reaction", "p1", (37185, 1504, 59), 52)])
def test_hierarchy_and_iterations_pinned(family, kind, mode, levels,
                                         iterations):
    # the aggregation reads the pattern alone, and the pattern and the
    # CG recurrence are those of the eliminated system
    mesh = make_mesh(MeshFamilySpec(family, level=3))
    res = solve_problem(mesh, "minimal", sin_sin_problem(kind), mode)
    assert res.stats.levels == levels
    assert res.stats.iterations == iterations


def test_load_evaluates_source_in_member_chunks(monkeypatch):
    # the load calls f on at most 7 members' quadrature points at a time
    mesh = make_mesh(MeshFamilySpec("honeycomb", level=1))
    degs = assign_degrees(mesh, "minimal")
    sizes = []

    def counting_f(x, y):
        sizes.append(len(x))
        return np.cos(x) * y

    monkeypatch.setattr(geometry, "_CHUNK_MEMBERS", 7)
    assemble_full(mesh, degs, ProblemSpec("poisson", counting_f))
    # the classes of one vertex count and degree are chunked together,
    # groups in (n, l) order, and within a group first the classes on the
    # fan rule, then those on a compressed rule (45 points a member: at
    # least _COMPRESS_MEMBERS members, load degree at most 8, fewer points
    # than the fan rule), classes in index order within each part
    parts = {}
    for poly, cells in zip(mesh.cell_classes, class_cells(mesh)):
        l = int(degs.levels[cells[0]])
        _, w = stack_quadrature(stack_polygons([poly]), 2 * (l + 1) + 2)
        points = w.shape[1]
        if (len(cells) >= analysis._COMPRESS_MEMBERS
                and 2 * (l + 1) + 2 <= 8 and 45 < points):
            points = 45
        parts.setdefault((poly.n_vertices, l, points == 45), []).append(
            (points, len(cells)))
    expected = []
    for _, part in sorted(parts.items()):
        members = sum(m for _, m in part)
        expected += [min(7, members - k) * part[0][0]
                     for k in range(0, members, 7)]
    assert any(compressed for _, _, compressed in parts)
    assert np.bincount(mesh.cell_class).max() > 7
    assert sizes == expected


def test_load_points_on_honeycomb_l2():
    # f is evaluated at 45 points a member of the classes with a
    # compressed rule (4,402 hexagons at l = 2, two classes of 62
    # pentagons at l = 1) and on the fan rule of the 73 quadrilaterals
    # (l = 1, 64 points each): 208,342 points, against 674,892 on the fan
    # rule alone
    mesh = make_mesh(MeshFamilySpec("honeycomb", level=2))
    sizes = []

    def counting_f(x, y):
        sizes.append(len(x))
        return np.cos(x) * y

    assemble(mesh, assign_degrees(mesh, "minimal"),
             ProblemSpec("poisson", counting_f))
    assert sum(sizes) == 4402 * 45 + 2 * 62 * 45 + 73 * 64 == 208342


def _lowest_load_degree(mesh, degrees):
    """The lowest load degree 2 (l + 1) + 2 of a class with a compressed
    rule, or 4 (l = 0) when no class has one."""
    return min((2 * (degrees.evidence[k].l + 1) + 2
                for k in mesh._class_rules), default=4)


@pytest.mark.parametrize("mode", ["mean", "p1"])
@pytest.mark.parametrize("family", ["honeycomb", "concave_star",
                                    "cut_corner_octagon", "triangulation"])
def test_compressed_load_matches_fan_rule_load(family, mode, monkeypatch):
    # the load on the compressed rules against the load of the same mesh
    # with every class on its fan rule: within 1e-13 for the sin-sin
    # source, and to rounding for a polynomial source that both rules
    # integrate exactly (degree d, or d - 1 for p1's linear moments, d
    # the lowest load degree of a compressed class)
    mesh = make_mesh(MeshFamilySpec(family, level=2))
    degrees = assign_degrees(mesh, "minimal")
    kind = "poisson" if mode == "mean" else "diffusion_reaction"
    d = _lowest_load_degree(mesh, degrees) - (mode == "p1")
    sources = (sin_sin_problem(kind).f,
               lambda x, y: (0.5 + x - 0.7 * y) ** d + 0.3 * x ** (d - 1) * y)
    with monkeypatch.context() as m:
        m.setattr(analysis, "_COMPRESS_MEMBERS", 10 ** 9)
        fan = PolygonalMesh(mesh.vertices, mesh.cells)
        fan_loads = [assemble_full(fan, assign_degrees(fan, "minimal"),
                                   ProblemSpec(kind, f), mode)[1]
                     for f in sources]
    assert fan._class_rules == {} and mesh._class_rules
    for f, want in zip(sources, fan_loads):
        got = assemble_full(mesh, degrees, ProblemSpec(kind, f), mode)[1]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        if family == "triangulation":
            # triangles keep the fan rule (27 nodes at l = 0), though
            # their classes have compressed rules for the error norms
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("family, level", [("square_grid", 0)] + [
    (family, level)
    for family in ("honeycomb", "concave_star", "cut_corner_octagon")
    for level in range(3)])
def test_scalar_fields_broadcast(family, level):
    # a field that returns a constant stands for an array of it: the
    # load, the Dirichlet values and the solve match the array form
    # bitwise, whatever the mesh's point counts
    mesh = make_mesh(MeshFamilySpec(family, level=level))
    degs = assign_degrees(mesh, "minimal")
    for kind, mode in (("poisson", "mean"), ("diffusion_reaction", "p1")):
        scalar = ProblemSpec(kind, lambda x, y: 1.0,
                             dirichlet_data=lambda x, y: 0.5)
        array = ProblemSpec(kind, lambda x, y: np.ones_like(x),
                            dirichlet_data=lambda x, y: np.full_like(x, 0.5))
        assert np.array_equal(assemble_full(mesh, degs, scalar, mode)[1],
                              assemble_full(mesh, degs, array, mode)[1])
        a, b = assemble(mesh, degs, scalar, mode), assemble(mesh, degs, array, mode)
        assert np.array_equal(a.boundary_values, b.boundary_values)
        assert np.array_equal(a.rhs, b.rhs)
        assert np.array_equal(solve_problem(mesh, "minimal", scalar, mode).vertex_values,
                              solve_problem(mesh, "minimal", array, mode).vertex_values)


def jittered_square_grid(scale=1.0):
    mesh = make_mesh(MeshFamilySpec("square_grid", level=2))
    verts = mesh.vertices.copy()
    interior = ~mesh.boundary_vertex_flags
    shift = np.random.default_rng(5).uniform(-0.1, 0.1, (interior.sum(), 2))
    verts[interior] += shift * mesh.h
    return PolygonalMesh(scale * verts, mesh.cells)


@pytest.mark.parametrize("scale", [1e-11, 1e12])
def test_results_independent_of_coordinate_scale(scale):
    # 256 distinct quadrilaterals; the 2D stiffness is scale-invariant
    base, scaled = jittered_square_grid(), jittered_square_grid(scale)
    assert len(scaled.cell_classes) == len(base.cell_classes) == base.n_cells
    degs, degs_s = assign_degrees(base), assign_degrees(scaled)
    assert np.array_equal(degs_s.levels, degs.levels)
    prob = ProblemSpec("poisson", f=0.0)
    A = as_csr(assemble_full(base, degs, prob)[0]).toarray()
    A_s = as_csr(assemble_full(scaled, degs_s, prob)[0]).toarray()
    assert np.abs(A_s - A).max() <= 1e-12 * np.abs(A).max()

    def linear(x, y):
        return 0.3 + (0.7 * x - 0.4 * y) / scale

    patch = ProblemSpec("poisson", f=0.0, dirichlet_data=linear)
    res = solve_problem(scaled, "minimal", patch)
    exact = linear(scaled.vertices[:, 0], scaled.vertices[:, 1])
    assert np.abs(res.vertex_values - exact).max() < 1e-10


def test_kernel_built_once_per_class_and_level(monkeypatch):
    from e2vem import projectors

    base = make_mesh(MeshFamilySpec("honeycomb", level=0))
    verts = base.vertices.copy()
    interior = ~base.boundary_vertex_flags
    shift = np.random.default_rng(4).uniform(-0.05, 0.05, (interior.sum(), 2))
    verts[interior] += shift * base.h
    mesh = PolygonalMesh(verts, base.cells)
    kernels, pinablas, stacks = [], [], []
    build_fn, pinabla_fn = projectors._build_projectors, projectors.compute_pinabla

    def counting_build(polys, l):
        stacks.append((polys[0].n_vertices, l, len(polys)))
        kernels.extend((poly, l) for poly in polys)
        return build_fn(polys, l)

    def counting_pinabla(s):
        pinablas.extend(map(bytes, s.vertices))
        return pinabla_fn(s)

    monkeypatch.setattr(projectors, "_build_projectors", counting_build)
    for module in (projectors, analysis):
        monkeypatch.setattr(module, "compute_pinabla", counting_pinabla)
    result = solve_problem(mesh, "minimal", sin_sin_problem("poisson"))
    solution_errors(result)
    classes = mesh.cell_classes
    assert len(classes) == mesh.n_cells  # every cell is its own class
    # certification and assembly share one kernel per (class, level); each
    # kernel build and the error norms compute a class's elliptic projector
    assert set(Counter(kernels).values()) == {1}
    assert {(poly, int(result.degrees.levels[cells[0]]))
            for poly, cells in zip(classes, class_cells(mesh))} <= set(kernels)
    computed = [poly for poly, _ in kernels] + list(classes)
    assert Counter(pinablas) == Counter(bytes(p.vertices) for p in computed)
    # each (vertex count, degree) is computed in the fewest stacks of at
    # most geometry._STACK_ROWS polygons
    rows = geometry._STACK_ROWS
    assert max(m for *_, m in stacks) <= rows
    groups = Counter((p.n_vertices, l) for p, l in kernels)
    assert max(groups.values()) > rows
    assert Counter((n, l) for n, l, _ in stacks) == {
        key: -(-m // rows) for key, m in groups.items()}


def test_solve_one_by_one_and_known_inverse():
    sys1 = LinearSystem(sps.csr_matrix(np.array([[4.0]])), np.array([2.0]),
                        np.array([0]), np.array([], dtype=int),
                        np.array([]), 1)
    x, stats = solve(sys1)
    assert x[0] == pytest.approx(0.5)

    A = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    b = np.array([1.0, -2.0, 0.5])
    sys3 = LinearSystem(sps.csr_matrix(A), b, np.arange(3),
                        np.array([], dtype=int), np.array([]), 3)
    for method in ("cholesky", "cg"):
        x, stats = solve(sys3, method=method)
        assert np.allclose(x, np.linalg.solve(A, b), atol=1e-12)
        assert stats.method == method


@pytest.mark.parametrize("n,expected", [(1200, "cholesky"), (1201, "cg")])
def test_solve_default_picks_method_by_size(n, expected):
    A = sps.diags([-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)],
                  [-1, 0, 1], format="csr")
    b = np.linspace(-1.0, 1.0, n)
    system = LinearSystem(A, b, np.arange(n), np.array([], dtype=int),
                          np.array([]), n)
    x, stats = solve(system)
    assert stats.method == expected
    assert np.abs(A @ x - b).max() < 1e-10


def test_unknown_solver_rejected_on_empty_system():
    # one cell, four boundary vertices: no free DOF
    mesh = PolygonalMesh([(0, 0), (1, 0), (1, 1), (0, 1)], [[0, 1, 2, 3]])
    prob = linear_problem(0.3, 0.7, -0.4, "poisson")
    with pytest.raises(ValueError, match="unknown solver"):
        solve_problem(mesh, "minimal", prob, solver="bogus")
    exact = prob.exact_solution(mesh.vertices[:, 0], mesh.vertices[:, 1])
    for method in ("cg", "cholesky"):
        res = solve_problem(mesh, "minimal", prob, solver=method)
        assert res.stats.method == method
        np.testing.assert_array_equal(res.vertex_values, exact)


def test_solve_not_spd():
    A = np.array([[1.0, 0.0], [0.0, -1.0]])
    sys2 = LinearSystem(sps.csr_matrix(A), np.ones(2), np.arange(2),
                        np.array([], dtype=int), np.array([]), 2)
    with pytest.raises(NotSPD):
        solve(sys2, method="cholesky")
    with pytest.raises(NotSPD):
        solve(sys2, method="cg")


@pytest.mark.parametrize("method", ["cholesky", "cg"])
def test_solve_refuses_a_non_finite_load(method):
    # numpy's Cholesky factor and the substitutions run through NaN, so a
    # load that is NaN somewhere would give a NaN solution
    system = _system(np.array([[4.0, 1.0], [1.0, 3.0]]), [np.nan, 2.0])
    with pytest.raises(ValueError, match="non-finite"):
        solve(system, method=method)


@pytest.mark.parametrize("entry", [(0, 0), (1, 0)])
def test_cholesky_refuses_a_non_finite_matrix(entry):
    # LAPACK's factor runs through NaN, which then reaches the diagonal
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    a[entry] = np.nan
    with pytest.raises(NotSPD, match="non-finite"):
        solve(_system(a, [1.0, 2.0]), method="cholesky")


def _system(matrix, rhs):
    n = len(rhs)
    return LinearSystem(sps.csr_matrix(matrix), np.asarray(rhs, dtype=float),
                        np.arange(n), np.array([], dtype=int), np.array([]), n)


@pytest.mark.parametrize("flip", [0, 3])
def test_cg_refuses_a_preconditioner_that_is_not_spd(flip, monkeypatch):
    # a preconditioner that is not positive definite shows as r.z <= 0,
    # and the iteration is named: here the identity for the first ``flip``
    # applications, minus the identity from then on
    from e2vem import assembly

    mesh = make_mesh(MeshFamilySpec("honeycomb", level=1))
    system = assemble(mesh, assign_degrees(mesh, "minimal"),
                      sin_sin_problem("poisson"))
    calls = []

    def flipped(levels, coarse, r):
        calls.append(None)
        return -r if len(calls) > flip else r.copy()

    monkeypatch.setattr(assembly, "_vcycle", flipped)
    with pytest.raises(NotSPD, match=f"CG iteration {flip}: .* not positive"):
        solve(system, method="cg")
    assert len(calls) == flip + 1


def _spd_case(case):
    """An SPD test matrix: for an int n, a dense random one of n rows;
    ``laplacian``, the five-point Laplacian of a 15 x 36 lattice in
    lattice order (540 rows, envelope 36); ``permuted``, that Laplacian
    in a random order (envelope near 540); ``empty_panel``, two dense
    random blocks, of 32 and 45 rows, that do not couple."""
    if case == "permuted":
        order = np.random.default_rng(0).permutation(540)
        return _spd_case("laplacian")[np.ix_(order, order)]
    if case == "laplacian":
        def path(k):
            return sps.diags([-np.ones(k - 1), 2.0 * np.ones(k),
                              -np.ones(k - 1)], [-1, 0, 1])
        return (sps.kron(sps.identity(15), path(36))
                + sps.kron(path(15), sps.identity(36))).toarray()
    if case == "empty_panel":
        return sps.block_diag([_spd_case(32), _spd_case(45)]).toarray()
    rng = np.random.default_rng(case)
    m = rng.standard_normal((case, case))
    return m @ m.T + case * np.eye(case)


@pytest.mark.parametrize("case", [1, 32, 33, 67, "laplacian", "permuted",
                                  "empty_panel"])
def test_cholesky_solve_matches_dense_solve(case):
    # row blocks of 32: one short block, exactly one, a full one and one
    # row, a short last one, an envelope across more than one block, one
    # across the whole matrix, and a first block whose panel is empty
    from e2vem.assembly import _cho_solve, _dense_factor

    a = _spd_case(case)
    n = len(a)
    factor = _dense_factor(sps.csr_matrix(a))
    lower = factor[0]
    np.testing.assert_allclose(lower, np.linalg.cholesky(a), rtol=1e-12,
                               atol=1e-14)
    assert not np.triu(lower, 1).any()
    rng = np.random.default_rng(n)
    for b in rng.standard_normal((2, n)):
        # the substitution overwrites the array it is given
        np.testing.assert_allclose(_cho_solve(factor, b.copy()),
                                   np.linalg.solve(a, b), rtol=1e-12,
                                   atol=1e-14)


@pytest.mark.parametrize("shuffled", [False, True])
def test_dense_factor_holds_one_dense_copy(shuffled):
    # the factor works in the one dense copy it returns; numpy's
    # whole-matrix Cholesky held two more, LAPACK's Fortran-order copy
    # and its output. In a random vertex order the envelope spans the
    # matrix, and the trailing updates must still hold no square temporary
    from e2vem.assembly import _dense_factor

    mesh = make_mesh(MeshFamilySpec("honeycomb", level=0))
    a = as_csr(assemble(mesh, assign_degrees(mesh, "minimal"),
                        sin_sin_problem("poisson")).matrix)
    n = a.shape[0]
    if shuffled:
        order = np.random.default_rng(0).permutation(n)
        a = a[order][:, order]
    _dense_factor(a)                    # numpy's lazy set-up, untraced
    tracemalloc.start()
    try:
        _dense_factor(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 540 and peak <= 1.25 * n * n * 8


def test_cg_without_levels_holds_one_dense_copy():
    # on a dense system of at most _DENSE_ROWS rows CG builds no level,
    # and its coarse solve substitutes with the factor: the factor is the
    # only square array. The explicit coarse inverse held 2.18 copies here
    mesh = make_mesh(MeshFamilySpec("honeycomb", level=0))
    system = assemble(mesh, assign_degrees(mesh, "minimal"),
                      sin_sin_problem("poisson"))
    n = system.n_free
    solve(system, method="cg")          # numpy's lazy set-up, untraced
    tracemalloc.start()
    try:
        _, stats = solve(system, method="cg")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.levels == (n,) and stats.iterations > 0
    assert n == 540 and peak <= 1.25 * n * n * 8


@pytest.mark.parametrize("full", [False, True])
def test_dense_and_csr_assembly_agree_at_the_bound(full, monkeypatch):
    # a system of at most _DENSE_ROWS rows is summed into an ndarray, a
    # larger one into canonical CSR: the bound moved to either side of
    # one mesh's size gives the same matrix, bitwise the same load, and
    # a CSR matrix that the Cholesky path still densifies and factors
    from e2vem import assembly

    mesh = make_mesh(MeshFamilySpec("concave_star", level=0))
    degs = assign_degrees(mesh, "minimal")
    problem = _exp_cos_problem("diffusion_reaction")
    free = int((~mesh.boundary_vertex_flags).sum())
    size = mesh.n_vertices if full else free
    built = []
    for bound in (size, size - 1):
        monkeypatch.setattr(assembly, "_DENSE_ROWS", bound)
        if full:
            built.append(assemble_full(mesh, degs, problem, "p1"))
        else:
            system = assemble(mesh, degs, problem, "p1")
            built.append((system.matrix, system.rhs,
                          solve(system, method="cholesky")))
    (dense, dense_load, *solved), (csr, csr_load, *csr_solved) = built
    assert isinstance(dense, np.ndarray) and dense.shape == (size, size)
    assert sps.isspmatrix_csr(csr) and csr.has_canonical_format
    assert np.abs(dense - csr.toarray()).max() <= 1e-14 * np.abs(dense).max()
    np.testing.assert_array_equal(dense_load, csr_load)
    if solved:
        (x, stats), (x_csr, csr_stats) = solved[0], csr_solved[0]
        assert stats.levels == csr_stats.levels == (size,)
        assert np.abs(x_csr - x).max() <= 1e-12 * np.abs(x).max()


#: Solves four honeycomb L0 meshes, interior vertices moved by up to
#: 0.05 h from one stream, by Cholesky; prints a hash of the vertex
#: values' bytes.
JITTERED_CHOLESKY = """
import hashlib
import numpy as np
import e2vem

base = e2vem.make_mesh(e2vem.MeshFamilySpec("honeycomb", level=0))
interior = ~np.asarray(base.boundary_vertex_flags)
rng = np.random.default_rng((0, 0))
digest = hashlib.sha256()
for _ in range(4):
    verts = base.vertices.copy()
    verts[interior] += base.h * rng.uniform(-0.05, 0.05,
                                            size=(int(interior.sum()), 2))
    result = e2vem.solve_problem(e2vem.PolygonalMesh(verts, base.cells),
                                 "minimal", e2vem.sin_sin_problem("poisson"),
                                 solver="cholesky")
    digest.update(result.vertex_values.tobytes())
print(digest.hexdigest())
"""


def _outputs_under_blas_threads(script):
    """What ``script`` prints in a subprocess under 1 and under 2 BLAS
    threads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        outputs.append(subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, check=True).stdout)
    return outputs


def test_cholesky_bits_do_not_depend_on_the_blas_thread_count():
    # Nothing in the factor forbids a thread-dependent sum: this holds for
    # these 540-row systems (envelope 32) under numpy's bundled OpenBLAS,
    # whose products of this size run on one thread. A failure under
    # another BLAS build says that build threads them, not that the
    # factor is wrong.
    digests = _outputs_under_blas_threads(JITTERED_CHOLESKY)
    assert digests[0] == digests[1]


#: Solves cut_corner_octagon L3 (20,448 free DOFs) by CG; prints a hash of
#: the vertex values' bytes and the solve's statistics.
CUT_CORNER_CG = """
import hashlib
import e2vem

mesh = e2vem.make_mesh(e2vem.MeshFamilySpec("cut_corner_octagon", level=3))
result = e2vem.solve_problem(mesh, "minimal", e2vem.sin_sin_problem("poisson"),
                             solver="cg")
print(hashlib.sha256(result.vertex_values.tobytes()).hexdigest(), result.stats)
"""


def test_cg_bits_do_not_depend_on_the_blas_thread_count():
    # BLAS's ddot splits a long vector across its threads, so the CG
    # residual's last bits followed the thread count: here 5.8834e-13
    # under 1 thread against 5.8934e-13 under 2, in the same 31 iterations
    outputs = _outputs_under_blas_threads(CUT_CORNER_CG)
    assert outputs[0] == outputs[1]
    assert "iterations=31," in outputs[0]


def test_cg_refuses_indefinite_systems():
    # Jacobi-CG returned a solution for the first two; the 2x2 goes
    # straight to the coarse direct solve, the tridiagonal one (diagonal
    # 1, off-diagonals 2: eigenvalues in (-3, 5)) through the hierarchy
    small = _system(np.array([[1.0, 2.0], [2.0, 1.0]]), [1.0, 0.0])
    n = 2000
    tri = sps.diags([2.0 * np.ones(n - 1), np.ones(n), 2.0 * np.ones(n - 1)],
                    [-1, 0, 1], format="csr")
    large = _system(tri, np.linspace(-1.0, 1.0, n))
    # an SPD Laplacian beside the 2x2 block: the hierarchy builds, and the
    # load excites the negative mode, so CG meets negative curvature
    lap = sps.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                    [-1, 0, 1])
    hidden = _system(sps.block_diag([lap, small.matrix]),
                     np.r_[np.ones(n), 1.0, 0.0])
    for system, match in ((small, "Cholesky"), (large, "diagonal"),
                          (hidden, "curvature")):
        with pytest.raises(NotSPD, match=match):
            solve(system, method="cg")


def test_cg_solves_a_diagonal_system():
    # no edges in the sparsity graph: every row is its own root, so the
    # isolated rows must share an aggregate for the hierarchy to coarsen
    d = np.linspace(1.0, 3.0, 3000)
    x, stats = solve(_system(sps.diags(d), np.ones(3000)), method="cg")
    np.testing.assert_allclose(x, 1.0 / d, rtol=1e-12)
    assert stats.levels[0] == 3000 and stats.levels[-1] <= 1200


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_solve_rejects_invalid_tol(tol):
    # these ran CG into its iteration limit and raised NotSPD
    system = _system(np.array([[4.0, 1.0], [1.0, 3.0]]), [1.0, 2.0])
    empty = _system(np.zeros((0, 0)), [])
    for s in (system, empty):
        for method in ("auto", "cg", "cholesky"):
            with pytest.raises(ValueError, match="tol"):
                solve(s, method=method, tol=tol)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_cg_iterations_bounded_on_concave_star(level):
    # Jacobi-CG needed 128, 229 and 385 iterations here, growing as 1/h
    mesh = make_mesh(MeshFamilySpec("concave_star", level=level))
    res = solve_problem(mesh, "minimal", sin_sin_problem("poisson"),
                        solver="cg")
    assert res.stats.iterations <= 80
    assert res.stats.residual <= 1e-12
    assert res.stats.levels[0] == res.n_dofs and len(res.stats.levels) >= 2


@pytest.mark.parametrize("kind", ["poisson", "diffusion_reaction"])
def test_cg_matches_cholesky_through_the_hierarchy(kind):
    mesh = make_mesh(MeshFamilySpec("honeycomb", level=1))
    system = assemble(mesh, assign_degrees(mesh, "minimal"),
                      sin_sin_problem(kind))
    assert system.n_free > 1200  # at least one smoothed level runs
    x_chol, chol = solve(system, method="cholesky")
    x_cg, stats = solve(system, method="cg")
    assert chol.levels == (system.n_free,)
    assert len(stats.levels) >= 2 and stats.levels[-1] <= 1200
    assert np.max(np.abs(x_cg - x_chol)) < 1e-10


def test_vcycle_is_symmetric_positive_definite():
    # plain CG is valid only with an SPD preconditioner
    from e2vem.assembly import _dense_factor, _hierarchy, _vcycle

    mesh = make_mesh(MeshFamilySpec("concave_star", level=2))
    system = assemble(mesh, assign_degrees(mesh, "minimal"),
                      sin_sin_problem("poisson"))
    levels, coarse = _hierarchy(system.matrix)
    factor = _dense_factor(coarse)
    rng = np.random.default_rng(5)
    for _ in range(3):
        x, y = rng.standard_normal((2, system.n_free))
        mx, my = _vcycle(levels, factor, x), _vcycle(levels, factor, y)
        assert x @ mx > 0 and y @ my > 0
        assert abs(y @ mx - x @ my) <= 1e-12 * np.sqrt((x @ mx) * (y @ my))


@pytest.mark.parametrize("method", ["cg", "cholesky"])
def test_solve_reports_recomputed_residual(method):
    # CG stops on its recursively updated residual; the reported one is
    # recomputed from the returned solution, with solve's own norm
    from e2vem.assembly import _norm

    mesh = make_mesh(MeshFamilySpec("concave_star", level=2))
    system = assemble(mesh, assign_degrees(mesh, "minimal"),
                      sin_sin_problem("poisson"))
    x, stats = solve(system, method=method, tol=1e-12)
    b = system.rhs
    assert stats.residual == _norm(system.matrix @ x - b) / _norm(b)


def test_cg_is_bitwise_repeatable():
    mesh = make_mesh(MeshFamilySpec("concave_star", level=2))
    system = assemble(mesh, assign_degrees(mesh, "minimal"),
                      sin_sin_problem("poisson"))
    x1, s1 = solve(system, method="cg")
    x2, s2 = solve(system, method="cg")
    np.testing.assert_array_equal(x1, x2)
    assert s1 == s2


def test_cg_in_place_matches_allocating_form():
    # the CG loop and the V-cycle sum into preallocated buffers in the
    # order of the textbook form below, so the iterates match it bitwise;
    # its reductions are solve's own, which BLAS's thread count leaves be
    from e2vem.assembly import (_cho_solve, _dense_factor, _dot, _hierarchy,
                                _norm)

    mesh = make_mesh(MeshFamilySpec("concave_star", level=2))
    system = assemble(mesh, assign_degrees(mesh, "minimal"),
                      sin_sin_problem("poisson"))
    a, b = system.matrix, system.rhs
    levels, coarse = _hierarchy(a)
    factor = _dense_factor(coarse)

    def vcycle(levels, r):
        if not levels:
            return _cho_solve(factor, r.copy())
        (a, w, pt, pta), rest = levels[0], levels[1:]
        x = w * r
        r = r - a @ x
        e = vcycle(rest, pt @ r)
        return x + pt.T @ e + w * (r - pta.T @ e)

    x, r = np.zeros(len(b)), b.copy()
    z = vcycle(levels, r)
    d, rz = z, _dot(r, z)
    count = 0
    while not _norm(r) <= 1e-12 * _norm(b):
        ad = a @ d
        alpha = rz / _dot(d, ad)
        x = x + alpha * d
        r = r - alpha * ad
        z = vcycle(levels, r)
        rz, rz_old = _dot(r, z), rz
        d = z + (rz / rz_old) * d
        count += 1
    got, stats = solve(system, method="cg")
    assert stats.iterations == count
    np.testing.assert_array_equal(got, x)


def test_cg_matches_cholesky_on_honeycomb():
    mesh = make_mesh(MeshFamilySpec("honeycomb", level=0))
    prob = sin_sin_problem("poisson")
    degs = assign_degrees(mesh, "minimal")
    system = assemble(mesh, degs, prob)
    x_chol, _ = solve(system, method="cholesky")
    x_cg, stats = solve(system, method="cg", tol=1e-13)
    assert stats.iterations > 0
    assert stats.residual <= 1e-12
    assert np.max(np.abs(x_cg - x_chol)) < 1e-10


def test_patch_test_far_from_origin():
    # cell shapes are computed from offsets to their first vertex, so a
    # honeycomb translated by 1e6 is solved like the original
    mesh = make_mesh(MeshFamilySpec("honeycomb", level=1))
    moved = PolygonalMesh(mesh.vertices + 1e6, mesh.cells)
    prob = linear_problem(0.25, -1.5, 0.75, "poisson")
    exact = prob.exact_solution(moved.vertices[:, 0], moved.vertices[:, 1])
    res = solve_problem(moved, "minimal", prob)
    assert np.abs(res.vertex_values - exact).max() <= 1e-8 * np.abs(exact).max()


def test_patch_test_load_modes():
    mesh = make_mesh(MeshFamilySpec("square_grid", level=0))
    prob = linear_problem(0.1, -0.8, 0.5, "poisson")
    exact = prob.exact_solution(mesh.vertices[:, 0], mesh.vertices[:, 1])
    for mode in ("mean", "p1"):
        res = solve_problem(mesh, "minimal", prob, load_mode=mode)
        assert np.max(np.abs(res.vertex_values - exact)) < 1e-12


def test_export_solution_shape():
    mesh = make_mesh(MeshFamilySpec("square_grid", level=0))
    res = solve_problem(mesh, "minimal", sin_sin_problem("poisson"))
    payload = export_solution(res)
    assert payload["mesh"] == "square_grid-level0"
    assert len(payload["vertex_values"]) == mesh.n_vertices
    assert len(payload["degrees"]) == mesh.n_cells
    assert res.n_dofs == int((~mesh.boundary_vertex_flags).sum())


def test_unknown_load_mode_rejected():
    mesh = make_mesh(MeshFamilySpec("square_grid", level=0))
    degs = assign_degrees(mesh, "minimal")
    with pytest.raises(ValueError):
        assemble_full(mesh, degs, sin_sin_problem("poisson"), load_mode="exotic")


def test_unknown_problem_kind_rejected():
    with pytest.raises(ValueError, match="unknown problem kind 'heat'"):
        ProblemSpec("heat", 1.0)


def test_assemble_refuses_degrees_of_another_class_count():
    # the same four cells, one class on the grid and four once its center
    # has moved: the grid's degrees do not fit the moved mesh
    grid = square_grid_2x2()
    verts = grid.vertices.copy()
    verts[4] += 0.1
    moved = PolygonalMesh(verts, grid.cells)
    assert (len(grid.cell_classes), len(moved.cell_classes)) == (1, 4)
    with pytest.raises(InadmissibleDegrees,
                       match="covers 4 cells in 1 classes, mesh has 4 "
                             "cells in 4"):
        assemble(moved, assign_degrees(grid, "minimal"),
                 sin_sin_problem("poisson"))
