import json
import math

import numpy as np
import pytest
import sympy as sp

from e2vem.errors import (ClockwiseOrientation, NotSimple, NotStarShaped,
                          ParseError, StructuralDefect)
from e2vem import geometry
from e2vem.geometry import (
    PolygonalMesh,
    build_polygon,
    class_groups,
    class_members,
    stack_polygons,
    stack_quadrature,
    validate_mesh,
)
from e2vem.meshgen import (
    MeshFamilySpec,
    PolygonFamilySpec,
    make_mesh,
    make_polygon,
    regular_polygon,
)

from e2vem.assembly import assemble, sin_sin_problem, solve_problem
from e2vem.degree import assign_degrees

from oracles import (boundary_flags_by_edge_walk, class_cells, exact_polygon_integral,
                     kernel_contains, monte_carlo_integral, per_cell_quality)

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
UNIT_RIGHT_TRIANGLE = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
MESH_FAMILIES = ("honeycomb", "cut_corner_octagon", "concave_star",
                 "triangulation", "square_grid")
#: 2 x 2 unit squares on a 3 x 3 vertex lattice, vertex 4 at the center
GRID_VERTICES = [(x, y) for y in range(3) for x in range(3)]
GRID_CELLS = [[0, 1, 4, 3], [1, 2, 5, 4], [3, 4, 7, 6], [4, 5, 8, 7]]


def test_unit_square_metrics():
    poly = build_polygon(UNIT_SQUARE)
    assert poly.area == pytest.approx(1.0, abs=1e-15)
    assert poly.diameter == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert poly.star_center == pytest.approx([0.5, 0.5], abs=1e-12)
    assert poly.edge_lengths.sum() == pytest.approx(4.0, abs=1e-14)


def test_unit_right_triangle_metrics():
    poly = build_polygon(UNIT_RIGHT_TRIANGLE)
    assert poly.area == pytest.approx(0.5, abs=1e-15)
    assert poly.diameter == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_orientation_normalized():
    cw = build_polygon(UNIT_SQUARE[::-1])
    assert cw.area == pytest.approx(1.0)
    # reversing a clockwise row keeps its shape data where it lies, alone
    # or beside a counter-clockwise row
    ccw = build_polygon(UNIT_SQUARE)
    both = build_polygon([UNIT_SQUARE, UNIT_SQUARE[::-1]])
    for poly in (cw, *both):
        assert np.allclose(poly.star_center, ccw.star_center, atol=1e-15)
        assert np.array_equal(poly.vertices, ccw.vertices)


def test_degenerate_polygons_rejected():
    with pytest.raises(NotSimple):
        build_polygon([(0, 0), (1, 0), (0.5, 0.0)])  # zero area
    with pytest.raises(NotSimple):
        build_polygon([(0, 0), (1, 1), (1, 0), (0, 1)])  # bowtie
    with pytest.raises(NotStarShaped):
        # two-slot comb; no point sees all three teeth
        build_polygon([(0, 0), (5, 0), (5, 3), (4, 3), (4, 1), (3, 1),
                       (3, 3), (2, 3), (2, 1), (1, 1), (1, 3), (0, 3)])


@pytest.mark.parametrize("scale", [10.0 ** k for k in range(-6, 10)])
def test_near_touch_check_independent_of_scale(scale):
    # a unit square with a V-notch whose collinear bottom edges end 2e-6
    # apart: a valid polygon at every scale
    notch = [(0.0, 0.0), (0.5 - 1e-6, 0.0), (0.5, 0.1), (0.5 + 1e-6, 0.0),
             (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    base = build_polygon(notch)
    poly = build_polygon(scale * np.array(notch))
    assert (poly.kernel_inradius / poly.diameter
            == pytest.approx(base.kernel_inradius / base.diameter, rel=1e-6))


def test_concave_octagon_star_center_in_kernel():
    poly = make_polygon(PolygonFamilySpec("concave_octagon", n=8, alpha=0.6))
    assert kernel_contains(poly.vertices, poly.star_center)
    # with this pull depth the centroid itself may leave the kernel; the
    # chosen point must still see every vertex
    assert poly.kernel_inradius > 0


def test_dart_star_center_from_kernel_program():
    # the dart's area centroid (2, 11/6) lies outside it, so its star
    # center is the kernel's Chebyshev center, found by a linear program
    dart = [(0.0, 0.0), (2.0, 2.5), (4.0, 0.0), (2.0, 3.0)]
    poly = build_polygon(dart)
    assert poly.area == pytest.approx(1.0)
    assert not kernel_contains(dart, (2.0, 11.0 / 6.0))
    assert kernel_contains(poly.vertices, poly.star_center)
    # the kernel is the kite between the lines y = 1.25 x, y = 6 - 1.5 x
    # and their mirror images about x = 2: its largest ball sits on x = 2
    # at the height y where the lines' distances 2 y - 5 over sqrt(10.25)
    # and 3 - y over sqrt(3.25) agree
    a, b = math.sqrt(10.25), math.sqrt(3.25)
    y = (3.0 * a + 5.0 * b) / (a + 2.0 * b)
    np.testing.assert_allclose(poly.star_center, [2.0, y], rtol=1e-7)
    assert poly.kernel_inradius == pytest.approx((3.0 - y) / b, rel=1e-7)
    assert (fan_areas(poly) > 0.0).all()


def test_at_points_gives_contiguous_arrays():
    x = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    values = np.cos(x)
    kept = geometry.at_points(values, x)
    assert np.shares_memory(kept, values) and (kept == values).all()
    filled = geometry.at_points(0.5, x)
    assert filled.flags.c_contiguous and filled.shape == x.shape
    assert (filled == 0.5).all()


def fan_areas(poly):
    """Areas of the fan triangles of ``poly``'s quadrature: each
    triangle's weights sum to its area."""
    _, w = stack_quadrature(stack_polygons([poly]), 4)
    return w[0].reshape(poly.n_vertices, -1).sum(axis=1)


def integrate(poly, f, degree):
    pts, w = stack_quadrature(stack_polygons([poly]), degree)
    return float(w[0] @ f(pts[0, :, 0], pts[0, :, 1]))


def test_sub_triangulate_unit_square():
    areas = fan_areas(build_polygon(UNIT_SQUARE))
    assert len(areas) == 4
    assert np.allclose(areas, 0.25, atol=1e-15)


def test_sub_triangulate_regular_hexagon_congruent():
    areas = fan_areas(regular_polygon(6))
    assert len(areas) == 6
    assert np.ptp(areas) < 1e-14


def test_sub_triangulate_concave_octagon_area_sum():
    poly = make_polygon(PolygonFamilySpec("concave_octagon", n=8, alpha=0.2))
    areas = fan_areas(poly)
    assert areas.min() > 0.0
    assert float(np.sum(areas)) == pytest.approx(poly.area, rel=1e-12)


def test_polygon_integrate_unit_square():
    poly = build_polygon(UNIT_SQUARE)
    assert integrate(poly, lambda x, y: np.ones_like(x), 0) == pytest.approx(1.0)
    assert integrate(poly, lambda x, y: x * y, 2) == pytest.approx(0.25, abs=1e-14)


def test_polygon_integrate_hexagon_x2_against_oracles():
    poly = regular_polygon(6)
    got = integrate(poly, lambda x, y: x ** 2, 2)
    mc, se = monte_carlo_integral(poly.vertices, lambda x, y: x ** 2)
    assert abs(got - mc) < max(1e-3, 5 * se)
    x, y = sp.symbols("x y")
    hexv = [(sp.cos(sp.pi * sp.Rational(i, 3)), sp.sin(sp.pi * sp.Rational(i, 3)))
            for i in range(6)]
    exact = float(exact_polygon_integral(hexv, x ** 2, x, y))
    assert got == pytest.approx(exact, rel=1e-13)


def test_validate_square_grid_numbers():
    mesh = make_mesh(MeshFamilySpec("square_grid", level=0))
    q = validate_mesh(mesh)
    assert q.kappa >= 0.35
    assert q.max_vertices == 4
    assert q.kappa == pytest.approx(min(0.5 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
                                    rel=1e-12)
    assert q.total_area == pytest.approx(1.0, rel=1e-13)


def test_validate_empty_mesh():
    with pytest.raises(StructuralDefect, match="no cells") as exc:
        validate_mesh(PolygonalMesh(np.zeros((0, 2)), []))
    assert exc.value.cell is None


def test_validate_duplicated_cell():
    mesh = make_mesh(MeshFamilySpec("square_grid", level=0))
    broken = PolygonalMesh(mesh.vertices, list(mesh.cells) + [list(mesh.cells[0])])
    with pytest.raises(StructuralDefect):
        validate_mesh(broken)


#: the grid with cell 2 reversed to clockwise order
CLOCKWISE_CELLS = GRID_CELLS[:2] + [GRID_CELLS[2][::-1]] + GRID_CELLS[3:]
#: (cells, defective cell) on the grid lattice
DEFECTIVE_GRIDS = pytest.mark.parametrize("cells, cell", [
    (GRID_CELLS[:2] + [[3, 4, 7, 4]] + GRID_CELLS[3:], 2),  # repeated vertex
    (GRID_CELLS + [GRID_CELLS[0]], 4),                       # duplicated cell
    (CLOCKWISE_CELLS, 2),                                    # clockwise
    (GRID_CELLS + [[0, 2, 4]], 4),  # overlaps cells 0 and 1 around vertex 4
], ids=["repeated_vertex", "duplicated_cell", "clockwise_cell",
        "overlapping_cell"])


@DEFECTIVE_GRIDS
def test_validate_names_defective_cell(cells, cell):
    with pytest.raises(StructuralDefect) as exc:
        validate_mesh(PolygonalMesh(GRID_VERTICES, cells))
    assert exc.value.cell == cell


@DEFECTIVE_GRIDS
def test_validate_names_oracle_invalid_cell(cells, cell):
    # the cell named above is the oracle's first invalid polygon, unless
    # every polygon is valid and the structural or overlap checks name it
    first_invalid = per_cell_quality(PolygonalMesh(GRID_VERTICES, cells))[3]
    assert first_invalid in (cell, None)


#: four triangles round the center 4 of the unit square, with cell 0
#: listed again as cell 4: boundary edge (0, 1) is used twice, one way
DOUBLED_SQUARE = ([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)],
                  [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4], [0, 1, 4]])


def grid_with_unused_vertex():
    """The 4 x 4 square grid with one more vertex, 25, that no cell uses."""
    mesh = make_mesh(MeshFamilySpec("square_grid", level=0))
    return PolygonalMesh(np.vstack([mesh.vertices, [(0.3, 0.6)]]), mesh.cells)


def test_validate_names_unused_vertex():
    with pytest.raises(StructuralDefect, match="vertex 25 is used by no cell") as exc:
        validate_mesh(grid_with_unused_vertex())
    assert exc.value.cell is None


@pytest.mark.parametrize("solver", ["auto", "cg", "cholesky"])
def test_solve_refuses_unused_vertex(solver):
    # the vertex has no equation: a structural defect, not a solver failure
    with pytest.raises(StructuralDefect, match="vertex 25"):
        solve_problem(grid_with_unused_vertex(), "minimal",
                      sin_sin_problem("poisson"), solver=solver)


#: seven triangles round vertex 0, with rim vertices every 720/7 degrees:
#: every spoke is used once each way, yet they cover the disc twice
DOUBLE_DISC = ([(0.0, 0.0)] + [(np.cos(a), np.sin(a))
                               for a in np.radians(720.0 / 7 * np.arange(7))],
               [[0, k, k % 7 + 1] for k in range(1, 8)])
UNUSED_VERTEX = grid_with_unused_vertex()
CLOCKWISE_AT_A_VERTEX = ([(0.0, 0.0)] + [(np.cos(a), np.sin(a)) for a in
                                         np.radians([0, 100, 180, 240])],
                         [[0, 1, 2], [0, 4, 3]])


@pytest.mark.parametrize("vertices, cells, message, cell", [
    # cell 2 reversed uses edge (4, 3) in cell 0's direction
    (GRID_VERTICES, CLOCKWISE_CELLS,
     "cell 2: edge (4, 3) already used with the same orientation by cell 0",
     2),
    # a clockwise cell meeting cell 0 only at vertex 0, where the two turn
    # 100 + 300 degrees: named as clockwise, not as an overlap
    (*CLOCKWISE_AT_A_VERTEX, "cell 1: vertices are ordered clockwise", 1),
    (*DOUBLE_DISC, "cell 6: cells overlap at vertex 0: ", 6),
    (GRID_VERTICES, GRID_CELLS[:2] + [[3, 4, 7, 4]] + GRID_CELLS[3:],
     "cell 2: repeated vertex inside cell", 2),
    (np.zeros((0, 2)), [], "the mesh has no cells", None),
    (UNUSED_VERTEX.vertices, UNUSED_VERTEX.cells,
     "vertex 25 is used by no cell", None),
    # counted as interior, the doubled boundary edge would make vertices
    # 0 and 1 unknowns
    (*DOUBLED_SQUARE,
     "cell 4: edge (0, 1) already used with the same orientation by cell 0",
     4),
    (GRID_VERTICES, GRID_CELLS + [GRID_CELLS[0]],
     "cell 4: edge (0, 1) already used with the same orientation by cell 0",
     4),
], ids=["clockwise_grid", "clockwise_at_a_vertex", "double_covered_disc",
        "repeated_vertex", "no_cells", "unused_vertex", "doubled_square",
        "duplicated_grid_cell"])
def test_defective_mesh_refused_alike_on_every_path(vertices, cells, message,
                                                   cell):
    problem = sin_sin_problem("poisson")
    refusals = []
    for path in (validate_mesh, lambda mesh: mesh.h, assign_degrees,
                 lambda mesh: assemble(mesh, assign_degrees(mesh, "minimal"),
                                       problem),
                 lambda mesh: solve_problem(mesh, "minimal", problem)):
        with pytest.raises(StructuralDefect) as exc:
            path(PolygonalMesh(vertices, cells))
        refusals.append((str(exc.value), exc.value.cell))
    assert refusals == [refusals[0]] * 5
    assert refusals[0][0].startswith(message) and refusals[0][1] == cell
    if "already used" in message:  # the edge count refuses it on its own
        with pytest.raises(StructuralDefect) as exc:
            PolygonalMesh(vertices, cells).boundary_vertex_flags
        assert (str(exc.value), exc.value.cell) == refusals[0]


@pytest.mark.parametrize("bad", [1.9, 4.0, np.float64(4.0), True, np.True_,
                                 None, "4"])
def test_mesh_refuses_vertex_indices_that_are_not_integers(bad):
    # the int64 conversion cast floats and bools without a word: the
    # triangle [0, 1.9, 2.2] was built as [0, 1, 2], and True read as 1
    cells = [list(c) for c in GRID_CELLS]
    cells[2][1] = cells[3][0] = bad
    with pytest.raises(StructuralDefect,
                       match="cell 2: vertex index is not an integer"):
        PolygonalMesh(GRID_VERTICES, cells)


def test_mesh_takes_every_integer_type_as_an_index():
    typed = [[t(v) for v in c] for c, t in zip(
        GRID_CELLS, (int, np.int32, np.uint8, np.int64))]
    mesh = PolygonalMesh(GRID_VERTICES, typed)
    np.testing.assert_array_equal(mesh.cell_vertices, np.ravel(GRID_CELLS))


@pytest.mark.parametrize("family", ["square_grid", "honeycomb",
                                    "concave_star"])
@pytest.mark.parametrize("move", [(1.2, 1.2), (-1.2, 0.3), (0.0, -1.5),
                                  (0.9, 0.0)])
def test_validate_names_lowest_invalid_cell(family, move):
    # moving one interior vertex by about a cell size leaves the edge
    # table intact but breaks the polygons of one or two cells
    mesh = make_mesh(MeshFamilySpec(family, level=0))
    interior = np.flatnonzero(~mesh.boundary_vertex_flags)
    verts = mesh.vertices.copy()
    verts[interior[len(interior) // 2]] += np.array(move) * mesh.h
    moved = PolygonalMesh(verts, mesh.cells)
    first_invalid = per_cell_quality(moved)[3]
    assert first_invalid is not None
    with pytest.raises(StructuralDefect) as exc:
        validate_mesh(moved)
    assert exc.value.cell == first_invalid


def _jittered(mesh, seed):
    verts = mesh.vertices.copy()
    interior = ~mesh.boundary_vertex_flags
    rng = np.random.default_rng(seed)
    verts[interior] += rng.uniform(-0.05, 0.05, (interior.sum(), 2)) * mesh.h
    return PolygonalMesh(verts, mesh.cells)


def _oracle_meshes():
    for family in MESH_FAMILIES:
        for level in range(3):
            yield f"{family}-L{level}", make_mesh(MeshFamilySpec(family,
                                                                 level=level))
    jittered = _jittered(make_mesh(MeshFamilySpec("honeycomb", level=1)), 7)
    assert len(jittered.cell_classes) == jittered.n_cells
    yield "jittered honeycomb-L1", jittered
    mesh = make_mesh(MeshFamilySpec("concave_star", level=2))
    order = np.random.default_rng(3).permutation(mesh.n_cells)
    yield "shuffled concave_star-L2", PolygonalMesh(
        mesh.vertices, [mesh.cells[i] for i in order])


def test_validate_matches_per_cell_oracle():
    for label, mesh in _oracle_meshes():
        q = validate_mesh(mesh)
        kernel, edge, area, first_invalid = per_cell_quality(mesh)
        assert first_invalid is None, label
        np.testing.assert_allclose(q.cell_kernel_ratios, kernel, rtol=1e-12,
                                   atol=0.0, err_msg=label)
        np.testing.assert_allclose(q.cell_edge_ratios, edge, rtol=1e-12,
                                   atol=0.0, err_msg=label)
        assert q.kappa == pytest.approx(min(kernel.min(), edge.min()),
                                        rel=1e-12), label
        assert abs(q.total_area - area) <= 1e-13, label


def test_validate_builds_no_polygon_per_cell(monkeypatch):
    built = []

    def counting_build(points, **kwargs):
        built.append(len(points))
        return build(points, **kwargs)

    build = geometry.build_polygon
    monkeypatch.setattr(geometry, "build_polygon", counting_build)
    mesh = make_mesh(MeshFamilySpec("concave_star", level=2))
    validate_mesh(mesh)
    # one stack per vertex count (6, 7 and 8), each row a class
    assert len(built) == 3
    assert sum(built) == len(mesh.cell_classes) == 10


def test_class_rule_splits_low_kappa_representatives():
    # a valid thin rectangle (kappa = 0.005 / 1.00005) and a unit square,
    # each copied four times by exact translations
    thin = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 0.01), (0.0, 0.01)])
    square = np.array(UNIT_SQUARE)
    for shape, classes in ((thin, [[0], [1], [2], [3]]),
                           (square, [[0, 1, 2, 3]])):
        verts = np.vstack([shape + (2.0 * k, 0.0) for k in range(4)])
        mesh = PolygonalMesh(verts, [range(4 * k, 4 * k + 4)
                                     for k in range(4)])
        assert [c.tolist() for c in class_cells(mesh)] == classes
        q = validate_mesh(mesh)
        assert q.total_area == pytest.approx(4.0 * shape[2, 1], rel=1e-14)
        assert np.ptp(q.cell_kernel_ratios) == 0.0
    assert q.kappa == pytest.approx(0.5 / math.sqrt(2.0), rel=1e-15)


@pytest.mark.parametrize("family", MESH_FAMILIES)
def test_representative_diameter_is_class_diameter(family):
    mesh = make_mesh(MeshFamilySpec(family, level=2))
    diameters = mesh._class_index.diameters
    for rep, cells in zip(mesh.cell_classes, class_cells(mesh)):
        assert rep.diameter == diameters[cells[0]]
        poly = build_polygon(mesh.vertices[mesh.cells[cells[-1]]],
                             normalize_orientation=False)
        assert poly.diameter == diameters[cells[-1]]
    assert mesh.h == diameters.max()


@pytest.mark.parametrize("case", ["honeycomb", "concave_star",
                                  "jittered honeycomb"])
def test_class_index_rules(case):
    # the rules the array index relies on, against a gather from the
    # mesh's own arrays: each class's representative is its lowest cell,
    # members ascend within a class, classes follow their lowest cells
    if case.startswith("jittered"):
        mesh = _jittered(make_mesh(MeshFamilySpec("honeycomb", level=1)), 7)
    else:
        mesh = make_mesh(MeshFamilySpec(case, level=2))
    polys, members = mesh.cell_classes, class_cells(mesh)
    lowest = [int(cells[0]) for cells in members]
    assert lowest == sorted(lowest)
    assert np.array_equal(np.sort(np.concatenate(members)),
                          np.arange(mesh.n_cells))
    for poly, cell in zip(polys, lowest):
        assert np.array_equal(poly.vertices, mesh.vertices[mesh.cells[cell]])
        assert np.array_equal(poly.vertices[0],
                              mesh.vertices[mesh.cell_vertices[
                                  mesh.cell_start[cell]]])
    for *_, rows in class_groups(polys):
        for part in (rows, rows[::-2]):
            idx, cls, offsets = class_members(mesh, part)
            cells = [c for k in part for c in members[k]]
            want = np.array([mesh.cells[c] for c in cells])
            assert np.array_equal(idx, want)
            assert np.array_equal(cls, np.repeat(
                np.arange(len(part)), [len(members[k]) for k in part]))
            assert np.array_equal(offsets, mesh.vertices[want[:, 0]]
                                  - [polys[part[k]].vertices[0] for k in cls])


#: cell chains for the invalid-stack cases, 3 apart so no two touch
CHAINS = {
    "square": UNIT_SQUARE,
    "bowtie": [(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)],
    "clockwise": UNIT_SQUARE[::-1],
    "triangle": [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
    "flat": [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)],
}


@pytest.mark.parametrize("kinds, cell", [
    # two invalid cells in one vertex-count group, either way round
    (["square", "square", "bowtie", "square", "clockwise", "square"], 2),
    (["square", "square", "clockwise", "square", "bowtie", "square"], 2),
    # invalid cells in two groups, either group first
    (["square", "triangle", "square", "flat", "bowtie", "triangle"], 3),
    (["triangle", "bowtie", "triangle", "square", "flat"], 1),
])
@pytest.mark.parametrize("stack_rows", [None, 2])
def test_lowest_invalid_cell_named_across_stacks(kinds, cell, stack_rows,
                                                 monkeypatch):
    if stack_rows:  # slices of two rows: the invalid cells in later slices
        monkeypatch.setattr(geometry, "_STACK_ROWS", stack_rows)
    chains = [np.array(CHAINS[k]) + (3.0 * i, 0.0) for i, k in enumerate(kinds)]
    start = np.cumsum([0] + [len(c) for c in chains])
    mesh = PolygonalMesh(np.concatenate(chains),
                         [range(a, b) for a, b in zip(start[:-1], start[1:])])
    assert per_cell_quality(mesh)[3] == cell
    # the message is the one the cell's polygon gives when built alone
    with pytest.raises((NotSimple, NotStarShaped, ClockwiseOrientation)) as alone:
        build_polygon(chains[cell], normalize_orientation=False)
    with pytest.raises(StructuralDefect) as exc:
        mesh.cell_classes
    assert exc.value.cell == cell
    assert str(exc.value) == f"cell {cell}: {alone.value}"
    # a stack of the cells' chains names its lowest invalid row
    same = [c for c, k in zip(chains, kinds) if len(CHAINS[k]) == len(chains[cell])]
    with pytest.raises(type(alone.value)) as row:
        build_polygon(np.stack(same), normalize_orientation=False)
    assert str(row.value) == str(alone.value)
    assert same[row.value.row] is chains[cell]


@pytest.mark.parametrize("shift", [1e3, 1e4, 1e6])
def test_validate_translated_mesh(shift):
    mesh = make_mesh(MeshFamilySpec("honeycomb", level=1))
    moved = validate_mesh(PolygonalMesh(mesh.vertices + shift, mesh.cells))
    assert moved.n_cells == mesh.n_cells
    assert moved.total_area == pytest.approx(validate_mesh(mesh).total_area,
                                             rel=1e-12)


@pytest.mark.parametrize("cells, cell", [
    (GRID_CELLS[:3] + [[4, 5, -1, 7]], 3),
    (GRID_CELLS[:1] + [[1, 2, 9, 4]] + GRID_CELLS[2:], 1),
    (GRID_CELLS[:2] + [[3, 4]] + GRID_CELLS[3:], 2),
], ids=["negative_index", "index_past_end", "two_vertices"])
def test_mesh_refuses_bad_connectivity(cells, cell):
    with pytest.raises(StructuralDefect) as exc:
        PolygonalMesh(GRID_VERTICES, cells)
    assert exc.value.cell == cell


def test_mesh_connectivity_arrays():
    mesh = PolygonalMesh(GRID_VERTICES, GRID_CELLS + [[0, 2, 4]])
    assert mesh.cell_start.tolist() == [0, 4, 8, 12, 16, 19]
    assert mesh.cell_vertices.tolist() == sum(GRID_CELLS + [[0, 2, 4]], [])
    assert mesh.cells is mesh.cells  # built once, not on every access
    assert [c.tolist() for c in mesh.cells] == GRID_CELLS + [[0, 2, 4]]
    for arr in (mesh.cell_start, mesh.cell_vertices, mesh.cells[1]):
        with pytest.raises(ValueError):
            arr[0] = 1


@pytest.mark.parametrize("family", MESH_FAMILIES)
def test_boundary_flags_match_edge_walk(family):
    for level in range(3):
        mesh = make_mesh(MeshFamilySpec(family, level=level))
        expected = boundary_flags_by_edge_walk(mesh.n_vertices, mesh.cells)
        assert np.array_equal(mesh.boundary_vertex_flags, expected)
    order = np.random.default_rng(5).permutation(mesh.n_cells)
    shuffled = PolygonalMesh(mesh.vertices, [mesh.cells[i] for i in order])
    assert np.array_equal(shuffled.boundary_vertex_flags, expected)


def test_polygon_quadrature_builds_fan_once(monkeypatch):
    calls = []

    def counting_fan(stack):
        calls.append(len(stack.area))
        return fan(stack)

    fan = geometry._fan
    monkeypatch.setattr(geometry, "_fan", counting_fan)
    poly = make_polygon(PolygonFamilySpec("concave_octagon", n=8, alpha=0.4))
    polys = build_polygon(np.stack([poly.vertices, poly.vertices + 1e6,
                                    2.0 * poly.vertices]))
    for degree in (2, 6, 8):
        _, w = geometry.stack_quadrature(geometry.stack_polygons(polys), degree)
        assert w.sum(axis=1) == pytest.approx([p.area for p in polys],
                                              rel=1e-13)
    # one fan per call, for the whole stack
    assert calls == [3, 3, 3]


def test_validate_honeycomb_kappa_across_levels():
    kappas = []
    for level in range(3):
        mesh = make_mesh(MeshFamilySpec("honeycomb", level=level))
        q = validate_mesh(mesh)
        kappas.append(q.kappa)
    assert min(kappas) > 0.8 * max(kappas)


def test_mesh_h_and_boundary_flags():
    mesh = make_mesh(MeshFamilySpec("square_grid", level=0))
    assert mesh.h == pytest.approx(math.sqrt(2.0) / 4.0, rel=1e-13)
    flags = mesh.boundary_vertex_flags
    on_rim = (np.isclose(mesh.vertices[:, 0], 0) | np.isclose(mesh.vertices[:, 0], 1)
              | np.isclose(mesh.vertices[:, 1], 0) | np.isclose(mesh.vertices[:, 1], 1))
    assert np.array_equal(flags, on_rim)


def test_cell_classes_verify_members_against_representative():
    square = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    verts = np.vstack([square + (2.0 * k, 0.0) for k in range(4)])
    # offsets within the 1e-10 diameter key resolution: cell 2 deviates
    # beyond the 1e-12 diameter tolerance, cell 3 within it
    verts[10, 1] += 5e-12
    verts[14, 1] += 5e-14
    mesh = PolygonalMesh(verts, [range(4 * k, 4 * k + 4) for k in range(4)])
    assert [c.tolist() for c in class_cells(mesh)] == [[0, 1, 3], [2]]
    assert np.allclose(class_members(mesh, [0])[2], [(0, 0), (2, 0), (6, 0)])
    assert np.allclose(mesh._class_index.diameters, math.sqrt(2.0))


def test_mesh_json_roundtrip_bit_exact(tmp_path):
    from e2vem.meshgen import load_mesh, save_mesh

    mesh = make_mesh(MeshFamilySpec("honeycomb", level=0))
    path = tmp_path / "mesh.json"
    save_mesh(mesh, path)
    back = load_mesh(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert [list(c) for c in back.cells] == [list(c) for c in mesh.cells]


def _views_tuple(mesh):
    """The per-cell views as a tuple, the form ``mesh.cells`` once had."""
    bounds = mesh.cell_start.tolist()
    return tuple(mesh.cell_vertices[a:b]
                 for a, b in zip(bounds[:-1], bounds[1:]))


@pytest.mark.parametrize("family", MESH_FAMILIES)
def test_cells_read_like_a_tuple_of_views(family):
    for level in range(3):
        mesh = make_mesh(MeshFamilySpec(family, level=level))
        cells, old = mesh.cells, _views_tuple(mesh)
        n = len(old)
        assert len(cells) == n == mesh.n_cells
        for c in (0, 1, n // 2, n - 1, -1, -2, -n, np.int64(n - 1)):
            assert np.array_equal(cells[c], old[c])
            assert not cells[c].flags.writeable
            assert np.shares_memory(cells[c], mesh.cell_vertices)
        for c in (n, -n - 1):
            with pytest.raises(IndexError):
                old[c]
            with pytest.raises(IndexError):
                cells[c]
        read = list(cells)
        assert len(read) == n
        assert all(np.array_equal(a, b) and not a.flags.writeable
                   for a, b in zip(read, old))
        with pytest.raises(ValueError):
            cells[0][0] = 1


def test_solved_mesh_keeps_no_views_or_edge_table(tmp_path):
    # the per-cell views are not kept on the mesh: on concave_star L4
    # they held 5.7 MiB to the run's end
    from e2vem.analysis import solution_errors
    from e2vem.meshgen import load_mesh, save_mesh

    mesh = make_mesh(MeshFamilySpec("concave_star", level=2))
    solution_errors(solve_problem(mesh, "minimal",
                                  sin_sin_problem("diffusion_reaction"), "p1"))
    validate_mesh(mesh)
    save_mesh(mesh, tmp_path / "mesh.json")
    back = load_mesh(tmp_path / "mesh.json")
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.cell_start, mesh.cell_start)
    assert np.array_equal(back.cell_vertices, mesh.cell_vertices)
    expected = ",\n".join(json.dumps(c.tolist()) for c in _views_tuple(mesh))
    assert f'"cells": [\n{expected}\n]' in (tmp_path / "mesh.json").read_text()
    kept = vars(mesh).values()
    assert not any(type(v) is tuple for v in kept)   # the old per-cell views
    assert mesh.cells is mesh.cells
    # the sequence holds the mesh's own arrays and nothing per cell
    assert all(any(v is arr for arr in (mesh.cell_vertices, mesh.cell_start))
               for v in vars(mesh.cells).values())


def test_load_mesh_parse_errors(tmp_path):
    from e2vem.meshgen import load_mesh

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_mesh(bad)
    oob = tmp_path / "oob.json"
    oob.write_text('{"vertices": [[0,0],[1,0],[0,1]], "cells": [[0,1,7]]}')
    with pytest.raises(ParseError) as err:
        load_mesh(oob)
    assert "cell 0" in str(err.value)
    short = tmp_path / "short.json"
    short.write_text('{"vertices": [[0,0],[1,0],[0,1]], '
                     '"cells": [[0,1,2],[1,2]]}')
    with pytest.raises(ParseError) as err:
        load_mesh(short)
    assert str(short) in str(err.value) and "cell 1" in str(err.value)
    for index in ("1.5", "true", "[1]"):
        typed = tmp_path / "typed.json"
        typed.write_text('{"vertices": [[0,0],[1,0],[0,1]], '
                         f'"cells": [[0,1,2],[0,{index},2]]}}')
        with pytest.raises(ParseError,
                           match="cell 1: vertex index is not an integer"):
            load_mesh(typed)
    huge = tmp_path / "huge.json"
    huge.write_text('{"vertices": [[0,0],[1,0],[0,1]], '
                    '"cells": [[0,1,18446744073709551616]]}')
    with pytest.raises(ParseError) as err:
        load_mesh(huge)
    assert str(huge) in str(err.value)
