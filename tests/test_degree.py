import dataclasses
import hashlib

import numpy as np
import pytest

from e2vem.assembly import assemble_full, sin_sin_problem
from e2vem.degree import (
    assign_degrees,
    dim_badpoly,
    ell_check,
    ell_hat,
    min_admissible_l,
    parse_strategy,
    stiffness_rank,
)
from e2vem.errors import AdmissibilityNotReached, InadmissibleDegrees
from e2vem.geometry import PolygonalMesh, build_polygon
from e2vem.meshgen import (
    MeshFamilySpec,
    concave_octagon_polygon,
    make_mesh,
    random_convex_polygon,
    regular_polygon,
    split_triangle_polygon,
)

from oracles import (badpoly_dim_symbolic, class_cells, ell_check_formula,
                     ell_hat_formula)

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def test_ell_hat_check_examples():
    assert ell_hat(6) == 2
    assert ell_hat(20) == 9
    assert ell_check(8) == 2
    assert ell_check(16) == 3
    assert ell_hat(3) == 0 and ell_check(3) == 0


@pytest.mark.parametrize("n", range(3, 40))
def test_ell_formulas_match_definitions(n):
    assert ell_hat(n) == ell_hat_formula(n)
    assert ell_check(n) == ell_check_formula(n)
    assert ell_check(n) <= ell_hat(n)


def test_dim_badpoly_known_polygons():
    assert dim_badpoly(regular_polygon(6), 1) == 2
    for tri in ([(0, 0), (1, 0), (0, 1)], [(0.3, 0.1), (2.1, 0.4), (0.9, 1.8)]):
        assert dim_badpoly(build_polygon(tri), 0) == 0


def test_dim_badpoly_unit_square_symbolic_oracle():
    got = dim_badpoly(build_polygon(UNIT_SQUARE), 1)
    assert got == badpoly_dim_symbolic(UNIT_SQUARE, 1) == 3


def test_dim_badpoly_hexagon_matches_symbolic():
    import sympy as sp

    hexv = [(sp.cos(sp.pi * sp.Rational(i, 3)), sp.sin(sp.pi * sp.Rational(i, 3)))
            for i in range(6)]
    assert badpoly_dim_symbolic(hexv, 1) == 2


def test_min_admissible_examples():
    assert min_admissible_l(regular_polygon(12)).l == 5
    split12 = split_triangle_polygon(9)
    assert min_admissible_l(split12).l == 4
    concave = concave_octagon_polygon(0.2)
    assert min_admissible_l(concave).l == 2


def test_evidence_consistency():
    # rank certificate and bad-polynomial dimension tell the same story
    for poly in (regular_polygon(6), regular_polygon(9),
                 random_convex_polygon(11, 6)):
        ev = min_admissible_l(poly)
        nv = poly.n_vertices
        assert ell_check(nv) <= ev.l <= ell_hat(nv)
        assert ev.admissible and ev.rank == nv - 1
        bp = dim_badpoly(poly, ev.l)
        assert (ev.l + 1) * (ev.l + 2) - bp == ev.rank


def test_admissibility_monotone_in_l():
    for poly in (regular_polygon(8), random_convex_polygon(12, 3)):
        ev = min_admissible_l(poly)
        from e2vem.projectors import build_projectors

        for l in range(ev.l, ev.l + 3):
            K = build_projectors([poly], l).stiffness[0]
            evals = np.linalg.eigvalsh(K)
            assert int(np.sum(evals > 1e-10 * evals[-1])) == poly.n_vertices - 1


def test_minimal_l_invariant_under_rigid_motion_and_scaling():
    poly = random_convex_polygon(9, 8)
    base = min_admissible_l(poly).l
    theta = 0.6
    R = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    for transform in (
        lambda v: v + np.array([3.0, -7.0]),
        lambda v: v @ R.T,
        lambda v: 0.01 * v,
        lambda v: 40.0 * (v @ R.T) + np.array([-2.0, 5.0]),
    ):
        moved = build_polygon(transform(poly.vertices))
        assert min_admissible_l(moved).l == base


def test_parse_strategy():
    assert parse_strategy("minimal") == ("minimal", None)
    assert parse_strategy("ell-hat") == ("ell_hat", None)
    assert parse_strategy("ell_check") == ("ell_check", None)
    assert parse_strategy("fixed:3") == ("fixed", 3)
    with pytest.raises(ValueError):
        parse_strategy("nope")


def test_assign_degrees_examples():
    tri_mesh = make_mesh(MeshFamilySpec("triangulation", level=0))
    for strat in ("minimal", "ell_hat", "ell_check"):
        assert not assign_degrees(tri_mesh, strat).levels.any()

    honey = make_mesh(MeshFamilySpec("honeycomb", level=0))
    degs = assign_degrees(honey, "ell_hat")
    sizes = np.array([len(c) for c in honey.cells])
    assert np.all(degs.levels[sizes == 6] == 2)

    cut = make_mesh(MeshFamilySpec("cut_corner_octagon", level=0))
    degs = assign_degrees(cut, "minimal")
    sizes = np.array([len(c) for c in cut.cells])
    assert np.all(degs.levels[sizes == 3] == 0)
    assert np.all(degs.levels[sizes == 4] == 1)
    assert np.all(degs.levels[sizes == 8] == 2)


def test_assign_degrees_fixed_below_minimal_raises():
    honey = make_mesh(MeshFamilySpec("honeycomb", level=0))
    with pytest.raises(AdmissibilityNotReached):
        assign_degrees(honey, "fixed:1")
    with pytest.raises(AdmissibilityNotReached):
        assign_degrees(honey, "ell_check")


@pytest.mark.parametrize("family, strategy", [("honeycomb", "ell_check"),
                                              ("concave_star", "fixed:0")])
def test_refusal_names_first_deficient_cell(family, strategy):
    mesh = make_mesh(MeshFamilySpec(family, level=0))
    with pytest.raises(AdmissibilityNotReached) as exc:
        assign_degrees(mesh, strategy)
    # oracle: the lowest-index cell whose own polygon, built alone, has
    # stiffness rank below n - 1 at the strategy's degree
    from e2vem.projectors import build_projectors

    for ci, cell in enumerate(mesh.cells):
        n = len(cell)
        l = ell_check(n) if strategy == "ell_check" else 0
        own = build_polygon(mesh.vertices[cell])
        evals = np.linalg.eigvalsh(build_projectors([own], l).stiffness[0])
        if int(np.sum(evals > 1e-10 * evals[-1])) < n - 1:
            break
    else:
        pytest.fail("the oracle finds no deficient cell")
    assert exc.value.cell == ci
    assert exc.value.n_vertices == n
    assert exc.value.searched == (l, l)
    assert str(exc.value).startswith(f"cell {ci}: ")


def test_assign_degrees_certifies_every_scattered_kernel(monkeypatch):
    import time

    from e2vem import assembly, degree

    searches, checked, scattered = [], {}, []
    search_fn, rank_fn = degree.min_admissible_l, degree.stiffness_rank
    kernel_fn = assembly.build_projectors

    def counting_search(poly):
        searches.append(poly)
        return search_fn(poly)

    def recording_rank(polys, l):
        ranks = rank_fn(polys, l)
        checked.update(((poly, l), rank) for poly, rank in zip(polys, ranks))
        return ranks

    def recording_kernel(polys, l):
        scattered.extend((poly, l) for poly in polys)
        return kernel_fn(polys, l)

    monkeypatch.setattr(degree, "min_admissible_l", counting_search)
    monkeypatch.setattr(degree, "stiffness_rank", recording_rank)
    monkeypatch.setattr(assembly, "build_projectors", recording_kernel)
    for family in ("honeycomb", "cut_corner_octagon"):
        mesh = make_mesh(MeshFamilySpec(family, level=1))
        searches.clear()
        scattered.clear()
        t0 = time.perf_counter()
        degrees = assign_degrees(mesh, "minimal")
        assert time.perf_counter() - t0 < 2.0  # 1166 / 685 cells, 9 / 10 classes
        # one search per cell class, on the class's own representative
        assert len(searches) == len(mesh.cell_classes)
        assert all(p is c for p, c in zip(searches, mesh.cell_classes))
        assembly.assemble_full(mesh, degrees, assembly.sin_sin_problem())
        assert scattered
        # every kernel assembly scatters had its own rank certified, and
        # each class's kernel is scattered once
        uncertified = [(poly.n_vertices, l) for poly, l in scattered
                       if checked.get((poly, l)) != poly.n_vertices - 1]
        assert not uncertified, family
        assert len(scattered) == len(set(scattered)) == len(mesh.cell_classes)


def test_assign_degrees_one_certificate_per_class():
    mesh = make_mesh(MeshFamilySpec("cut_corner_octagon", level=1))
    for strat in ("minimal", "ell_hat", "ell_check", "fixed:3"):
        degrees = assign_degrees(mesh, strat)
        assert len(degrees.evidence) == len(mesh.cell_classes)
        for poly, cells, ev in zip(mesh.cell_classes, class_cells(mesh),
                                   degrees.evidence):
            assert ev.n_vertices == poly.n_vertices
            assert np.all(degrees.levels[cells] == ev.l)
    # a member below its class certificate is refused, by its own index
    degrees = assign_degrees(mesh, "minimal")
    cell = next(int(cells[-1]) for cells, ev in zip(class_cells(mesh),
                                                    degrees.evidence)
                if len(cells) > 1 and ev.l > 0)
    lowered = degrees.levels.copy()
    lowered[cell] -= 1
    with pytest.raises(InadmissibleDegrees, match=f"^cell {cell}:"):
        assemble_full(mesh, dataclasses.replace(degrees, levels=lowered),
                      sin_sin_problem())


def test_admissibility_check_names_lowest_cell_of_either_fault():
    # an uncertified class and an off-level member: whichever offending
    # cell has the lower index is named, with its own fault
    mesh = make_mesh(MeshFamilySpec("cut_corner_octagon", level=1))
    degrees = assign_degrees(mesh, "minimal")
    members = class_cells(mesh)
    k = max(k for k, cells in enumerate(members)
            if len(cells) > 1 and degrees.evidence[k].l > 0)
    ev = degrees.evidence[k]
    evidence = list(degrees.evidence)
    evidence[k] = dataclasses.replace(ev, rank=ev.rank - 1)
    first, last = int(members[k][0]), int(members[k][-1])
    lowered = degrees.levels.copy()
    lowered[last] -= 1
    both = dataclasses.replace(degrees, levels=lowered, evidence=tuple(evidence))
    with pytest.raises(InadmissibleDegrees,
                       match=f"^cell {first}: stiffness rank {ev.rank - 1} < "):
        assemble_full(mesh, both, sin_sin_problem())
    # an off-level cell below the class's first member is named instead
    below = next(i for i in range(first) if degrees.levels[i] > 0)
    lowered[below] -= 1
    with pytest.raises(InadmissibleDegrees,
                       match=f"^cell {below}: degree .* has no rank certificate"):
        assemble_full(mesh, dataclasses.replace(both, levels=lowered),
                      sin_sin_problem())


def _jittered_honeycomb(level, seed):
    base = make_mesh(MeshFamilySpec("honeycomb", level=level))
    verts = base.vertices.copy()
    interior = ~base.boundary_vertex_flags
    shift = np.random.default_rng(seed).uniform(-0.05, 0.05,
                                                (interior.sum(), 2))
    verts[interior] += shift * base.h
    return PolygonalMesh(verts, base.cells)


def _random_convex_table():
    # the coercivity table's polygons as the disjoint cells of one mesh
    polys = [random_convex_polygon(n, s) for n in range(4, 21) for s in range(5)]
    start = np.cumsum([0] + [p.n_vertices for p in polys])
    return PolygonalMesh(np.concatenate([p.vertices for p in polys]),
                         [range(a, b) for a, b in zip(start[:-1], start[1:])])


#: SHA-256 prefixes of ``assign_degrees(mesh, "minimal").levels`` and of
#: the class representatives' ``stiffness_rank`` at ``ell_check(n)``
_DEGREE_DIGESTS = [
    ("honeycomb", 0, "7c58f0746dfdae0e303d6718b03e9724",
     "383646d147661547a342099ed7313e10"),
    ("honeycomb", 1, "89c6cd23a9878687e4704f7aa2956692",
     "6dca5149ec0a91ca833f5800d7e2796d"),
    ("honeycomb", 2, "f1268c073b972b645f907a34f2c65ebf",
     "383646d147661547a342099ed7313e10"),
    ("honeycomb", 3, "ebb99def11a47ee5ad5c516f01a64f0a",
     "383646d147661547a342099ed7313e10"),
    ("cut_corner_octagon", 0, "a05dd6854ad545883d0687b5640bf51e",
     "c96c8c7e2f61a1291456cf71cb7aaf28"),
    ("cut_corner_octagon", 1, "28d3cecc1312b5dcf503d5cf65a085db",
     "c96c8c7e2f61a1291456cf71cb7aaf28"),
    ("cut_corner_octagon", 2, "4b3a95bf1cde3b0373e0fa716667ad21",
     "c96c8c7e2f61a1291456cf71cb7aaf28"),
    ("cut_corner_octagon", 3, "774287dc3370a1c4d855e905bdf6ddd6",
     "c96c8c7e2f61a1291456cf71cb7aaf28"),
    ("concave_star", 0, "8758be121dc31f3c901b52cf7a68c0eb",
     "62a25418396b05fdcb855a4c3321a2dd"),
    ("concave_star", 1, "4efa000a90c2c7ff7eee0b6bc3c9821c",
     "62a25418396b05fdcb855a4c3321a2dd"),
    ("concave_star", 2, "6558881cc7c372b07aba79eb0488426d",
     "62a25418396b05fdcb855a4c3321a2dd"),
    ("concave_star", 3, "1483854eb0d9550699bded17c70dfd50",
     "62a25418396b05fdcb855a4c3321a2dd"),
    ("triangulation", 0, "5f70bf18a086007016e948b04aed3b82",
     "fa7c63f601691b958793c6d5ebe2ec44"),
    ("triangulation", 1, "ad7facb2586fc6e966c004d7d1d16b02",
     "fa7c63f601691b958793c6d5ebe2ec44"),
    ("triangulation", 2, "4fe7b59af6de3b665b67788cc2f99892",
     "fa7c63f601691b958793c6d5ebe2ec44"),
    ("triangulation", 3, "de2f256064a0af797747c2b97505dc0b",
     "fa7c63f601691b958793c6d5ebe2ec44"),
    ("square_grid", 0, "cb9cb8229f3a322017b0d7644744ea14",
     "35be322d094f9d154a8aba4733b8497f"),
    ("square_grid", 1, "ae1fd128caf85aaf5af91075ffc018dc",
     "35be322d094f9d154a8aba4733b8497f"),
    ("square_grid", 2, "924ae03b6111734d8ab1d2d4c88ec6a7",
     "35be322d094f9d154a8aba4733b8497f"),
    ("square_grid", 3, "bbddeafcfd3170bd6f6ce9e912a0dae0",
     "35be322d094f9d154a8aba4733b8497f"),
    ("jittered honeycomb seed 1", 1, "aeb6ef436cd7d360a3d5056cbe8769f9",
     "d85c13a2178725e2232faba82e33f4c8"),
    ("jittered honeycomb seed 2", 1, "aeb6ef436cd7d360a3d5056cbe8769f9",
     "d85c13a2178725e2232faba82e33f4c8"),
    ("jittered honeycomb seed 1", 2, "071e39d48330d13de0f1d360fe5a1dbd",
     "e918afa5a210f12d1c1c3955c1749a16"),
    ("jittered honeycomb seed 2", 2, "071e39d48330d13de0f1d360fe5a1dbd",
     "e918afa5a210f12d1c1c3955c1749a16"),
    ("random_convex n=4..20 seeds 0..4", 0, "5076299472abec87a450d8d5acd95530",
     "c50948934968261fc0d5a7375fab85c9"),
]


@pytest.mark.parametrize("case,level,levels_digest,ranks_digest",
                         _DEGREE_DIGESTS)
def test_degrees_and_ranks_pinned(case, level, levels_digest, ranks_digest):
    # random convex polygons reach lambda_2 / lambda_max = 4.7e-13 at the
    # minimal degree, near the rank threshold: arithmetic that rounds
    # differently shows here first
    if case.startswith("jittered"):
        mesh = _jittered_honeycomb(level, int(case.split()[-1]))
    elif case.startswith("random_convex"):
        mesh = _random_convex_table()
    else:
        mesh = make_mesh(MeshFamilySpec(case, level=level))
    levels = assign_degrees(mesh, "minimal").levels
    ranks = np.array([stiffness_rank([poly], ell_check(poly.n_vertices))[0]
                      for poly in mesh.cell_classes], dtype=np.int64)
    for values, digest in ((np.asarray(levels, dtype=np.int64), levels_digest),
                           (ranks, ranks_digest)):
        assert hashlib.sha256(values.tobytes()).hexdigest()[:32] == digest


@pytest.mark.parametrize("family", ["honeycomb", "concave_star",
                                    "cut_corner_octagon", "triangulation"])
def test_levels_are_int8_class_degrees(family):
    # a byte per cell: no certified degree exceeds 15
    mesh = make_mesh(MeshFamilySpec(family, level=2))
    for strategy in ("minimal", "ell_hat", "fixed:3"):
        degrees = assign_degrees(mesh, strategy)
        assert degrees.levels.dtype == np.int8
        assert degrees.levels.shape == (mesh.n_cells,)
        assert degrees.levels.tolist() == [degrees.evidence[k].l
                                           for k in mesh.cell_class]


@pytest.mark.parametrize("count", [ell_hat, ell_check])
def test_degree_counts_refuse_fewer_than_three_vertices(count):
    with pytest.raises(ValueError, match="at least 3 vertices, got 2"):
        count(2)
