import json
import math

import numpy as np
import pytest

from e2vem.errors import RejectionBudgetExceeded
from e2vem.geometry import build_polygon, validate_mesh
from e2vem.meshgen import (
    MeshFamilySpec,
    PolygonFamilySpec,
    SplitMix64,
    load_mesh,
    make_mesh,
    make_polygon,
    random_convex_polygon,
    regular_polygon,
    save_mesh,
    split_triangle_polygon,
)

from oracles import splitmix64_reference

MESH_FAMILIES = ("honeycomb", "cut_corner_octagon", "concave_star",
                 "triangulation", "square_grid")


def test_splitmix_matches_reference():
    for seed in (0, 1, 0xDEADBEEF, 2 ** 64 - 1):
        gen = SplitMix64(seed)
        assert [gen.next_u64() for _ in range(8)] == splitmix64_reference(seed, 8)


def test_regular_polygon_angles():
    poly = regular_polygon(4)
    angles = np.arctan2(poly.vertices[:, 1], poly.vertices[:, 0]) % (2 * np.pi)
    assert np.allclose(sorted(angles), [0.0, np.pi / 2, np.pi, 3 * np.pi / 2],
                       atol=1e-12)
    hexg = regular_polygon(6)
    assert np.allclose(np.hypot(*hexg.vertices.T), 1.0, atol=1e-14)
    assert np.ptp(hexg.edge_lengths) < 1e-13


def test_random_convex_reproducible_and_valid():
    a = random_convex_polygon(9, seed=5)
    b = random_convex_polygon(9, seed=5)
    assert np.array_equal(a.vertices, b.vertices)
    c = random_convex_polygon(9, seed=6)
    assert not np.array_equal(a.vertices, c.vertices)
    # convexity and the minimum-edge contract
    v = a.vertices
    n = len(v)
    cross = np.array([np.cross(np.append(v[(i + 1) % n] - v[i], 0),
                               np.append(v[(i + 2) % n] - v[(i + 1) % n], 0))[2]
                      for i in range(n)])
    assert np.all(cross > 0)
    assert a.edge_lengths.min() >= 0.15 * a.diameter - 1e-12


def test_random_convex_infeasible_size():
    with pytest.raises(RejectionBudgetExceeded):
        random_convex_polygon(21, seed=0)


def test_concave_octagon_alpha_zero_convex():
    poly = make_polygon(PolygonFamilySpec("concave_octagon", n=8, alpha=0.0))
    v = poly.vertices
    n = len(v)
    for i in range(n):
        e1 = v[(i + 1) % n] - v[i]
        e2 = v[(i + 2) % n] - v[(i + 1) % n]
        assert e1[0] * e2[1] - e1[1] * e2[0] > -1e-12


def test_split_triangle_equal_parts():
    poly = split_triangle_polygon(9)  # step 9: each base edge in 4 equal parts
    assert poly.n_vertices == 12
    lens = poly.edge_lengths
    base = split_triangle_polygon(0)
    idx = 0
    for e in range(3):
        assert np.allclose(lens[idx:idx + 4], base.edge_lengths[e] / 4, atol=1e-12)
        idx += 4
    # step 6 lands on the balanced state: all three edges in three equal parts
    nine = split_triangle_polygon(6)
    assert nine.n_vertices == 9
    idx = 0
    for e in range(3):
        assert np.allclose(nine.edge_lengths[idx:idx + 3],
                           base.edge_lengths[e] / 3, atol=1e-12)
        idx += 3


def test_mesh_counts_and_census():
    expected = {
        "honeycomb": (304, {4: 19, 5: 30, 6: 255}),
        "cut_corner_octagon": (181, {3: 36, 4: 64, 8: 81}),
        "concave_star": (196, {6: 4, 7: 48, 8: 144}),
        "triangulation": (128, {3: 128}),
        "square_grid": (16, {4: 16}),
    }
    for fam, (count, census) in expected.items():
        mesh = make_mesh(MeshFamilySpec(fam, level=0))
        assert mesh.n_cells == count, fam
        sizes, counts = np.unique(np.diff(mesh.cell_start), return_counts=True)
        assert dict(zip(sizes.tolist(), counts.tolist())) == census, fam


@pytest.mark.parametrize("fam", MESH_FAMILIES)
def test_mesh_refinement_and_quality(fam):
    kappas, counts = [], []
    for level in range(3):
        mesh = make_mesh(MeshFamilySpec(fam, level=level))
        q = validate_mesh(mesh)
        assert q.total_area == pytest.approx(1.0, rel=1e-12)
        kappas.append(q.kappa)
        counts.append(mesh.n_cells)
    for lo, hi in zip(counts, counts[1:]):
        assert 0.9 * 4 <= hi / lo <= 1.1 * 4
    assert min(kappas) >= 0.8 * max(kappas)


def test_concave_star_octagons_nonconvex():
    mesh = make_mesh(MeshFamilySpec("concave_star", level=0))
    q = validate_mesh(mesh)
    assert q.kappa > 0
    found = 0
    for ci, cell in enumerate(mesh.cells):
        if len(cell) != 8:
            continue
        v = mesh.vertices[np.asarray(cell)]
        n = len(v)
        cross = [(v[(i + 1) % n] - v[i])[0] * (v[(i + 2) % n] - v[(i + 1) % n])[1]
                 - (v[(i + 1) % n] - v[i])[1] * (v[(i + 2) % n] - v[(i + 1) % n])[0]
                 for i in range(n)]
        assert min(cross) < 0, f"cell {ci} is convex"
        found += 1
    assert found == 144


def test_honeycomb_interior_cells_nearly_regular():
    mesh = make_mesh(MeshFamilySpec("honeycomb", level=0))
    for ci, cell in enumerate(mesh.cells):
        if len(cell) == 6:
            poly = build_polygon(mesh.vertices[cell],
                                 normalize_orientation=False)
            assert np.ptp(poly.edge_lengths) / poly.edge_lengths.mean() < 0.02
            break


def test_save_mesh_embeds_extra_and_roundtrips(tmp_path):
    mesh = make_mesh(MeshFamilySpec("square_grid", level=0))
    path = tmp_path / "grid.json"
    save_mesh(mesh, path, extra={"config": {"family": "square_grid"}})
    data = json.loads(path.read_text())
    assert data["config"] == {"family": "square_grid"}
    back = load_mesh(path)
    assert np.array_equal(back.vertices, mesh.vertices)


def test_mesh_names():
    mesh = make_mesh(MeshFamilySpec("honeycomb", level=1))
    assert mesh.name == "honeycomb-level1"
