import hashlib
import json
import math

import numpy as np
import pytest

from e2vem.errors import RejectionBudgetExceeded
from e2vem.geometry import build_polygon, validate_mesh
from e2vem.meshgen import (
    MeshFamilySpec,
    concave_octagon_polygon,
    load_mesh,
    make_mesh,
    random_convex_polygon,
    regular_polygon,
    save_mesh,
    split_hexagon_polygon,
    split_triangle_polygon,
    splitmix64,
)

from oracles import splitmix64_reference

MESH_FAMILIES = ("honeycomb", "cut_corner_octagon", "concave_star",
                 "triangulation", "square_grid")


def test_splitmix_matches_reference():
    for seed in (0, 1, 0xDEADBEEF, 2 ** 64 - 1):
        assert splitmix64(seed, 8).tolist() == splitmix64_reference(seed, 8)


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


def test_random_convex_vertices_pinned():
    # the bits of every random convex polygon the coercivity scans draw at
    # seeds 0..2; they also pin numpy's float64 cos, sin and log1p
    h = hashlib.sha256()
    for n in range(4, 21):
        for seed in range(3):
            h.update(random_convex_polygon(n, seed).vertices.tobytes())
    assert h.hexdigest() == ("2b7f8ab2969960fbe5892d1ddd87b78e"
                             "5d96dad776d2647fbdccf4cdcbd23c3f")


def test_random_convex_infeasible_size():
    with pytest.raises(RejectionBudgetExceeded):
        random_convex_polygon(21, seed=0)


def test_concave_octagon_alpha_zero_convex():
    poly = concave_octagon_polygon(0.0)
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
            poly = build_polygon(mesh.vertices[cell])
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


# SHA-256 of the vertices, cell_vertices and cell_start bytes: a change
# to vertex order, cell order or coordinate bits moves a digest, and with
# it every saved mesh file and benchmark reference.
_MESH_DIGESTS = [
    ("honeycomb", 0, "90558d979d9ea4289e831bfcc98a04dc"
     "bf05c8ad67b75d26fdc229eb73067f76"),
    ("honeycomb", 1, "b717a90ae7c7b7733ac6bcad53aa54e1"
     "6b92408adf075c94f12ffa4b038cdc69"),
    ("honeycomb", 2, "b20fb600dad83592e3375eb29661ba60"
     "2a2b57c947ab61ae3eebf9353e333922"),
    ("honeycomb", 3, "faea5c07d9313ad22e045d9251494da7"
     "3cc1b9e22a3b53efa0ad9a1199d20270"),
    ("cut_corner_octagon", 0, "f832a2ec79d14b48cefe90816c703741"
     "fd35ffb200e06f02875b35cc64f40e2f"),
    ("cut_corner_octagon", 1, "a2837fd9bbe1c1aa1040d970af4f5f5c"
     "414a7bd29a66ae682e9fccb936151f8c"),
    ("cut_corner_octagon", 2, "90c12aa53ff4da230e403c9bf3174207"
     "e249be21cd33ba46bd81948931f86ff8"),
    ("cut_corner_octagon", 3, "566337e146d8e71a71df5c46be0effb5"
     "573c8b55d3872ace65bd028132d1b412"),
    ("concave_star", 0, "2e8affb0e5bfb113fdbe5350bc9256a9"
     "fd2dcf317a1f7a1dfa74fc42b621544f"),
    ("concave_star", 1, "beedd9478f1618a5a8d8df605eece103"
     "e67cc43a895f0b5ae9cb52883648437c"),
    ("concave_star", 2, "499a75454082151812687f9085d6d6a9"
     "c129791430d1b4d976a7a854740ff66b"),
    ("concave_star", 3, "2a6ffed871d624f491d8aad792f7d5cd"
     "4956b655690033a9073f2188d7db9f32"),
    ("triangulation", 0, "bc6d426b2d8063058550348d8f101e3c"
     "bc94bf761863dd89d922225545ec490e"),
    ("triangulation", 1, "d7b8aa5f0170d76400787719e82e0e91"
     "4808964a05932e2f1e646bcad55a8128"),
    ("triangulation", 2, "82ce6dc7acbbce14feaf8c99e9f63f74"
     "7f540cb1d0003beeb6f6e0069a61a4a5"),
    ("triangulation", 3, "0568afcd33c1cd805d20480fe27bbe17"
     "8e3015ddd13821cd20dcb704de8face3"),
    ("square_grid", 0, "22c29d7123c59672a7e9b6350afa9915"
     "b2a6e1e0df18d0964ac90a1752314f44"),
    ("square_grid", 1, "a36d3af9a416b8de3022a8acd79cd5b5"
     "1c6c3dce46c0abc1b929271c47e93bf3"),
    ("square_grid", 2, "e547ec1d754570a12b7cd9833330bc15"
     "267121b2d0470adc41ea085ccae6a715"),
    ("square_grid", 3, "bc7b585a496b26b41f9a51391dc2cc50"
     "1de3eb4af720616b4155a02a200347b0"),
]


@pytest.mark.parametrize("fam,level,digest", _MESH_DIGESTS)
def test_mesh_families_bitwise(fam, level, digest):
    mesh = make_mesh(MeshFamilySpec(fam, level=level))
    h = hashlib.sha256()
    for arr in (mesh.vertices, mesh.cell_vertices, mesh.cell_start):
        h.update(arr.tobytes())
    assert h.hexdigest() == digest
    assert mesh.name == f"{fam}-level{level}"


@pytest.mark.parametrize("build, match", [
    (lambda: make_mesh(MeshFamilySpec("voronoi")),
     "unknown mesh family 'voronoi'"),
    (lambda: make_mesh(MeshFamilySpec("honeycomb", level=-1)),
     "level must be >= 0, got -1"),
    (lambda: split_triangle_polygon(10),
     r"step must be in \[0, 9\], got 10"),
    (lambda: split_hexagon_polygon(-1),
     r"step must be in \[0, 18\], got -1"),
    (lambda: concave_octagon_polygon(0.9),
     r"alpha must be in \[0, 0.8\], got 0.9"),
    (lambda: random_convex_polygon(2, 0), "need at least 3 vertices, got 2"),
], ids=["mesh_family", "mesh_level", "split_step_high",
        "split_step_low", "concave_alpha", "random_convex_n"])
def test_generators_refuse_arguments_out_of_range(build, match):
    with pytest.raises(ValueError, match=match):
        build()
