"""Property-based tests for invariants that should hold on any input."""

import numpy as np
from hypothesis import given, settings, strategies as st

from e2vem.cli import parse_n_range
from e2vem.analysis import eoc_rates
from e2vem.degree import dim_badpoly, ell_check, ell_hat, min_admissible_l
from e2vem import geometry
from e2vem.geometry import (PolygonalMesh, build_polygon, stack_polygons,
                            stack_quadrature)
from e2vem.meshgen import (concave_octagon_polygon, random_convex_polygon,
                           splitmix64)
from e2vem.polyspace import moment_tables

from oracles import class_cells, splitmix64_reference

sizes = st.integers(min_value=4, max_value=14)
seeds = st.integers(min_value=0, max_value=2**31 - 1)
angles = st.floats(min_value=0.0, max_value=6.28, allow_nan=False)
scales = st.floats(min_value=0.1, max_value=25.0, allow_nan=False)
shifts = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)
alphas = st.floats(min_value=0.0, max_value=0.6, allow_nan=False)


def convex(n, seed):
    return random_convex_polygon(n, seed)


def similarity(vertices, angle, scale, dx, dy):
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return scale * (vertices @ rot.T) + np.array([dx, dy])


def shoelace(tri):
    (x0, y0), (x1, y1), (x2, y2) = np.asarray(tri)
    return 0.5 * abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))


@settings(max_examples=25, deadline=None)
@given(sizes, seeds, angles, scales, shifts, shifts)
def test_minimal_degree_similarity_invariant(n, seed, angle, scale, dx, dy):
    poly = convex(n, seed)
    moved = build_polygon(similarity(poly.vertices, angle, scale, dx, dy))
    assert min_admissible_l(moved).l == min_admissible_l(poly).l


@settings(max_examples=25, deadline=None)
@given(alphas, angles, scales, shifts, shifts)
def test_shape_ratio_similarity_invariant(alpha, angle, scale, dx, dy):
    poly = concave_octagon_polygon(alpha)
    moved = build_polygon(similarity(poly.vertices, angle, scale, dx, dy))
    ratio = poly.kernel_inradius / poly.diameter
    moved_ratio = moved.kernel_inradius / moved.diameter
    assert abs(moved_ratio - ratio) <= 1e-9 * ratio


def kappa(poly):
    return min(poly.kernel_inradius, poly.edge_lengths.min()) / poly.diameter


@settings(max_examples=25, deadline=None)
@given(sizes, seeds, alphas, st.floats(min_value=1.0, max_value=200.0),
       seeds)
def test_class_members_valid_like_representative(n, seed, alpha, stretch,
                                                 noise_seed):
    # stretching moves kappa across the class rule's 1e-2 threshold
    rng = np.random.default_rng(noise_seed)
    for poly in (convex(n, seed),
                 concave_octagon_polygon(alpha)):
        shape = poly.vertices * (stretch, 1.0)
        tol = geometry._CLASS_TOLERANCE * poly.diameter * stretch
        copies = [shape + (3.0 * stretch * k, -2.0 * k)
                  + rng.uniform(-0.5, 0.5, shape.shape) * tol
                  for k in range(6)]
        m = len(shape)
        mesh = PolygonalMesh(np.vstack(copies),
                             [range(m * k, m * (k + 1)) for k in range(6)])
        for rep, cells in zip(mesh.cell_classes, class_cells(mesh)):
            for member in cells[1:]:
                own = build_polygon(mesh.vertices[mesh.cells[member]])
                assert abs(kappa(own) - kappa(rep)) <= 1e-9 * kappa(rep)


@settings(max_examples=25, deadline=None)
@given(sizes, seeds, alphas)
def test_subtriangulation_covers_polygon(n, seed, alpha):
    for poly in (convex(n, seed),
                 concave_octagon_polygon(alpha)):
        # the fan (star_center, v_i, v_{i+1}); each triangle's quadrature
        # weights sum to its area
        v = poly.vertices
        triangles = [(poly.star_center, a, b)
                     for a, b in zip(v, np.roll(v, -1, axis=0))]
        _, w = stack_quadrature(stack_polygons([poly]), 2)
        total = sum(shoelace(tri) for tri in triangles)
        assert abs(total - poly.area) <= 1e-12 * poly.area
        np.testing.assert_allclose(w[0].reshape(len(v), -1).sum(axis=1),
                                   [shoelace(t) for t in triangles],
                                   rtol=1e-12)


@settings(max_examples=20, deadline=None)
@given(sizes, seeds, st.integers(min_value=0, max_value=4))
def test_moment_table_spd(n, seed, degree):
    h = moment_tables(stack_polygons([convex(n, seed)]), degree)[0]
    assert np.array_equal(h, h.T)
    assert np.linalg.eigvalsh(h).min() > 0.0


@settings(max_examples=25, deadline=None)
@given(sizes, seeds)
def test_admissibility_evidence_identity(n, seed):
    poly = convex(n, seed)
    ev = min_admissible_l(poly)
    assert ev.admissible
    assert ell_check(n) <= ev.l <= ell_hat(n)
    assert ev.rank == n - 1
    bad = dim_badpoly(poly, ev.l)
    assert (ev.l + 1) * (ev.l + 2) - bad == ev.rank


@settings(max_examples=50)
@given(st.floats(min_value=1e-6, max_value=1e3),
       st.floats(min_value=0.25, max_value=4.0),
       st.floats(min_value=1.3, max_value=4.0),
       st.integers(min_value=3, max_value=6))
def test_eoc_recovers_exact_power_law(c, alpha, ratio, levels):
    hs = [0.5 * ratio ** -k for k in range(levels)]
    errs = [c * h ** alpha for h in hs]
    fitted, steps = eoc_rates(hs, errs)
    assert abs(fitted - alpha) <= 1e-9 * alpha
    assert all(abs(s - alpha) <= 1e-9 * alpha for s in steps)


@settings(max_examples=50)
@given(st.integers(min_value=3, max_value=30), st.integers(min_value=0,
                                                           max_value=12))
def test_parse_n_range_ranges(lo, extra):
    hi = lo + extra
    assert parse_n_range(f"{lo}..{hi}") == list(range(lo, hi + 1))


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=3, max_value=99), min_size=1,
                max_size=8))
def test_parse_n_range_lists(values):
    assert parse_n_range(",".join(map(str, values))) == values


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_splitmix_matches_reference(seed):
    assert splitmix64(seed, 6).tolist() == splitmix64_reference(seed, 6)
    u = (splitmix64(seed, 4) >> 11) * 2.0 ** -53
    assert ((0.0 <= u) & (u < 1.0)).all()


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=0, max_value=30), st.integers(min_value=0))
def test_splitmix_stream_continues_from_advanced_state(seed, count, k):
    # k draws, then count - k from the state advanced by k steps (which
    # may wrap past 2**64), are one draw of count
    k %= count + 1
    rest = splitmix64(seed + k * 0x9E3779B97F4A7C15, count - k)
    assert np.array_equal(np.concatenate([splitmix64(seed, k), rest]),
                          splitmix64(seed, count))
