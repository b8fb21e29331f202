"""Acceptance suite: one test per numbered shipping requirement.

Every test prints a single ``CRITERION nn PASS`` line with the measured
quantities (visible with ``pytest -s``); the pytest verdict itself is
the pass/fail record. Expected integers and tolerances are frozen here
on purpose: they are the contract, not a regression snapshot.
"""

import dataclasses
import time
import warnings

import numpy as np
import pytest

from e2vem.analysis import coercivity_scan, run_convergence_study
from e2vem.assembly import (
    assemble,
    linear_problem,
    sin_sin_problem,
    solve_problem,
)
from e2vem.degree import assign_degrees, dim_badpoly, min_admissible_l
from e2vem.errors import (
    AdmissibilityNotReached,
    IllConditioned,
    InadmissibleDegrees,
)
from e2vem.geometry import build_polygon, stack_polygons, stack_quadrature
from e2vem.meshgen import (
    MeshFamilySpec,
    PolygonFamilySpec,
    SplitMix64,
    make_mesh,
    make_polygon,
    regular_polygon,
)
from e2vem.polyspace import monomial_exponents, stack_monomials
from e2vem.projectors import (
    build_projectors,
    compute_pinabla,
    project_gradient_from_data,
)

from oracles import as_csr, fem_p1_solve

MESH_FAMILIES = ("honeycomb", "cut_corner_octagon", "concave_star",
                 "triangulation", "square_grid")
RATE_FAMILIES = ("honeycomb", "cut_corner_octagon", "concave_star")

TABLE_MINIMAL = [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9]
TABLE_ELL_HAT = TABLE_MINIMAL
TABLE_ELL_CHECK = [0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3]
SPLIT_TRIANGLE_MINIMAL = [0, 1, 1, 2, 2, 2, 2, 3, 3, 4]
SPLIT_TRIANGLE_GROUPED = [0, 1, 2, 2, 3, 4]
SPLIT_HEXAGON_GROUPED = [1, 2, 2, 2, 3, 3, 3, 3, 4, 4]


def report(num, detail):
    print(f"CRITERION {num:02d} PASS: {detail}")


def level0(family):
    return make_mesh(MeshFamilySpec(family, level=0))


def paired_groups(values):
    """Collapse a per-count row into table columns: the first and last
    counts stand alone, the counts between them pair up."""
    groups = [[values[0]]]
    i = 1
    while i + 1 < len(values) - 1:
        groups.append(values[i:i + 2])
        i += 2
    groups.append(values[i:])
    out = []
    for group in groups:
        assert len(set(group)) == 1, f"mixed group {group}"
        out.append(group[0])
    return out


def test_criterion_01_regular_polygon_degree_table():
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        # the search probes degrees up to 9 on the 20-gon, where the
        # vector Gram conditioning diagnostic fires by design
        warnings.simplefilter("ignore", IllConditioned)
        rows = coercivity_scan("regular", range(3, 21))
    elapsed = time.perf_counter() - t0
    assert [r.minimal_l for r in rows] == TABLE_MINIMAL
    assert [r.ell_hat for r in rows] == TABLE_ELL_HAT
    assert [r.ell_check for r in rows] == TABLE_ELL_CHECK
    assert elapsed < 10.0
    report(1, f"regular 3..20 rows exact, scan {elapsed:.2f}s (< 10s)")


def test_criterion_02_split_family_degree_patterns():
    tri = coercivity_scan("split_triangle", range(3, 13))
    assert [r.minimal_l for r in tri] == SPLIT_TRIANGLE_MINIMAL
    assert paired_groups([r.minimal_l for r in tri]) == SPLIT_TRIANGLE_GROUPED
    hexa = coercivity_scan("split_hexagon", range(7, 25))
    assert paired_groups([r.minimal_l for r in hexa]) == SPLIT_HEXAGON_GROUPED
    report(2, f"split families grouped rows {SPLIT_TRIANGLE_GROUPED} / "
              f"{SPLIT_HEXAGON_GROUPED}")


def test_criterion_03_bad_polynomial_dimensions():
    hexagon = make_polygon(PolygonFamilySpec("regular", n=6))
    assert dim_badpoly(hexagon, 1) == 2
    triangles = (regular_polygon(3),
                 build_polygon([(0.0, 0.0), (2.0, 0.0), (0.3, 1.1)]),
                 build_polygon([(1.0, 1.0), (4.0, 2.0), (2.0, 5.0)]))
    for tri in triangles:
        assert dim_badpoly(tri, 0) == 0

    corpus = [make_polygon(PolygonFamilySpec("regular", n=n))
              for n in range(3, 21)]
    corpus += [make_polygon(PolygonFamilySpec("random_convex", n=n, seed=0))
               for n in range(4, 21)]
    corpus += [make_polygon(PolygonFamilySpec("split_triangle", step=s))
               for s in range(10)]
    corpus += [make_polygon(PolygonFamilySpec("split_hexagon", step=s))
               for s in range(1, 19)]
    corpus += [make_polygon(PolygonFamilySpec("concave_octagon", n=8,
                                              alpha=a))
               for a in (0.0, 0.2, 0.4, 0.6)]
    checked = 0
    for poly in corpus:
        nv = poly.n_vertices
        # the l(l+1) cap needs at least 2l+3 vertex functionals; below
        # that the moment map's nullspace exceeds it by dimension count
        # alone, so each polygon is tested up to the degree its vertex
        # count supports (at most 6)
        for l in range(min(6, (nv - 3) // 2) + 1):
            assert dim_badpoly(poly, l) <= l * (l + 1)
            checked += 1
    report(3, f"hexagon dim 2, triangles dim 0, bound held on "
              f"{checked} (polygon, degree) pairs")


def test_criterion_04_concave_octagon_sweep():
    levels = []
    for alpha in (0.0, 0.2, 0.4, 0.6):
        poly = make_polygon(PolygonFamilySpec("concave_octagon", n=8,
                                              alpha=alpha))
        levels.append(min_admissible_l(poly).l)
    assert levels == [2, 2, 2, 2]
    report(4, "concavity sweep alpha in {0, 0.2, 0.4, 0.6} all minimal l=2")


def test_criterion_05_projection_consistency():
    worst_linear = 0.0
    worst_gradient = 0.0
    for trial in range(200):
        n = 4 + trial % 16
        l = trial % 6
        poly = make_polygon(PolygonFamilySpec("random_convex", n=n,
                                              seed=trial))
        rng = SplitMix64(10_000 + trial)
        s = stack_polygons([poly])
        (pts,), (w,) = stack_quadrature(s, 2 * (l + 1))

        def basis(q, degree):
            return stack_monomials(s, q[None], degree)[0]

        lin = np.array([2.0 * rng.random() - 1.0 for _ in range(3)])
        dofs = basis(poly.vertices, 1) @ lin
        exact = basis(pts, 1) @ lin
        projected = basis(pts, 1) @ (compute_pinabla(s)[0] @ dofs)
        rel = np.sqrt(w @ (projected - exact) ** 2 / (w @ exact ** 2))
        worst_linear = max(worst_linear, rel)

        exps = monomial_exponents(l + 1)
        a = np.array([2.0 * rng.random() - 1.0 for _ in range(len(exps))])
        moments = None
        if l >= 1:
            moments = basis(pts, l - 1).T @ ((basis(pts, l + 1) @ a) * w)
        coeffs = project_gradient_from_data(
            poly, l, lambda q: basis(q, l + 1) @ a, moments)
        vb = basis(pts, l)
        nl = vb.shape[1]
        # the exact gradient of sum_j a_j ((x - x_C) / h)^p_j ((y - y_C) / h)^q_j
        local = (pts - poly.star_center)[:, None, :] / poly.diameter
        powers = local ** np.maximum(exps - 1, 0) * exps
        gx = (powers[..., 0] * local[..., 1] ** exps[:, 1]) @ a / poly.diameter
        gy = (local[..., 0] ** exps[:, 0] * powers[..., 1]) @ a / poly.diameter
        num = w @ ((vb @ coeffs[:nl] - gx) ** 2 + (vb @ coeffs[nl:] - gy) ** 2)
        den = w @ (gx ** 2 + gy ** 2)
        worst_gradient = max(worst_gradient, np.sqrt(num / den))

    assert worst_linear <= 1e-10
    assert worst_gradient <= 1e-10
    report(5, f"200 polygons: linear proj {worst_linear:.2e}, gradient "
              f"proj {worst_gradient:.2e} (<= 1e-10)")


def test_criterion_06_patch_test():
    worst = 0.0
    solved = 0
    refused = 0
    for family in MESH_FAMILIES:
        mesh = level0(family)
        xv, yv = mesh.vertices[:, 0], mesh.vertices[:, 1]
        for strategy in ("minimal", "ell_hat", "ell_check"):
            for kind in ("poisson", "diffusion_reaction"):
                problem = linear_problem(0.25, -1.5, 0.75, kind)
                if family == "honeycomb" and strategy == "ell_check":
                    # the necessary-side degree is not sufficient on the
                    # clipped hexagons, and the failure must be typed
                    with pytest.raises(AdmissibilityNotReached):
                        solve_problem(mesh, strategy, problem)
                    refused += 1
                    continue
                result = solve_problem(mesh, strategy, problem)
                err = np.abs(result.vertex_values
                             - problem.exact_solution(xv, yv)).max()
                worst = max(worst, err)
                solved += 1
    assert solved == 28 and refused == 2
    assert worst <= 1e-10
    report(6, f"linear solution exact on {solved} family/strategy/problem "
              f"combos, worst {worst:.2e}; 2 combos correctly refused")


def test_criterion_07_triangle_mesh_matches_p1_fem():
    mesh = make_mesh(MeshFamilySpec("triangulation", level=2))
    assert mesh.n_cells == 2 * 32 * 32
    problem = sin_sin_problem("poisson")
    result = solve_problem(mesh, "minimal", problem)
    assert all(l == 0 for l in result.degrees.levels)
    # same load rule as the solver under test: cell mean of f from the
    # documented degree-4 rule, lumped one third per vertex
    cells = build_polygon(np.array([mesh.vertices[c] for c in mesh.cells]),
                          normalize_orientation=False)
    pts, w = stack_quadrature(stack_polygons(cells), 4)
    loads = (w * problem.f(pts[..., 0], pts[..., 1])).sum(axis=1)
    fem = fem_p1_solve(mesh.vertices, mesh.cells,
                       mesh.boundary_vertex_flags, loads)
    gap = np.abs(result.vertex_values - fem).max()
    assert gap <= 1e-10
    report(7, f"2048-triangle solve matches independent P1 FEM to "
              f"{gap:.2e} entrywise")


def _rate_study(kind, load_mode="mean"):
    problem = sin_sin_problem(kind)
    rates = {}
    for family in RATE_FAMILIES:
        study = run_convergence_study(family, 4, problem,
                                      load_mode=load_mode)
        assert 160 <= study.rows[0].ncells <= 320
        rates[family] = (study.rate_l2, study.rate_h1)
    return rates


def test_criterion_08_poisson_convergence_rates():
    t0 = time.perf_counter()
    rates = _rate_study("poisson")
    elapsed = time.perf_counter() - t0
    for family, (l2, h1) in rates.items():
        assert 1.9 <= l2 <= 2.1, (family, l2)
        assert 0.9 <= h1 <= 1.1, (family, h1)
    assert elapsed < 120.0
    pretty = ", ".join(f"{fam} L2={l2:.3f} H1={h1:.3f}"
                       for fam, (l2, h1) in rates.items())
    report(8, f"{pretty}; {elapsed:.1f}s (< 120s)")


def test_criterion_09_diffusion_reaction_rates():
    rates = _rate_study("diffusion_reaction")
    for family, (l2, h1) in rates.items():
        assert 1.9 <= l2 <= 2.1, (family, l2)
        assert 0.9 <= h1 <= 1.1, (family, h1)
    pretty = ", ".join(f"{fam} L2={l2:.3f} H1={h1:.3f}"
                       for fam, (l2, h1) in rates.items())
    report(9, pretty)


def test_criterion_10_spd_kernel_and_admissibility_refusal():
    problem = sin_sin_problem("poisson")
    worst_kernel = 0.0
    cells = 0
    for family in MESH_FAMILIES:
        mesh = level0(family)
        degrees = assign_degrees(mesh, "minimal")
        for i, cell in enumerate(mesh.cells):
            poly = build_polygon(mesh.vertices[cell],
                                 normalize_orientation=False)
            l = int(degrees.levels[i])
            stiff = build_projectors([poly], l).stiffness[0]
            sv = np.linalg.svd(stiff, compute_uv=False)
            rank = int((sv > 1e-12 * sv[0]).sum())
            assert rank == poly.n_vertices - 1, (family, i)
            worst_kernel = max(worst_kernel,
                               np.abs(stiff @ np.ones(poly.n_vertices)).max())
            cells += 1
        system = assemble(mesh, degrees, problem)
        np.linalg.cholesky(as_csr(system.matrix).toarray())
    assert worst_kernel <= 1e-12

    mesh = level0("honeycomb")
    with pytest.raises(AdmissibilityNotReached):
        assign_degrees(mesh, "fixed:1")
    degrees = assign_degrees(mesh, "minimal")
    hexagon = max(range(mesh.n_cells), key=lambda i: len(mesh.cells[i]))
    lowered = degrees.levels.copy()
    lowered[hexagon] -= 1
    with pytest.raises(InadmissibleDegrees):
        assemble(mesh, dataclasses.replace(degrees, levels=lowered), problem)
    report(10, f"{cells} cells rank n-1, worst |K·1| {worst_kernel:.2e}, "
               f"5 global factorizations ok, both refusal paths typed")


def test_criterion_11_p1_load_mode_rate():
    study = run_convergence_study("honeycomb", 4, sin_sin_problem("poisson"),
                                  load_mode="p1")
    assert 1.9 <= study.rate_l2 <= 2.1
    report(11, f"p1 load mode honeycomb L2 rate {study.rate_l2:.3f} "
               f"in [1.9, 2.1]")
