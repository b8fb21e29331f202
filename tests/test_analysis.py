import numpy as np
import pytest

from e2vem import analysis, geometry
from e2vem.analysis import (
    StudyRow,
    build_report,
    coercivity_scan,
    eoc_rates,
    run_convergence_study,
    scan_to_csv,
    solution_errors,
)
from e2vem.assembly import (ProblemSpec, SolutionResult, assemble_full,
                            linear_problem, sin_sin_problem, solve_problem)
from e2vem.errors import DegenerateData, MissingExactSolution
from e2vem.geometry import PolygonalMesh, stack_polygons, stack_quadrature
from e2vem.meshgen import MeshFamilySpec, make_mesh
from e2vem.projectors import compute_pinabla

from oracles import class_cells, eoc_fit


def errors_of(mesh, values, exact=None, gradient=None):
    """``solution_errors`` of the vertex data ``values`` on ``mesh``
    against the exact solution ``exact`` and its ``gradient``."""
    problem = ProblemSpec("poisson", 0.0, 0.0, exact, gradient)
    return solution_errors(SolutionResult(mesh, problem, None, values, None))


def test_linear_interpolant_errors_vanish():
    mesh = make_mesh(MeshFamilySpec("cut_corner_octagon", level=0))
    prob = linear_problem(0.2, 0.6, -0.3, "poisson")
    res = solve_problem(mesh, "minimal", prob)
    l2, h1 = solution_errors(res)
    assert l2 < 1e-10
    assert h1 < 1e-10


def test_zero_solution_error_is_exact_norm():
    mesh = make_mesh(MeshFamilySpec("square_grid", level=1))
    prob = sin_sin_problem("poisson")
    zeros = np.zeros(mesh.n_vertices)
    # ||sin sin||_L2 over the unit square is exactly 1/2
    err, _ = errors_of(mesh, zeros, prob.exact_solution, prob.exact_gradient)
    assert err == pytest.approx(0.5, abs=1e-6)


def test_missing_exact_solution():
    mesh = make_mesh(MeshFamilySpec("square_grid", level=0))
    with pytest.raises(MissingExactSolution):
        errors_of(mesh, np.zeros(mesh.n_vertices))


def test_errors_mesh_order_independent():
    mesh = make_mesh(MeshFamilySpec("concave_star", level=0))
    prob = sin_sin_problem("poisson")
    res = solve_problem(mesh, "minimal", prob)
    l2a, h1a = solution_errors(res)

    order = np.random.default_rng(1).permutation(mesh.n_cells)
    shuffled = PolygonalMesh(mesh.vertices, [mesh.cells[i] for i in order],
                             name=mesh.name)
    l2b, h1b = errors_of(shuffled, res.vertex_values, prob.exact_solution,
                         prob.exact_gradient)
    assert abs(l2a - l2b) < 1e-13
    assert abs(h1a - h1b) < 1e-13


def test_scalar_exact_fields_broadcast():
    # an exact solution or gradient that returns constants gives the
    # errors of the same constants as arrays
    mesh = make_mesh(MeshFamilySpec("square_grid", level=0))
    u = np.linspace(0.0, 1.0, mesh.n_vertices)
    constants = (lambda x, y: 1.0, lambda x, y: (0.0, 0.0))
    scalar = errors_of(mesh, u, *constants)
    arrays = errors_of(mesh, u, lambda x, y: np.ones_like(x),
                       lambda x, y: (np.zeros_like(x), np.zeros_like(y)))
    assert scalar[0] == arrays[0]
    assert scalar[1] == arrays[1]
    assert errors_of(mesh, np.ones(mesh.n_vertices), *constants)[0] < 1e-15
    # the linear patch problem's constant gradient is such a field
    res = solve_problem(mesh, "minimal", linear_problem(0.2, 0.6, -0.3))
    assert max(solution_errors(res)) < 1e-12


def test_coercivity_scan_default_counts():
    rows = coercivity_scan("regular")
    assert rows == coercivity_scan("regular", range(3, 21))
    assert len(rows) == 18
    assert coercivity_scan("regular", []) == []


def test_errors_chunked_over_class_members(monkeypatch):
    mesh = make_mesh(MeshFamilySpec("honeycomb", level=1))
    prob = sin_sin_problem("poisson")
    res = solve_problem(mesh, "minimal", prob)
    monkeypatch.setattr(geometry, "_CHUNK_MEMBERS", 10 ** 9)
    whole = solution_errors(res)
    matrix, load = assemble_full(mesh, res.degrees, prob)
    assert np.bincount(mesh.cell_class).max() > 7
    monkeypatch.setattr(geometry, "_CHUNK_MEMBERS", 7)
    chunked = solution_errors(res)
    np.testing.assert_allclose(chunked, whole, rtol=1e-13, atol=0.0)
    matrix_c, load_c = assemble_full(mesh, res.degrees, prob)
    assert abs(matrix_c - matrix).max() <= 1e-13 * abs(matrix).max()
    assert np.abs(load_c - load).max() <= 1e-13 * np.abs(load).max()


def test_eoc_rates_exact_power_laws():
    hs = [0.4, 0.2, 0.1, 0.05]
    for alpha, scale in ((1.0, 3.0), (2.0, 0.7)):
        errs = [scale * h ** alpha for h in hs]
        fitted, steps = eoc_rates(hs, errs)
        assert fitted == pytest.approx(alpha, abs=1e-12)
        assert np.allclose(steps, alpha, atol=1e-12)
        assert fitted == pytest.approx(eoc_fit(hs, errs), abs=1e-12)


def test_eoc_rates_degenerate_inputs():
    with pytest.raises(DegenerateData):
        eoc_rates([0.1], [1.0])
    with pytest.raises(DegenerateData):
        eoc_rates([0.1, 0.1], [1.0, 0.5])
    with pytest.raises(DegenerateData):
        eoc_rates([0.2, 0.1], [1.0, 0.0])
    with pytest.raises(DegenerateData):
        eoc_rates([0.2, 0.1, 0.05], [1.0, 0.5])


def test_coercivity_scan_rows_and_csv(tmp_path):
    rows = coercivity_scan("regular", range(3, 7))
    assert [r.n_vertices for r in rows] == [3, 4, 5, 6]
    assert [r.minimal_l for r in rows] == [0, 1, 1, 2]
    assert [r.dim_badpoly_at_minimal for r in rows][0] == 0
    path = tmp_path / "scan.csv"
    scan_to_csv(rows, path, config={"family": "regular"})
    text = path.read_text().splitlines()
    assert text[0].startswith("# config:")
    assert text[1].startswith("# generated:")
    assert text[2] == "n_vertices,ell_hat,ell_check,minimal_l,dim_badpoly_at_minimal"
    assert text[3] == "3,0,0,0,0"


def test_study_report_csv_layout(tmp_path):
    rows = [StudyRow(0.2, 10, 5, 1e-2, 1e-1),
            StudyRow(0.1, 40, 20, 2.5e-3, 5e-2)]
    report = build_report(rows)
    assert report.rate_l2 == pytest.approx(2.0, abs=1e-12)
    assert report.rate_h1 == pytest.approx(1.0, abs=1e-12)
    path = tmp_path / "study.csv"
    report.to_csv(path)
    lines = path.read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "h,ncells,dofs,err_l2,err_h1,rate_l2,rate_h1"
    first = [l for l in lines if not l.startswith("#")][1]
    assert first.endswith(",,")  # no rates on the first level
    assert lines[-1].startswith("# fitted:")


def test_report_requires_decreasing_h():
    rows = [StudyRow(0.1, 10, 5, 1e-2, 1e-1),
            StudyRow(0.2, 40, 20, 2.5e-3, 5e-2)]
    with pytest.raises(DegenerateData):
        build_report(rows)


def test_run_convergence_study_single_level_rejected():
    with pytest.raises(DegenerateData):
        run_convergence_study("square_grid", 1, sin_sin_problem("poisson"))


def test_honeycomb_errors_decrease():
    report = run_convergence_study("honeycomb", 3, sin_sin_problem("poisson"))
    l2 = [row.err_l2 for row in report.rows]
    h1 = [row.err_h1 for row in report.rows]
    assert all(a > b for a, b in zip(l2, l2[1:]))
    assert all(a > b for a, b in zip(h1, h1[1:]))
    assert np.isfinite(h1).all()


@pytest.mark.parametrize("extra", [5, -1])
def test_errors_refuse_wrong_length_vertex_data(extra):
    mesh = make_mesh(MeshFamilySpec("concave_star", level=0))
    prob = sin_sin_problem("poisson")
    values = np.zeros(mesh.n_vertices + extra)
    with pytest.raises(ValueError, match=str(mesh.n_vertices)):
        errors_of(mesh, values, prob.exact_solution, prob.exact_gradient)


def test_errors_refuse_two_dimensional_vertex_data():
    mesh = make_mesh(MeshFamilySpec("concave_star", level=0))
    prob = sin_sin_problem("poisson")
    res = solve_problem(mesh, "minimal", prob)
    column = res.vertex_values[:, None]
    with pytest.raises(ValueError, match=r"\(%d, 1\)" % mesh.n_vertices):
        errors_of(mesh, column, prob.exact_solution, prob.exact_gradient)
    res.vertex_values = column
    with pytest.raises(ValueError, match=r"\(%d,\)" % mesh.n_vertices):
        solution_errors(res)


@pytest.mark.parametrize("hs, errs", [
    ([0.1, np.nan], [1.0, 2.0]),
    ([0.1, 0.05], [np.inf, 1.0]),
    ([np.inf, 0.05], [1.0, 0.5]),
    ([0.1, 0.05], [1.0, np.nan]),
])
def test_eoc_rates_non_finite_inputs(hs, errs, capfd):
    with pytest.raises(DegenerateData, match="non-finite"):
        eoc_rates(hs, errs)
    assert capfd.readouterr().err == ""


_STRUCTURED = ("honeycomb", "concave_star", "cut_corner_octagon")


def _compressed_classes(mesh):
    return [poly for poly, cells in zip(mesh.cell_classes, class_cells(mesh))
            if len(cells) >= analysis._COMPRESS_MEMBERS]


def _scaled_moments(poly, pts, weights, degree=8):
    """Each monomial ((x - x_C) / h)^p ((y - y_C) / h)^q, p + q <= degree,
    integrated by the rule ``pts`` (P, 2), ``weights`` (P,)."""
    x, y = ((pts - poly.star_center) / poly.diameter).T
    return np.array([(x ** (d - j) * y ** j) @ weights
                     for d in range(degree + 1) for j in range(d + 1)])


@pytest.mark.parametrize("shift", [0.0, 1e6])
@pytest.mark.parametrize("family", _STRUCTURED)
def test_compressed_rules_keep_fan_moments(family, shift):
    base = make_mesh(MeshFamilySpec(family, level=2))
    mesh = PolygonalMesh(base.vertices + shift, base.cells)
    large = _compressed_classes(mesh)
    assert large
    k = 45  # dim P_8
    for poly in large:
        (pts, w), = analysis.compressed_rules(stack_polygons([poly]))
        fan_pts, fan_w = stack_quadrature(stack_polygons([poly]), 8)
        fan_pts, fan_w = fan_pts[0], fan_w[0]
        assert pts.shape == (k, 2) and w.shape == (k,)
        want = _scaled_moments(poly, fan_pts, fan_w)
        got = _scaled_moments(poly, pts, w)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        # every node is a fan node, bit for bit; some weights may be 0
        assert all((fan_pts == p).all(axis=1).any() for p in pts)
        assert (w >= 0.0).all()
        assert 0 < np.count_nonzero(w) <= k


def _getrf_rows(a):
    """The oracle of ``analysis._lu_rows``: LAPACK's ``dgetrf`` on each
    matrix of the stack, its row swaps turned into each row's original
    index."""
    from scipy.linalg import lapack

    lus, orders = [], []
    for m in a:
        lu, piv, info = lapack.dgetrf(m)
        assert info == 0
        order = list(range(len(m)))
        for i, p in enumerate(piv.tolist()):
            order[i], order[p] = order[p], order[i]
        lus.append(lu)
        orders.append(order)
    return np.array(lus), np.array(orders)


@pytest.mark.parametrize("family, level", [("honeycomb", 3),
                                           ("concave_star", 4)])
def test_stacked_lu_pivots_as_lapack(family, level, monkeypatch):
    # the recombination's LU, stacked over the large classes of each
    # vertex count, and the nodes recombined from its factors
    mesh = make_mesh(MeshFamilySpec(family, level=level))
    large = _compressed_classes(mesh)
    stacks = [stack_polygons([p for p in large if p.n_vertices == n])
              for n in sorted({p.n_vertices for p in large})]
    seen, lu_rows = [], analysis._lu_rows

    def recorded(a):
        lu, order = lu_rows(a)
        seen.append((a, lu.copy(), order))  # the caller scales lu in place
        return lu, order

    monkeypatch.setattr(analysis, "_lu_rows", recorded)
    rules = [analysis.compressed_rules(s) for s in stacks]
    assert len(seen) == len(stacks) and len(seen[0][0]) > 1
    for a, lu, order in seen:
        want_lu, want_order = _getrf_rows(a)
        np.testing.assert_array_equal(order, want_order)
        np.testing.assert_allclose(lu, want_lu, rtol=0, atol=1e-12)
    monkeypatch.setattr(analysis, "_lu_rows", _getrf_rows)
    for s, got in zip(stacks, rules):
        for (pts, w), (want_pts, want_w) in zip(got,
                                                analysis.compressed_rules(s)):
            np.testing.assert_array_equal(pts, want_pts)
            np.testing.assert_allclose(w, want_w, rtol=0,
                                       atol=1e-12 * want_w.max())


def _fan_rule_errors(result):
    """(l2, h1) of a solution on each class's fan rule from
    ``stack_quadrature``, moved onto the members by their offsets."""
    problem, u, mesh = result.problem, result.vertex_values, result.mesh
    l2_sq = h1_sq = 0.0
    for poly, cells in zip(mesh.cell_classes, class_cells(mesh)):
        indices = np.array([mesh.cells[c] for c in cells])      # (m, n)
        offsets = mesh.vertices[indices[:, 0]] - poly.vertices[0]
        pts, w = stack_quadrature(stack_polygons([poly]), 8)
        pts = pts[0] + offsets[:, None, :]                      # (m, P, 2)
        a = np.einsum("mn,an->ma", u[indices],
                      compute_pinabla(stack_polygons([poly]))[0])
        centers = poly.star_center + offsets
        local = (pts - centers[:, None, :]) / poly.diameter
        x, y = pts[..., 0], pts[..., 1]
        projected = a[:, :1] + a[:, 1:2] * local[..., 0] + a[:, 2:] * local[..., 1]
        l2_sq += ((projected - problem.exact_solution(x, y)) ** 2 @ w[0]).sum()
        gx, gy = problem.exact_gradient(x, y)
        h1_sq += (((a[:, 1:2] / poly.diameter - gx) ** 2
                   + (a[:, 2:] / poly.diameter - gy) ** 2) @ w[0]).sum()
    return np.sqrt(l2_sq), np.sqrt(h1_sq)


def recorded_rules(monkeypatch):
    """The list that every rule ``analysis.compressed_rules`` returns from
    now on is appended to."""
    built = []
    compress = analysis.compressed_rules

    def recorded(s):
        rules = compress(s)
        built.extend(rules)
        return rules

    monkeypatch.setattr(analysis, "compressed_rules", recorded)
    return built


@pytest.mark.parametrize("family", _STRUCTURED)
def test_class_rules_built_once_as_the_error_pass_built_them(family,
                                                              monkeypatch):
    # one compressed_rules stack per vertex count for the whole mesh, and
    # each rule bitwise the one the error pass built alone: the large
    # classes of each class_groups stack, recombined in their own stack
    mesh = make_mesh(MeshFamilySpec(family, level=2))
    compress, calls = analysis.compressed_rules, []

    def recorded(s):
        calls.append(s.vertices.shape[1])
        return compress(s)

    monkeypatch.setattr(analysis, "compressed_rules", recorded)
    problem = sin_sin_problem("poisson")
    res = solve_problem(mesh, "minimal", problem)
    solution_errors(res)
    assemble_full(mesh, res.degrees, problem, "p1")
    solution_errors(res)
    large = _compressed_classes(mesh)
    assert sorted(calls) == sorted({p.n_vertices for p in large})
    polys, counts = mesh.cell_classes, np.bincount(mesh.cell_class)
    want = {}
    for *_, rows in geometry.class_groups(polys):
        s = stack_polygons([polys[k] for k in rows])
        big = np.flatnonzero(counts[rows] >= analysis._COMPRESS_MEMBERS)
        if len(big):
            want.update(zip(rows[big].tolist(), compress(s.take(big))))
    got = mesh._class_rules
    assert len(got) == len(large) and sorted(got) == sorted(want)
    for k, (pts, w) in got.items():
        np.testing.assert_array_equal(pts, want[k][0])
        np.testing.assert_array_equal(w, want[k][1])


@pytest.mark.parametrize("family", _STRUCTURED)
def test_compressed_errors_match_fan_rule(family, monkeypatch):
    mesh = make_mesh(MeshFamilySpec(family, level=2))
    built = recorded_rules(monkeypatch)
    res = solve_problem(mesh, "minimal", sin_sin_problem("poisson"))
    np.testing.assert_allclose(solution_errors(res), _fan_rule_errors(res),
                               rtol=1e-10, atol=0.0)
    # one rule per large class, built once for the load and the errors,
    # and none of them refused
    assert len(built) == len(_compressed_classes(mesh))
    assert all(rule is not None for rule in built)


def test_singleton_classes_keep_fan_rule(monkeypatch):
    base = make_mesh(MeshFamilySpec("honeycomb", level=1))
    verts = base.vertices.copy()
    interior = ~base.boundary_vertex_flags
    verts[interior] += base.h * np.random.default_rng(2).uniform(
        -0.05, 0.05, (interior.sum(), 2))
    mesh = PolygonalMesh(verts, base.cells)
    assert len(mesh.cell_classes) == mesh.n_cells
    res = solve_problem(mesh, "minimal", sin_sin_problem("poisson"))
    built = recorded_rules(monkeypatch)
    errors = solution_errors(res)
    assert built == []
    monkeypatch.setattr(analysis, "_COMPRESS_MEMBERS", 10 ** 9)
    assert solution_errors(res) == errors
    np.testing.assert_allclose(errors, _fan_rule_errors(res), rtol=1e-13,
                               atol=0.0)


def test_fan_part_of_every_class_is_the_stack_itself(monkeypatch):
    # on a jitter-batch mesh no class is large: class_rules groups
    # nothing, and the fan part, every class of the group, integrates on
    # the stack passed in rather than on a copy, with the same values
    base = make_mesh(MeshFamilySpec("honeycomb", level=0))
    verts = base.vertices.copy()
    interior = ~base.boundary_vertex_flags
    verts[interior] += base.h * np.random.default_rng((0, 0)).uniform(
        -0.05, 0.05, (interior.sum(), 2))
    mesh = PolygonalMesh(verts, base.cells)
    polys = mesh.cell_classes
    groups = list(geometry.class_groups(polys))
    monkeypatch.setattr(analysis, "class_groups", None)
    assert mesh._class_rules == {}
    for *_, rows in groups:
        s = stack_polygons([polys[k] for k in rows])
        (part, sub, pts, w), = analysis.rule_parts(mesh, rows, s, 4)
        assert sub is s
        np.testing.assert_array_equal(part, np.arange(len(rows)))
        want = stack_quadrature(s.take(part), 4)
        np.testing.assert_array_equal(pts, want[0])
        np.testing.assert_array_equal(w, want[1])


def test_refused_compressed_rule_keeps_fan_rule(monkeypatch):
    mesh = make_mesh(MeshFamilySpec("concave_star", level=1))
    # the mesh keeps its rules from the solve's load on
    monkeypatch.setattr(analysis, "_COMPRESS_TOLERANCE", -1.0)
    res = solve_problem(mesh, "minimal", sin_sin_problem("poisson"))
    large = _compressed_classes(mesh)
    assert large
    assert [analysis.compressed_rules(stack_polygons([poly]))[0]
            for poly in large] == [None] * len(large)
    np.testing.assert_allclose(solution_errors(res), _fan_rule_errors(res),
                               rtol=1e-13, atol=0.0)


def test_coercivity_scan_refuses_an_unknown_family():
    with pytest.raises(ValueError, match="unknown polygon family 'hexagons'"):
        coercivity_scan("hexagons")
