import warnings

import numpy as np
import pytest

from e2vem.analysis import compressed_rules, solution_errors
from e2vem.assembly import (ProblemSpec, assemble_full, sin_sin_problem,
                            solve_problem)
from e2vem.degree import assign_degrees, stiffness_rank
from e2vem.errors import IllConditioned
from e2vem.geometry import (PolygonalMesh, build_polygon, stack_polygons,
                            stack_quadrature)
from e2vem.meshgen import (concave_octagon_polygon, random_convex_polygon,
                           regular_polygon)
from e2vem.polyspace import moment_tables, space_dimension, stack_monomials
from e2vem.projectors import (
    GRAM_CONDITION_LIMIT,
    build_projectors,
    compute_pinabla,
    project_gradient_from_data,
)

from oracles import as_csr, monte_carlo_integral

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
UNIT_RIGHT_TRIANGLE = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]


def one_cell_matrix_and_load(poly, f, kind="poisson", strategy="minimal",
                             **kwargs):
    """``assemble_full`` on the mesh made of ``poly`` alone."""
    mesh = PolygonalMesh(poly.vertices, [list(range(poly.n_vertices))])
    degrees = assign_degrees(mesh, strategy)
    matrix, load = assemble_full(mesh, degrees, ProblemSpec(kind, f), **kwargs)
    return as_csr(matrix).toarray(), load


def quadrature(poly, degree):
    """One polygon's quadrature points (P, 2) and weights (P,)."""
    pts, w = stack_quadrature(stack_polygons([poly]), degree)
    return pts[0], w[0]


def monomials_at(poly, pts, degree):
    """One polygon's scaled monomials at the points ``pts`` (P, 2)."""
    return stack_monomials(stack_polygons([poly]), pts[None], degree)[0]


def evaluate_linear(poly, coeffs, pts):
    return monomials_at(poly, pts, 1) @ coeffs


def local_stiffness(poly, l):
    return build_projectors([poly], l).stiffness[0]


def test_pinabla_constant_and_linear_dofs():
    for poly in (build_polygon(UNIT_SQUARE), regular_polygon(7),
                 concave_octagon_polygon(0.4)):
        pina = compute_pinabla(stack_polygons([poly]))[0]
        pts, _ = quadrature(poly, 2)
        ones = np.ones(poly.n_vertices)
        assert np.allclose(evaluate_linear(poly, pina @ ones, pts), 1.0, atol=1e-13)
        xs = poly.vertices[:, 0]
        assert np.allclose(evaluate_linear(poly, pina @ xs, pts), pts[:, 0], atol=1e-12)


def test_pinabla_unit_square_hand_case():
    poly = build_polygon(UNIT_SQUARE)
    pina = compute_pinabla(stack_polygons([poly]))[0]
    dofs = np.array([0.0, 1.0, 1.0, 0.0])  # trace of x at the corners
    pts, _ = quadrature(poly, 2)
    assert np.allclose(evaluate_linear(poly, pina @ dofs, pts), pts[:, 0], atol=1e-13)


def boundary_hat_normals(poly):
    """``int_dE phi_i n ds = (|e_{i-1}| n_{i-1} + |e_i| n_i) / 2`` (n, 2)."""
    weighted = poly.edge_lengths[:, None] * poly.edge_normals
    return 0.5 * (weighted + np.roll(weighted, 1, axis=0))


@pytest.mark.parametrize("l", [0, 1, 2, 3])
def test_pigrad_exact_on_linears_any_l(l):
    # the gradient projection reproduces the gradient g of a linear u, so
    # (K u)_i = (Pi grad phi_i, g)_E = (grad phi_i, g)_E, the boundary
    # integral of phi_i g . n, and u^T K u = |g|^2 |E|
    poly = regular_polygon(9)
    K = local_stiffness(poly, l)
    dofs = 0.25 - 1.5 * poly.vertices[:, 0] + 0.75 * poly.vertices[:, 1]
    grad = np.array([-1.5, 0.75])
    assert np.allclose(K @ dofs, boundary_hat_normals(poly) @ grad, atol=1e-11)
    assert dofs @ K @ dofs == pytest.approx(grad @ grad * poly.area, rel=1e-11)


@pytest.mark.parametrize("l", [0, 1, 2])
def test_pigrad_triangle_exact_for_all_dofs(l):
    # on a triangle the virtual space is P1 at every l: K is the P1
    # stiffness, |T| grad(lambda_i) . grad(lambda_j)
    poly = build_polygon([(0.1, 0.0), (1.2, 0.3), (0.4, 1.1)])
    K = local_stiffness(poly, l)
    v = poly.vertices
    grad_basis = np.linalg.solve(
        np.column_stack([np.ones(3), v]), np.eye(3))[1:]
    assert np.allclose(K, poly.area * grad_basis.T @ grad_basis, atol=1e-11)
    rng = np.random.default_rng(11)
    for _ in range(4):
        dofs = rng.standard_normal(3)
        gexact = grad_basis @ dofs
        assert dofs @ K @ dofs == pytest.approx(gexact @ gexact * poly.area,
                                                rel=1e-11)


def test_pigrad_unit_square_hand_case():
    # u = x: the projected gradient is the constant field (1, 0)
    K = local_stiffness(build_polygon(UNIT_SQUARE), 1)
    dofs = np.array([0.0, 1.0, 1.0, 0.0])
    assert np.allclose(K @ dofs, [-0.5, 0.5, 0.5, -0.5], atol=1e-12)
    assert dofs @ K @ dofs == pytest.approx(1.0, abs=1e-12)


def test_pizero_and_pione():
    poly = build_polygon(UNIT_SQUARE)
    pz = build_projectors([poly], 1).pizero[0]
    assert pz @ np.ones(4) == pytest.approx(1.0, abs=1e-13)
    assert pz @ np.array([1.0, 0.0, 1.0, 0.0]) == pytest.approx(0.5, abs=1e-13)
    # the slaved linear moments make the L2 projection onto linears,
    # which the p1 load applies, equal to the elliptic one
    pinabla = compute_pinabla(stack_polygons([poly]))[0]
    dofs = 0.2 + 0.9 * poly.vertices[:, 0] - 0.4 * poly.vertices[:, 1]
    pts, _ = quadrature(poly, 2)
    exact = 0.2 + 0.9 * pts[:, 0] - 0.4 * pts[:, 1]
    assert np.allclose(evaluate_linear(poly, pinabla @ dofs, pts), exact,
                       atol=1e-12)


def test_local_stiffness_unit_right_triangle():
    K = local_stiffness(build_polygon(UNIT_RIGHT_TRIANGLE), 0)
    expected = 0.5 * np.array([[2.0, -1.0, -1.0],
                               [-1.0, 1.0, 0.0],
                               [-1.0, 0.0, 1.0]])
    assert np.allclose(K, expected, atol=1e-14)


def test_local_stiffness_hexagon_ranks():
    poly = regular_polygon(6)
    K2 = local_stiffness(poly, 2)
    ev2 = np.linalg.eigvalsh(K2)
    assert int(np.sum(ev2 > 1e-10 * ev2[-1])) == 5
    K1 = local_stiffness(poly, 1)
    ev1 = np.linalg.eigvalsh(K1)
    assert int(np.sum(ev1 > 1e-10 * ev1[-1])) < 5


def test_local_stiffness_symmetric_psd_kernel():
    for poly in (regular_polygon(5), regular_polygon(8),
                 random_convex_polygon(10, 2)):
        from e2vem.degree import min_admissible_l

        l = min_admissible_l(poly).l
        K = local_stiffness(poly, l)
        assert np.allclose(K, K.T, atol=1e-13)
        assert np.linalg.eigvalsh(K)[0] > -1e-12
        assert np.max(np.abs(K @ np.ones(poly.n_vertices))) < 1e-12


def test_local_reaction_rank_one_psd():
    poly = regular_polygon(6)
    stiffness, _ = one_cell_matrix_and_load(poly, 0.0)
    full, _ = one_cell_matrix_and_load(poly, 0.0, kind="diffusion_reaction")
    M = full - stiffness
    assert np.linalg.matrix_rank(M, tol=1e-12) == 1
    assert np.linalg.eigvalsh(M)[0] > -1e-14
    # the reaction pairs cell means: its constant-mode entry is the area
    ones = np.ones(poly.n_vertices)
    assert ones @ M @ ones == pytest.approx(poly.area, rel=1e-13)


def test_local_load_cases():
    poly = build_polygon(UNIT_SQUARE)

    def load(f, **kwargs):
        return one_cell_matrix_and_load(poly, f, strategy="fixed:1",
                                        load_mode="mean", **kwargs)[1]

    f_one = load(lambda x, y: np.ones_like(x))
    assert np.allclose(f_one, 0.25, atol=1e-13)
    f_zero = load(lambda x, y: np.zeros_like(x))
    assert not f_zero.any()

    def f(x, y):
        return 8 * np.pi ** 2 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)

    f_mean = load(f)
    est, se = monte_carlo_integral(poly.vertices, f)
    # mean mode distributes (integral of f) by the cell-mean row
    assert f_mean.sum() == pytest.approx(est, abs=5 * se + 1e-6)


def test_project_gradient_from_data_quartic():
    poly = random_convex_polygon(8, 5)
    l = 3

    def p(x, y):
        return x ** 4 - 2.0 * x ** 2 * y ** 2 + 0.5 * y ** 3

    def grad_p(x, y):
        return 4 * x ** 3 - 4 * x * y ** 2, -4 * x ** 2 * y + 1.5 * y ** 2

    qpts, qw = quadrature(poly, 2 * l + 2)
    vm = monomials_at(poly, qpts, l - 1).T @ (p(qpts[:, 0], qpts[:, 1]) * qw)
    coeffs = project_gradient_from_data(
        poly, l, lambda pts: p(pts[:, 0], pts[:, 1]), vm)
    nl = space_dimension(l)
    pts, _ = quadrature(poly, 2 * l)
    gx, gy = grad_p(pts[:, 0], pts[:, 1])
    values = monomials_at(poly, pts, l)
    assert np.allclose(values @ coeffs[:nl], gx, atol=1e-11)
    assert np.allclose(values @ coeffs[nl:], gy, atol=1e-11)


def test_gram_condition_reported():
    # cond(L)^2 from the Cholesky factor is the Gram's own condition
    # number, up to the 20-gon's 1.25e13 at l = 9
    for poly in (regular_polygon(20), regular_polygon(6),
                 concave_octagon_polygon(0.4),
                 random_convex_polygon(12, 0)):
        s = stack_polygons([poly])
        for l in range(10):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IllConditioned)
                cond = build_projectors([poly], l).gram_condition
            nl = space_dimension(l)
            gram = moment_tables(s, max(1, l))[:, :nl, :nl]
            assert cond.shape == (1,)
            assert cond[0] == pytest.approx(np.linalg.cond(gram)[0], rel=1e-8)


def reuse_polygons():
    jitter = np.random.default_rng(2).uniform(-0.05, 0.05, (6, 2))
    return (build_polygon(regular_polygon(6).vertices + jitter),
            concave_octagon_polygon(0.4))


def kernel_arrays(poly, l):
    """The kernel's stacks for ``poly`` alone: pizero, stiffness, Gram
    condition and pinabla."""
    projs = build_projectors([poly], l)
    return [projs.pizero, projs.stiffness, projs.gram_condition,
            compute_pinabla(stack_polygons([poly]))]


@pytest.mark.parametrize("l", [0, 1, 2, 3])
def test_kernel_memoised_bitwise_and_read_only(l):
    for poly in reuse_polygons():
        first = kernel_arrays(poly, l)
        row = poly.memo[l]
        bits = [a.tobytes() for a in first]
        # reuse is valid: a new polygon on the same vertices gives the same bits
        fresh = kernel_arrays(build_polygon(poly.vertices), l)
        assert [a.tobytes() for a in fresh] == bits
        # the memo rows are computed once and are read-only
        for a in first:
            a[...] = 0.0
        assert poly.memo[l] is row
        for kept in (row.pizero, row.stiffness):
            with pytest.raises(ValueError):
                kept[...] = 0.0
        # writing into the returned stacks above left the memo as it was
        assert [a.tobytes() for a in kernel_arrays(poly, l)] == bits


def mixed_stacks():
    """Same-n stacks of triangles, 20-gons and the alpha = 0.4 concave
    octagon, each with its copies translated by 1e6."""
    triangles = [[(0.1, 0.0), (1.2, 0.3), (0.4, 1.1)],
                 [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
                 [(0.3, 0.1), (2.1, 0.4), (0.9, 1.8)]]
    twenty = [regular_polygon(20).vertices,
              random_convex_polygon(20, 3).vertices]
    octagon = [concave_octagon_polygon(0.4).vertices]
    for chains in (triangles, twenty, octagon):
        chains = [np.asarray(c, dtype=float) for c in chains]
        yield np.stack(chains + [c + 1e6 for c in chains])


def row_bits(polys, l):
    """Every array the kernel entry points and ``compressed_rules`` give
    for ``polys``, row by row, as bytes."""
    projs = build_projectors(polys, l)
    stack = stack_polygons(polys)
    pts, w = stack_quadrature(stack, 2 * l + 2)
    rules = [b"" if rule is None else rule[0].tobytes() + rule[1].tobytes()
             for rule in compressed_rules(stack)]
    arrays = [np.array([p.vertices for p in polys]),
              np.array([p.star_center for p in polys]),
              np.array([p.edge_normals for p in polys]),
              np.array([[p.area, p.diameter, p.kernel_inradius]
                        for p in polys]),
              projs.stiffness, projs.pizero, projs.gram_condition,
              compute_pinabla(stack), pts, w,
              moment_tables(stack, max(1, l)),
              np.array(stiffness_rank(polys, l))]
    return [[a[k].tobytes() for a in arrays] + [rules[k]]
            for k in range(len(polys))]


@pytest.mark.parametrize("l", [0, 1, 2, 3])
def test_stack_rows_match_stacks_of_one(l):
    for stack in mixed_stacks():
        stacked = row_bits(build_polygon(stack), l)
        alone = [row_bits([build_polygon(row)], l)[0] for row in stack]
        assert stacked == alone


@pytest.mark.parametrize("l", [0, 2])
def test_stack_permutation_permutes_rows(l):
    rng = np.random.default_rng(l)
    for stack in mixed_stacks():
        perm = rng.permutation(len(stack))
        rows = row_bits(build_polygon(stack), l)
        assert row_bits(build_polygon(stack[perm]), l) == [rows[k] for k in perm]


@pytest.mark.parametrize("l", [0, 1, 2, 3])
def test_stiffness_symmetric_and_rank_counts_its_eigenvalues(l):
    # K = C^T C is symmetric as computed, and the kernel's rank, from the
    # singular values of C, is the count of K's eigenvalues above
    # max(n, 2 dim P_l) * 64 eps times the largest
    for stack in mixed_stacks():
        projs = build_projectors(build_polygon(stack), l)
        k = projs.stiffness
        assert k.tobytes() == k.transpose(0, 2, 1).tobytes()
        ev = np.abs(np.linalg.eigvalsh(k))
        shape_dim = max(stack.shape[1], 2 * space_dimension(l))
        count = (ev > shape_dim * ev.max(axis=1, keepdims=True)
                 * 2.0 ** -52 * 64).sum(axis=1)
        assert projs.rank.tolist() == count.tolist()


def test_ill_conditioned_warns_once_per_class_and_degree():
    # the regular 20-gon certifies at l = 9, where its [P_9] Gram has
    # condition 1.25e13; a translate shares its class, a rotation does not
    twenty = regular_polygon(20).vertices
    c, s = np.cos(0.3), np.sin(0.3)
    chains = [twenty, twenty + (5.0, 0.0),
              twenty @ np.array([[c, s], [-s, c]]) + (10.0, 0.0)]
    mesh = PolygonalMesh(np.concatenate(chains),
                         [range(0, 20), range(20, 40), range(40, 60)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solution_errors(solve_problem(mesh, "minimal", sin_sin_problem()))
        classes = mesh.cell_classes
        expected = [(poly, l) for poly in classes for l in range(3, 10)
                    if build_projectors([poly], l).gram_condition[0]
                    > GRAM_CONDITION_LIMIT]
    assert len(classes) == 2
    assert {(poly, 9) for poly in classes} <= set(expected)
    assert sum(issubclass(w.category, IllConditioned) for w in caught) \
        == len(expected)


@pytest.mark.parametrize("call, match", [
    (lambda poly: build_projectors([poly], -1), "negative projection degree"),
    (lambda poly: project_gradient_from_data(poly, 1, lambda x: x[:, 0]),
     "volume_moments required for l >= 1"),
], ids=["negative_degree", "no_volume_moments"])
def test_projector_entry_points_refuse_bad_arguments(call, match):
    with pytest.raises(ValueError, match=match):
        call(regular_polygon(5))
