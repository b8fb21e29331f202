import math
import warnings

import numpy as np
import pytest
import sympy as sp

from e2vem.errors import IllConditioned
from e2vem.geometry import build_polygon, stack_polygons
from e2vem.meshgen import PolygonFamilySpec, make_polygon, regular_polygon
from e2vem.polyspace import (
    moment_tables,
    monomial_exponents,
    space_dimension,
    stack_monomials,
    unit_divergence_matrix,
)
from e2vem.projectors import build_projectors

from oracles import exact_scaled_moment, monte_carlo_integral

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def test_space_dimension():
    assert [space_dimension(k) for k in range(-1, 5)] == [0, 1, 3, 6, 10, 15]


def test_monomial_exponents_order():
    exps = monomial_exponents(2)
    assert exps.tolist() == [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]
    # every lower degree's ordering is a prefix
    for k in range(6):
        assert (monomial_exponents(k).tolist()
                == monomial_exponents(6)[:space_dimension(k)].tolist())


def moment_table(poly, degree):
    """The Gram matrix of one polygon's scaled monomials."""
    return moment_tables(stack_polygons([poly]), degree)[0]


def test_moment_table_unit_square_k0():
    poly = build_polygon(UNIT_SQUARE)
    table = moment_table(poly, 0)
    assert table.shape == (1, 1)
    assert table[0, 0] == pytest.approx(1.0, rel=1e-14)


def test_moment_table_centered_square_exact():
    poly = build_polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    table = moment_table(poly, 1)
    idx = 1  # m_(1,0)
    # int of m_(1,0)^2 = (4/3) / h^2 with h = 2 sqrt(2)
    assert table[idx, idx] == pytest.approx(1.0 / 6.0, rel=1e-14)


@pytest.mark.parametrize("n,seed", [(5, 0), (8, 3)])
def test_moment_table_matches_symbolic(n, seed):
    poly = make_polygon(PolygonFamilySpec("random_convex", n=n, seed=seed))
    table = moment_table(poly, 2)
    exps = monomial_exponents(2)
    for a in range(3):
        for b in range(a, 6):
            p = exps[a] + exps[b]
            exact = float(exact_scaled_moment(poly.vertices, int(p[0]), int(p[1]),
                                              poly.star_center, poly.diameter))
            assert table[a, b] == pytest.approx(exact, rel=1e-12, abs=1e-15)


def test_moment_table_matches_monte_carlo():
    poly = make_polygon(PolygonFamilySpec("random_convex", n=7, seed=1))
    table = moment_table(poly, 1)
    cx, cy = poly.star_center
    h = poly.diameter
    est, se = monte_carlo_integral(
        poly.vertices, lambda x, y: ((x - cx) / h) * ((y - cy) / h))
    # m_(1,0) m_(0,1)
    assert abs(table[1, 2] - est) < 5 * se + 1e-6


@pytest.mark.parametrize("k", [1, 3, 5, 8])
def test_moment_tables_spd(k):
    polys = [regular_polygon(3), regular_polygon(6),
             make_polygon(PolygonFamilySpec("random_convex", n=9, seed=4)),
             make_polygon(PolygonFamilySpec("concave_octagon", n=8, alpha=0.4))]
    for poly in polys:
        table = moment_table(poly, k)
        eigs = np.linalg.eigvalsh(table)
        assert eigs[0] > 0


def test_unit_divergence_matrix_matches_sympy():
    x, y = sp.symbols("x y")
    for k in range(7):
        div = unit_divergence_matrix(k)
        lower = monomial_exponents(k - 1)
        assert div.shape == (2 * space_dimension(k), len(lower))
        assert not div.flags.writeable
        # rows: div (m_a, 0) = d m_a / dx for every a, then div (0, m_a)
        expected = [
            [sp.Poly(sp.diff(x ** p * y ** q, var), x, y)
             .coeff_monomial(x ** i * y ** j) for i, j in lower.tolist()]
            for var in (x, y) for p, q in monomial_exponents(k).tolist()]
        assert np.array_equal(div, np.array(expected, dtype=float)
                              .reshape(div.shape)), k


def gradient_rows(poly, k, a):
    """The gradient of ``poly``'s scaled monomial ``m_a`` in its degree
    ``k - 1`` basis: the rows of ``(m_a, 0)`` and ``(0, m_a)`` in the
    polygon's divergence matrix."""
    div = unit_divergence_matrix(k) / poly.diameter
    return div[a], div[space_dimension(k) + a]


def test_gradient_coefficients():
    poly = build_polygon(UNIT_SQUARE)
    h = poly.diameter
    gx, gy = gradient_rows(poly, 2, 0)
    assert not gx.any() and not gy.any()
    gx, gy = gradient_rows(poly, 2, 1)  # m_(1,0)
    assert gx[0] == pytest.approx(1.0 / h) and not gx[1:].any()
    assert not gy.any()
    gx, gy = gradient_rows(poly, 2, 4)  # m_(1,1)
    assert gx[2] == pytest.approx(1.0 / h)  # m_(0,1)
    assert gy[1] == pytest.approx(1.0 / h)  # m_(1,0)
    assert np.count_nonzero(gx) == 1 and np.count_nonzero(gy) == 1


def test_divergence_coefficients():
    poly = build_polygon(UNIT_SQUARE)
    s = stack_polygons([poly])
    div = unit_divergence_matrix(2) / poly.diameter
    h = poly.diameter
    nl = space_dimension(2)
    assert div.shape == (2 * nl, space_dimension(1))
    # (m_0, 0) is divergence-free
    assert not div[0].any()
    # div (m_(1,0), 0) = m_0 / h
    d = div[1]
    assert d[0] == pytest.approx(1.0 / h) and not d[1:].any()
    # div (m_(1,1), m_(2,0)) = m_(0,1)/h, checked against finite differences
    coef = np.zeros(2 * nl)
    coef[4] = 1.0  # m_(1,1) in x
    coef[nl + 3] = 1.0  # m_(2,0) in y
    div_c = div.T @ coef
    assert div_c == pytest.approx([0.0, 0.0, 1.0 / h])
    rng = np.random.default_rng(7)
    pts = rng.random((1, 20, 2))
    eps = 1e-6

    def field(p):
        vals = stack_monomials(s, p, 2)[0]
        return vals[:, 4], vals[:, 3]

    fx_p, _ = field(pts + [eps, 0.0])
    fx_m, _ = field(pts - [eps, 0.0])
    _, fy_p = field(pts + [0.0, eps])
    _, fy_m = field(pts - [0.0, eps])
    fd = (fx_p - fx_m) / (2 * eps) + (fy_p - fy_m) / (2 * eps)
    assert np.allclose(stack_monomials(s, pts, 1)[0] @ div_c, fd, atol=1e-8)


def test_ill_conditioned_warning_on_extreme_degree():
    with pytest.warns(IllConditioned):
        build_projectors([regular_polygon(20)], 9)
