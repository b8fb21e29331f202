import math
import warnings

import numpy as np
import pytest
import sympy as sp

from e2vem.errors import IllConditioned
from e2vem.geometry import build_polygon
from e2vem.meshgen import PolygonFamilySpec, make_polygon, regular_polygon
from e2vem.polyspace import (
    ScaledMonomialBasis,
    build_moment_table,
    divergence_matrix,
    exponent_index,
    gradient_coefficients,
    monomial_exponents,
    space_dimension,
)

from oracles import exact_scaled_moment, monte_carlo_integral

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def test_space_dimension():
    assert [space_dimension(k) for k in range(-1, 5)] == [0, 1, 3, 6, 10, 15]


def test_monomial_exponents_order():
    exps = monomial_exponents(2)
    assert exps.tolist() == [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]
    for a, (p, q) in enumerate(exps):
        assert exponent_index(p, q) == a


def test_moment_table_unit_square_k0():
    poly = build_polygon(UNIT_SQUARE)
    table = build_moment_table(poly, 0)
    assert table.shape == (1, 1)
    assert table[0, 0] == pytest.approx(1.0, rel=1e-14)


def test_moment_table_centered_square_exact():
    poly = build_polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    table = build_moment_table(poly, 1)
    idx = exponent_index(1, 0)
    # int of m_(1,0)^2 = (4/3) / h^2 with h = 2 sqrt(2)
    assert table[idx, idx] == pytest.approx(1.0 / 6.0, rel=1e-14)


@pytest.mark.parametrize("n,seed", [(5, 0), (8, 3)])
def test_moment_table_matches_symbolic(n, seed):
    poly = make_polygon(PolygonFamilySpec("random_convex", n=n, seed=seed))
    basis = ScaledMonomialBasis.from_polygon(poly, 2)
    table = build_moment_table(poly, 2)
    exps = monomial_exponents(2)
    for a in range(3):
        for b in range(a, 6):
            p = exps[a] + exps[b]
            exact = float(exact_scaled_moment(poly.vertices, int(p[0]), int(p[1]),
                                              basis.center, basis.scale))
            assert table[a, b] == pytest.approx(exact, rel=1e-12, abs=1e-15)


def test_moment_table_matches_monte_carlo():
    poly = make_polygon(PolygonFamilySpec("random_convex", n=7, seed=1))
    basis = ScaledMonomialBasis.from_polygon(poly, 1)
    table = build_moment_table(poly, 1)
    cx, cy = basis.center
    h = basis.scale
    est, se = monte_carlo_integral(
        poly.vertices, lambda x, y: ((x - cx) / h) * ((y - cy) / h))
    idx, jdx = exponent_index(1, 0), exponent_index(0, 1)
    assert abs(table[idx, jdx] - est) < 5 * se + 1e-6


@pytest.mark.parametrize("k", [1, 3, 5, 8])
def test_moment_tables_spd(k):
    polys = [regular_polygon(3), regular_polygon(6),
             make_polygon(PolygonFamilySpec("random_convex", n=9, seed=4)),
             make_polygon(PolygonFamilySpec("concave_octagon", n=8, alpha=0.4))]
    for poly in polys:
        table = build_moment_table(poly, k)
        eigs = np.linalg.eigvalsh(table)
        assert eigs[0] > 0


def test_gradient_coefficients():
    poly = build_polygon(UNIT_SQUARE)
    basis = ScaledMonomialBasis.from_polygon(poly, 2)
    h = basis.scale
    gx, gy = gradient_coefficients(basis, 0)
    assert not gx.any() and not gy.any()
    gx, gy = gradient_coefficients(basis, exponent_index(1, 0))
    assert gx[0] == pytest.approx(1.0 / h) and not gy.any()
    gx, gy = gradient_coefficients(basis, exponent_index(1, 1))
    assert gx[exponent_index(0, 1)] == pytest.approx(1.0 / h)
    assert gy[exponent_index(1, 0)] == pytest.approx(1.0 / h)


def test_divergence_coefficients():
    poly = build_polygon(UNIT_SQUARE)
    basis2 = ScaledMonomialBasis.from_polygon(poly, 2)
    div = divergence_matrix(basis2)
    h = basis2.scale
    nl = space_dimension(2)
    assert div.shape == (2 * nl, space_dimension(1))
    # (m_0, 0) is divergence-free
    assert not div[0].any()
    # div (m_(1,0), 0) = m_0 / h
    d = div[exponent_index(1, 0)]
    assert d[0] == pytest.approx(1.0 / h) and not d[1:].any()
    # div (m_(1,1), m_(2,0)) = m_(0,1)/h, checked against finite differences
    coef = np.zeros(2 * nl)
    coef[exponent_index(1, 1)] = 1.0
    coef[nl + exponent_index(2, 0)] = 1.0
    div_c = div.T @ coef
    basis1 = ScaledMonomialBasis.from_polygon(poly, 1)
    rng = np.random.default_rng(7)
    pts = rng.random((20, 2))
    eps = 1e-6

    def field(p):
        vals = basis2.evaluate(p)
        return vals[:, exponent_index(1, 1)], vals[:, exponent_index(2, 0)]

    fx_p, _ = field(pts + [eps, 0.0])
    fx_m, _ = field(pts - [eps, 0.0])
    _, fy_p = field(pts + [0.0, eps])
    _, fy_m = field(pts - [0.0, eps])
    fd = (fx_p - fx_m) / (2 * eps) + (fy_p - fy_m) / (2 * eps)
    assert np.allclose(basis1.evaluate(pts) @ div_c, fd, atol=1e-8)


def test_ill_conditioned_warning_on_extreme_degree():
    from e2vem.projectors import build_projectors

    poly = regular_polygon(20)
    with pytest.warns(IllConditioned):
        build_projectors(poly, 9)
