import numpy as np
import pytest

from e2vem.errors import UnsupportedDegree
from e2vem.geometry import build_polygon, stack_polygons, stack_quadrature
from e2vem.quadrature import (MAX_DEGREE, _gauss_jacobi, _node_count,
                              segment_rule, triangle_rule)


@pytest.mark.parametrize("n", range(1, _node_count(MAX_DEGREE) + 1))
def test_gauss_jacobi_matches_scipy(n):
    # the Golub-Welsch rule against scipy's, relative to the largest node
    # and weight: scipy's own smallest weights miss the exact ones by up
    # to 1.7e-13 of themselves at n = 16
    from scipy.special import roots_jacobi

    x, w = _gauss_jacobi(n)
    want_x, want_w = roots_jacobi(n, 1, 0)
    assert np.abs(x - want_x).max() <= 1e-13 * np.abs(want_x).max()
    assert np.abs(w - want_w).max() <= 1e-13 * want_w.max()


@pytest.mark.parametrize("degree", range(9))
def test_segment_rule_exactness(degree):
    rule = segment_rule(degree)
    assert np.all(rule.weights > 0)
    assert rule.weights.sum() == pytest.approx(1.0, rel=1e-14)
    for p in range(degree + 1):
        got = float(rule.weights @ rule.nodes ** p)
        assert got == pytest.approx(1.0 / (p + 1), rel=1e-13), p


@pytest.mark.parametrize("degree", range(9))
def test_triangle_rule_exactness(degree):
    rule = triangle_rule(degree)
    assert np.all(rule.weights > 0)
    # reference triangle (0,0),(1,0),(0,1); exact value of x^p y^q is
    # p! q! / (p+q+2)!
    from math import factorial

    for p in range(degree + 1):
        for q in range(degree + 1 - p):
            exact = factorial(p) * factorial(q) / factorial(p + q + 2)
            got = float(rule.weights @ (rule.nodes[:, 0] ** p * rule.nodes[:, 1] ** q))
            assert got == pytest.approx(exact, rel=1e-12), (p, q)


def test_polygon_quadrature_exact_on_cell_polynomials():
    poly = build_polygon([(0.2, -0.1), (1.3, 0.2), (1.1, 1.4), (-0.2, 0.9)])
    s = stack_polygons([poly])
    (pts,), (w,) = stack_quadrature(s, 6)
    assert w.sum() == pytest.approx(poly.area, rel=1e-13)
    # x^3 y^3 over the quad, cross-checked by a much higher-order rule
    (hi_pts,), (hi_w,) = stack_quadrature(s, 14)
    f = lambda x, y: x ** 3 * y ** 3
    assert float(f(pts[:, 0], pts[:, 1]) @ w) == pytest.approx(
        float(f(hi_pts[:, 0], hi_pts[:, 1]) @ hi_w), rel=1e-13)


def test_unsupported_degree():
    with pytest.raises(UnsupportedDegree):
        segment_rule(-1)


def test_degree_above_the_generated_rules_refused():
    with pytest.raises(UnsupportedDegree, match="exceeds the generated"):
        triangle_rule(MAX_DEGREE + 1)
