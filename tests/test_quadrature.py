import numpy as np
import pytest

from e2vem.errors import UnsupportedDegree
from e2vem.geometry import build_polygon, stack_polygons, stack_quadrature
from e2vem.quadrature import segment_rule, triangle_rule


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
