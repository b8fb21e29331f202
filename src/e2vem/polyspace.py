"""Scaled monomial bases on polygons and their moment matrices.

A basis of degree ``k`` consists of ``m_a(x) = ((x - x_C) / h_E)**a`` for
all multi-indices ``a`` with ``|a| <= k``, ordered by total degree and then
by decreasing first exponent: ``1, x, y, x^2, xy, y^2, ...``. The ordering
of any degree ``k`` basis is a prefix of every higher-degree ordering.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .geometry import Polygon, PolygonStack, stack_polygons, stack_quadrature


def space_dimension(k: int) -> int:
    """dim P_k in two variables; 0 for negative ``k``."""
    return (k + 1) * (k + 2) // 2 if k >= 0 else 0


@lru_cache(maxsize=None)
def monomial_exponents(k: int) -> np.ndarray:
    exps = np.array([(d - j, j) for d in range(k + 1) for j in range(d + 1)],
                    dtype=int).reshape(-1, 2)
    exps.setflags(write=False)
    return exps


def exponent_index(p: int, q: int) -> int:
    d = p + q
    return d * (d + 1) // 2 + q


class ScaledMonomialBasis:
    """Monomials of the local coordinates ``(x - center) / scale``."""

    __slots__ = ("center", "scale", "degree", "exponents", "dim")

    def __init__(self, center, scale, degree):
        self.center = np.asarray(center, dtype=float)
        self.scale = float(scale)
        self.degree = int(degree)
        self.exponents = monomial_exponents(self.degree)
        self.dim = len(self.exponents)

    @classmethod
    def from_polygon(cls, poly: Polygon, degree: int):
        return cls(poly.star_center, poly.diameter, degree)

    def evaluate(self, points) -> np.ndarray:
        """Vandermonde matrix of shape (n_points, dim)."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        return monomials((pts - self.center) / self.scale, self.degree)


def monomials(local, degree: int) -> np.ndarray:
    """The degree ``degree`` monomials of local coordinates ``local``
    (..., 2), in basis order: shape (..., dim P_degree)."""
    x, y = local[..., 0], local[..., 1]
    xs, ys = [np.ones_like(x)], [np.ones_like(y)]
    for _ in range(degree):
        xs.append(xs[-1] * x)
        ys.append(ys[-1] * y)
    exps = monomial_exponents(degree)
    out = np.empty(local.shape[:-1] + (len(exps),))
    for a, (p, q) in enumerate(exps.tolist()):
        out[..., a] = xs[p] * ys[q]
    return out


def stack_monomials(s: PolygonStack, points, degree: int) -> np.ndarray:
    """Each polygon's scaled monomials at its points ``points`` (m, ..., 2):
    shape (m, ..., dim P_degree)."""
    shape = (len(s.diameter),) + (1,) * (points.ndim - 1)
    center = s.star_center.reshape(shape[:-1] + (2,))
    return monomials((points - center) / s.diameter.reshape(shape), degree)


def gradient_coefficients(basis: ScaledMonomialBasis, a: int):
    """Coefficients of ``grad m_a`` in the degree ``k-1`` basis.

    Returns a pair of vectors of length ``dim P_{k-1}`` (empty for a
    degree-0 basis, where the gradient of the only monomial vanishes).
    """
    p, q = basis.exponents[a]
    dim_lower = space_dimension(basis.degree - 1)
    gx = np.zeros(dim_lower)
    gy = np.zeros(dim_lower)
    if p > 0:
        gx[exponent_index(p - 1, q)] = p / basis.scale
    if q > 0:
        gy[exponent_index(p, q - 1)] = q / basis.scale
    return gx, gy


def divergence_matrix(basis: ScaledMonomialBasis) -> np.ndarray:
    """Coefficients of ``div p_a`` in the degree ``k-1`` basis for every
    [P_k]^2 monomial ``p_a`` of the degree ``k`` scalar ``basis``: all
    ``(m_a, 0)`` followed by all ``(0, m_a)``; shape
    ``(2 dim P_k, dim P_{k-1})``."""
    grads = np.array([gradient_coefficients(basis, a) for a in range(basis.dim)])
    return np.concatenate([grads[:, 0], grads[:, 1]])


@lru_cache(maxsize=None)
def unit_divergence_matrix(k: int) -> np.ndarray:
    """:func:`divergence_matrix` of a degree ``k`` basis of unit scale;
    divided by a polygon's diameter, that polygon's matrix."""
    div = divergence_matrix(ScaledMonomialBasis((0.0, 0.0), 1.0, k))
    div.setflags(write=False)
    return div


def moment_tables(s: PolygonStack, degree: int) -> np.ndarray:
    """Gram matrices ``H[a, b] = (m_a, m_b)_E`` (m, dim, dim) of each
    polygon's degree ``degree`` scaled monomials, via sub-triangulation
    quadrature exact to ``2*degree``."""
    pts, w = stack_quadrature(s, 2 * degree)
    v = stack_monomials(s, pts, degree)
    h = (v * w[..., None]).transpose(0, 2, 1) @ v
    return 0.5 * (h + h.transpose(0, 2, 1))


def build_moment_table(poly: Polygon, degree: int) -> np.ndarray:
    """Read-only Gram matrix of the degree ``degree`` scaled monomial basis
    of ``poly``: :func:`moment_tables` on a stack of one."""
    h = moment_tables(stack_polygons((poly,)), degree)[0]
    h.setflags(write=False)
    return h
