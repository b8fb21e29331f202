"""Scaled monomial bases on polygons and their moment matrices.

A basis of degree ``k`` consists of ``m_a(x) = ((x - x_C) / h_E)**a`` for
all multi-indices ``a`` with ``|a| <= k``, ordered by total degree and then
by decreasing first exponent: ``1, x, y, x^2, xy, y^2, ...``. The ordering
of any degree ``k`` basis is a prefix of every higher-degree ordering.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .geometry import PolygonStack, stack_quadrature


def space_dimension(k: int) -> int:
    """dim P_k in two variables; 0 for negative ``k``."""
    return (k + 1) * (k + 2) // 2 if k >= 0 else 0


@lru_cache(maxsize=None)
def monomial_exponents(k: int) -> np.ndarray:
    exps = np.array([(d - j, j) for d in range(k + 1) for j in range(d + 1)],
                    dtype=int).reshape(-1, 2)
    exps.setflags(write=False)
    return exps


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


@lru_cache(maxsize=None)
def unit_divergence_matrix(k: int) -> np.ndarray:
    """Coefficients of ``div p_a`` in the degree ``k - 1`` basis for every
    [P_k]^2 monomial ``p_a`` of unit scale: all ``(m_a, 0)`` followed by
    all ``(0, m_a)``; shape ``(2 dim P_k, dim P_{k-1})``. Divided by a
    polygon's diameter, that polygon's matrix."""
    exps, lower = monomial_exponents(k), monomial_exponents(k - 1)
    # d/dx of x^p y^q is p x^(p-1) y^q, d/dy is q x^p y^(q-1)
    div = np.concatenate([
        exps[:, c, None] * (exps[:, None] - step == lower).all(-1)
        for c, step in enumerate(np.eye(2, dtype=int))]).astype(float)
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
