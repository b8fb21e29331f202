"""The element kernel: projectors on the vertex DOF space and the local
stiffness.

For a polygon ``E`` with ``n`` vertices the virtual functions are known
through their vertex values: traces are piecewise linear on the boundary
and the enhancement constraint slaves interior moments up to degree
``l + 1`` to the linear elliptic projection. Everything below is therefore
computable from the ``n`` vertex DOFs alone:

* ``pinabla``  (3, n): elliptic projection onto linears, fixed by the
  boundary integral mean;
* ``pigrad``   (2*dim P_l, n): L2 projection of the gradient onto [P_l]^2
  via the divergence identity, with the interior term evaluated on the
  elliptic projection;
* ``pizero``   (n,): scalar cell means.

The slaved linear moments make the L2 projection onto linears equal to
``pinabla``.

The local stiffness ``K = pigrad^T G pigrad`` (G the [P_l]^2 Gram) is the
stabilization-free bilinear form; its rank certifies coercivity.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import IllConditioned, SingularSystem
from .geometry import Polygon, cyclic_next, cyclic_prev, memoised
from .polyspace import (ScaledMonomialBasis, build_moment_table,
                        divergence_matrix, space_dimension)
from .quadrature import segment_rule

#: Gram condition number above which a warning is emitted (not fatal).
GRAM_CONDITION_LIMIT = 1e12


def boundary_mean_row(poly: Polygon) -> np.ndarray:
    """Boundary integral means of the vertex hat traces,
    ``P0(phi_i) = (|e_{i-1}| + |e_i|) / (2 |dE|)``."""
    lens = poly.edge_lengths
    return (lens + cyclic_prev(lens)) / (2.0 * poly.perimeter)


def compute_pinabla(poly: Polygon) -> np.ndarray:
    """Elliptic projector onto linears, (3, n) coefficient matrix,
    computed once per polygon and returned read-only.

    Row system: the gradient orthogonality equations against the two
    linear monomials (pure boundary integrals, since linears are
    harmonic) plus the boundary-mean constraint fixing constants.
    """
    return memoised(poly, "pinabla", _compute_pinabla)


def _compute_pinabla(poly: Polygon) -> np.ndarray:
    v = poly.vertices
    lens = poly.edge_lengths
    normals = poly.edge_normals
    h = poly.diameter
    peri = poly.perimeter
    mids = (0.5 * (v + cyclic_next(v)) - poly.star_center) / h
    g = np.zeros((3, 3))
    g[0, 0] = 1.0
    g[0, 1] = float(lens @ mids[:, 0]) / peri
    g[0, 2] = float(lens @ mids[:, 1]) / peri
    g[1, 1] = g[2, 2] = poly.area / h ** 2
    weighted = lens[:, None] * normals
    b = np.empty((3, poly.n_vertices))
    b[0] = boundary_mean_row(poly)
    b[1:] = (weighted + cyclic_prev(weighted)).T / (2.0 * h)
    try:
        pinabla = np.linalg.solve(g, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"elliptic projector system: {exc}") from exc
    pinabla.setflags(write=False)
    return pinabla


def _edge_moment_weights(poly: Polygon, l: int, edge_degree: int):
    """Edge quadrature of the gradient projection's boundary term: the
    points (n_e, n_q, 2) of a Gauss rule exact to ``edge_degree`` on each
    edge, their parameters ``t`` (n_q,) along it, and weights ``W``
    (2 dim P_l, n_e, n_q) with ``int_dE g (p_a . n) ds = sum W g(x)``
    for the [P_l]^2 monomials ``p_a`` and traces ``g`` the rule
    integrates exactly."""
    v = poly.vertices
    nxt = cyclic_next(v)
    rule = segment_rule(edge_degree)
    t = rule.nodes
    basis = ScaledMonomialBasis.from_polygon(poly, l)
    pts = v[:, None, :] + t[None, :, None] * (nxt - v)[:, None, :]
    vb = basis.evaluate(pts.reshape(-1, 2)).reshape(len(v), len(t), basis.dim)
    vb *= (poly.edge_lengths[:, None] * rule.weights)[:, :, None]
    weights = poly.edge_normals.T[:, None, :, None] * vb.transpose(2, 0, 1)
    return pts, t, weights.reshape(2 * basis.dim, len(v), len(t))


def boundary_vector_moments(poly: Polygon, l: int) -> np.ndarray:
    """Matrix of ``int_dE phi_i (p_a . n) ds`` with shape (2 dim P_l, n).

    The hat trace times a degree ``l`` monomial has degree ``l + 1``
    along each edge, so a Gauss rule of that exactness integrates it
    exactly.
    """
    _, t, weights = _edge_moment_weights(poly, l, l + 1)
    # phi_i is 1 - t on edge i and t on edge i - 1
    return weights @ (1.0 - t) + cyclic_prev((weights @ t).T).T


def _project_gradient(poly: Polygon, l: int, gram: np.ndarray,
                      boundary: np.ndarray, volume_moments):
    """L2 projection of a gradient onto [P_l]^2 by the divergence identity
    ``(grad v, p) = int_dE v (p . n) - int_E v div p``.

    ``boundary`` holds the boundary term, ``volume_moments`` the moments
    of ``v`` against the degree ``l - 1`` scalar basis and ``gram`` a
    Gram matrix whose leading block is that of [P_l]. Returns the right
    hand side, the projection coefficients and the [P_l] Gram condition
    number, which warns above ``GRAM_CONDITION_LIMIT``.
    """
    rhs = boundary
    if l > 0:
        basis = ScaledMonomialBasis.from_polygon(poly, l)
        rhs = rhs - divergence_matrix(basis) @ volume_moments
    nl = space_dimension(l)
    try:
        factor = cho_factor(gram[:nl, :nl])
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"[P_{l}]^2 Gram is not positive definite: {exc}") from exc
    cond = float(np.linalg.cond(gram[:nl, :nl]))
    if cond > GRAM_CONDITION_LIMIT:
        warnings.warn(
            f"vector Gram condition {cond:.3e} exceeds {GRAM_CONDITION_LIMIT:.0e} "
            f"(n={poly.n_vertices}, l={l})", IllConditioned, stacklevel=3)
    return rhs, np.concatenate([cho_solve(factor, rhs[:nl]),
                                cho_solve(factor, rhs[nl:])]), cond


@dataclass(frozen=True, eq=False)
class ElementProjectors:
    """Projector bundle for one polygon at gradient-projection degree
    ``l``; its arrays are read-only."""

    pigrad: np.ndarray
    pizero: np.ndarray
    stiffness: np.ndarray
    gram_condition: float


def build_projectors(poly: Polygon, l: int) -> ElementProjectors:
    """The element kernel at gradient-projection degree ``l``: the
    projectors of the vertex hats and the stabilization-free local
    stiffness (symmetric PSD, constants in its kernel).

    Computed once per polygon and degree and returned with read-only
    arrays: degree certification and assembly share it (and its
    :func:`compute_pinabla` with the error norms), and an
    :class:`IllConditioned` warning fires once per (polygon, degree)."""
    if l < 0:
        raise ValueError(f"negative projection degree {l}")
    return memoised(poly, l, _build_projectors, l)


def _build_projectors(poly: Polygon, l: int) -> ElementProjectors:
    h = build_moment_table(poly, max(1, l))
    pinabla = compute_pinabla(poly)
    # the enhancement slaves the hats' moments to their elliptic projection
    rhs, pigrad, cond = _project_gradient(
        poly, l, h, boundary_vector_moments(poly, l),
        h[:space_dimension(l - 1), :3] @ pinabla)
    # rhs = G pigrad, so this is pigrad^T G pigrad
    stiffness = rhs.T @ pigrad
    stiffness = 0.5 * (stiffness + stiffness.T)
    pizero = (h[0, :3] @ pinabla) / poly.area
    for arr in (pigrad, pizero, stiffness):
        arr.setflags(write=False)
    return ElementProjectors(pigrad, pizero, stiffness, cond)


def project_gradient_from_data(poly: Polygon, l: int, boundary_values,
                               volume_moments=None) -> np.ndarray:
    """Run the element's gradient projection on explicit data.

    ``boundary_values(points)`` supplies the trace on edge quadrature
    points (a rule exact to ``2 l + 2``); ``volume_moments`` supplies the
    moments against the degree ``l - 1`` scalar basis (required for
    ``l >= 1``). Returns the coefficient vector of the projected
    gradient in [P_l]^2.
    """
    if l > 0 and volume_moments is None:
        raise ValueError("volume_moments required for l >= 1")
    pts, _, weights = _edge_moment_weights(poly, l, 2 * l + 2)
    values = np.asarray(boundary_values(pts.reshape(-1, 2)), dtype=float)
    boundary = weights.reshape(len(weights), -1) @ values
    return _project_gradient(poly, l, build_moment_table(poly, l), boundary,
                             volume_moments)[1]
