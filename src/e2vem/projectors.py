"""Element projectors on the vertex DOF space and local matrices.

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
* ``pizero``   (n,): scalar cell means;
* ``pione``    (3, n): L2 projection onto linears from slaved moments.

The local stiffness ``K = pigrad^T G pigrad`` (G the [P_l]^2 Gram) is the
stabilization-free bilinear form; its rank certifies coercivity.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import IllConditioned, SingularSystem
from .geometry import Polygon, polygon_quadrature
from .polyspace import (MomentTable, ScaledMonomialBasis, VectorMonomialBasis,
                        build_moment_table, divergence_matrix,
                        space_dimension)

#: Gram condition number above which a warning is emitted (not fatal).
GRAM_CONDITION_LIMIT = 1e12


def boundary_mean_row(poly: Polygon) -> np.ndarray:
    """Boundary integral means of the vertex hat traces,
    ``P0(phi_i) = (|e_{i-1}| + |e_i|) / (2 |dE|)``."""
    lens = poly.edge_lengths
    return (lens + np.roll(lens, 1)) / (2.0 * poly.perimeter)


def compute_pinabla(poly: Polygon) -> np.ndarray:
    """Elliptic projector onto linears, (3, n) coefficient matrix.

    Row system: the gradient orthogonality equations against the two
    linear monomials (pure boundary integrals, since linears are
    harmonic) plus the boundary-mean constraint fixing constants.
    """
    v = poly.vertices
    lens = poly.edge_lengths
    normals = poly.edge_normals
    h = poly.diameter
    peri = poly.perimeter
    mids = (0.5 * (v + np.roll(v, -1, axis=0)) - poly.star_center) / h
    g = np.zeros((3, 3))
    g[0, 0] = 1.0
    g[0, 1] = float(lens @ mids[:, 0]) / peri
    g[0, 2] = float(lens @ mids[:, 1]) / peri
    g[1, 1] = g[2, 2] = poly.area / h ** 2
    weighted = lens[:, None] * normals
    b = np.empty((3, poly.n_vertices))
    b[0] = boundary_mean_row(poly)
    b[1] = (weighted[:, 0] + np.roll(weighted[:, 0], 1)) / (2.0 * h)
    b[2] = (weighted[:, 1] + np.roll(weighted[:, 1], 1)) / (2.0 * h)
    try:
        return np.linalg.solve(g, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"elliptic projector system: {exc}") from exc


def boundary_vector_moments(poly: Polygon, l: int) -> np.ndarray:
    """Matrix of ``int_dE phi_i (p_a . n) ds`` with shape (2 dim P_l, n).

    The hat trace times a degree ``l`` monomial has degree ``l + 1``
    along each edge, so a Gauss rule of that exactness integrates it
    exactly.
    """
    from .quadrature import segment_rule

    v = poly.vertices
    nxt = np.roll(v, -1, axis=0)
    rule = segment_rule(l + 1)
    t = rule.nodes
    basis = ScaledMonomialBasis.from_polygon(poly, l)
    n_e = poly.n_vertices
    pts = v[:, None, :] + t[None, :, None] * (nxt - v)[:, None, :]
    vb = basis.evaluate(pts.reshape(-1, 2)).reshape(n_e, len(t), basis.dim)
    w0 = rule.weights * (1.0 - t)
    w1 = rule.weights * t
    b0 = poly.edge_lengths[:, None] * np.einsum("emk,m->ek", vb, w0)
    b1 = poly.edge_lengths[:, None] * np.einsum("emk,m->ek", vb, w1)
    out = np.empty((2 * basis.dim, n_e))
    for comp in range(2):
        c0 = poly.edge_normals[:, comp, None] * b0
        c1 = poly.edge_normals[:, comp, None] * b1
        out[comp * basis.dim:(comp + 1) * basis.dim] = (c0 + np.roll(c1, 1, axis=0)).T
    return out


@dataclass(frozen=True, eq=False)
class ElementProjectors:
    """Projector bundle for one polygon at gradient-projection degree ``l``."""

    polygon: Polygon
    l: int
    pinabla: np.ndarray
    pigrad: np.ndarray
    pizero: np.ndarray
    pione: np.ndarray
    stiffness: np.ndarray
    moments: MomentTable
    gram_condition: float


def _gradient_rhs_volume(poly, l, moment_rows):
    """- int_E (.) div p_a from supplied moments against P_{l-1}."""
    if l == 0:
        return 0.0
    vbasis = VectorMonomialBasis.from_polygon(poly, l)
    return divergence_matrix(vbasis) @ moment_rows


def build_projectors(poly: Polygon, l: int) -> ElementProjectors:
    if l < 0:
        raise ValueError(f"negative projection degree {l}")
    mdeg = max(1, l)
    table = build_moment_table(poly, mdeg, check_spd=False)
    h = table.matrix
    pinabla = compute_pinabla(poly)
    nl = space_dimension(l)
    nlm1 = space_dimension(l - 1)
    rhs = boundary_vector_moments(poly, l)
    if nlm1 > 0:
        rhs = rhs - _gradient_rhs_volume(poly, l, h[:nlm1, :3] @ pinabla)
    hl = h[:nl, :nl]
    try:
        factor = cho_factor(hl)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"[P_{l}]^2 Gram is not positive definite: {exc}") from exc
    pigrad = np.vstack([cho_solve(factor, rhs[:nl]),
                        cho_solve(factor, rhs[nl:])])
    cond = float(np.linalg.cond(hl))
    if cond > GRAM_CONDITION_LIMIT:
        warnings.warn(
            f"vector Gram condition {cond:.3e} exceeds {GRAM_CONDITION_LIMIT:.0e} "
            f"(n={poly.n_vertices}, l={l})", IllConditioned, stacklevel=2)
    stiffness = rhs.T @ pigrad
    stiffness = 0.5 * (stiffness + stiffness.T)
    pizero = (h[0, :3] @ pinabla) / poly.area
    pione = np.linalg.solve(h[:3, :3], h[:3, :3] @ pinabla)
    return ElementProjectors(poly, l, pinabla, pigrad, pizero, pione,
                             stiffness, table, cond)


def compute_pizero(poly: Polygon, pinabla=None) -> np.ndarray:
    """Cell means of the vertex hat functions (slaved to ``pinabla``)."""
    if pinabla is None:
        pinabla = compute_pinabla(poly)
    table = build_moment_table(poly, 1, check_spd=False)
    return (table.matrix[0] @ pinabla) / poly.area


def compute_pione(poly: Polygon, pinabla=None) -> np.ndarray:
    """L2 projection onto linears of the virtual hats, from slaved moments."""
    if pinabla is None:
        pinabla = compute_pinabla(poly)
    h1 = build_moment_table(poly, 1, check_spd=False).matrix
    return np.linalg.solve(h1, h1 @ pinabla)


def project_gradient_from_data(poly: Polygon, l: int, boundary_values,
                               volume_moments=None, edge_degree=None) -> np.ndarray:
    """Run the gradient-projection pipeline on explicit data.

    ``boundary_values(points)`` supplies the trace on edge quadrature
    points; ``volume_moments`` supplies the moments against the degree
    ``l - 1`` scalar basis (required for ``l >= 1``). Returns the
    coefficient vector of the projected gradient in [P_l]^2.
    """
    from .quadrature import segment_rule

    if edge_degree is None:
        edge_degree = 2 * l + 2
    basis = ScaledMonomialBasis.from_polygon(poly, l)
    rule = segment_rule(edge_degree)
    v = poly.vertices
    nxt = np.roll(v, -1, axis=0)
    t = rule.nodes
    pts = (v[:, None, :] + t[None, :, None] * (nxt - v)[:, None, :]).reshape(-1, 2)
    vals = np.asarray(boundary_values(pts), dtype=float).reshape(poly.n_vertices, len(t))
    vb = basis.evaluate(pts).reshape(poly.n_vertices, len(t), basis.dim)
    per_edge = np.einsum("emk,m,em->ek", vb, rule.weights, vals)
    per_edge *= poly.edge_lengths[:, None]
    rhs = np.concatenate([poly.edge_normals[:, 0] @ per_edge,
                          poly.edge_normals[:, 1] @ per_edge])
    nlm1 = space_dimension(l - 1)
    if nlm1 > 0:
        if volume_moments is None:
            raise ValueError("volume_moments required for l >= 1")
        rhs = rhs - _gradient_rhs_volume(poly, l, np.asarray(volume_moments, float))
    table = build_moment_table(poly, max(1, l), check_spd=False)
    nl = space_dimension(l)
    factor = cho_factor(table.matrix[:nl, :nl])
    return np.concatenate([cho_solve(factor, rhs[:nl]),
                           cho_solve(factor, rhs[nl:])])


def local_stiffness(poly: Polygon, l: int) -> np.ndarray:
    """Stabilization-free local stiffness matrix (n, n), symmetric PSD
    with the constant DOF vector in its kernel."""
    return build_projectors(poly, l).stiffness


def local_reaction(poly: Polygon, pizero: np.ndarray) -> np.ndarray:
    """Reaction matrix ``(pizero_i, pizero_j)_E``: rank <= 1, PSD."""
    return poly.area * np.outer(pizero, pizero)


def local_load(poly: Polygon, projectors: ElementProjectors, f,
               mode: str = "mean", quadrature_degree=None) -> np.ndarray:
    """Load vector ``(f, Pi phi_i)_E`` with ``Pi`` the mean or the linear
    L2 projection; quadrature default is exact to ``2 (l + 1) + 2``."""
    if mode not in ("mean", "p1"):
        raise ValueError(f"unknown load mode {mode!r}")
    if quadrature_degree is None:
        quadrature_degree = 2 * (projectors.l + 1) + 2
    pts, w = polygon_quadrature(poly, quadrature_degree)
    fv = np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float)
    if mode == "mean":
        return float(w @ fv) * projectors.pizero
    basis1 = ScaledMonomialBasis.from_polygon(poly, 1)
    moments = basis1.evaluate(pts).T @ (w * fv)
    return projectors.pione.T @ moments
