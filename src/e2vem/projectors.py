"""The element kernel: projectors on the vertex DOF space and the local
stiffness, computed on stacks of same-n polygons.

For a polygon ``E`` with ``n`` vertices the virtual functions are known
through their vertex values: traces are piecewise linear on the boundary
and the enhancement constraint slaves interior moments up to degree
``l + 1`` to the linear elliptic projection. Everything below is therefore
computable from the ``n`` vertex DOFs alone:

* ``pinabla``  (3, n): elliptic projection onto linears, fixed by the
  boundary integral mean;
* the L2 projection of the gradient onto [P_l]^2, (2 dim P_l, n), via the
  divergence identity, with the interior term evaluated on the elliptic
  projection;
* ``pizero``   (n,): scalar cell means.

The slaved linear moments make the L2 projection onto linears equal to
``pinabla``.

The local stiffness ``K = Pi^T G Pi`` (``Pi`` the gradient projection,
``G`` the [P_l]^2 Gram) is the stabilization-free bilinear form; its rank
certifies coercivity. The [P_l] Gram is factored once, ``L L^T``: the
whitened projection ``C = L^-1 [R_x; R_y]`` gives ``K = C^T C``, whose
eigenvalues are the squared singular values of ``C``.

Every array carries a leading stack axis: one row per polygon of a
:class:`~e2vem.geometry.PolygonStack`, and (m, k, k) matrix stacks go
through one stacked ``np.linalg`` call, so a row's bits do not depend on
the rows beside it. Only the kernel rows of :func:`build_projectors` are
memoised, in each polygon's ``memo`` under the degree, computed in
stacks of at most ``geometry._STACK_ROWS`` rows: degree certification
computes each vertex count's kernels, and assembly reads the same rows.
:func:`compute_pinabla` is computed on the stack that its caller holds.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import IllConditioned, SingularSystem
from .geometry import Polygon, PolygonStack, memoised, stack_polygons
from .polyspace import (moment_tables, space_dimension, stack_monomials,
                        unit_divergence_matrix)
from .quadrature import segment_rule

#: Gram condition number above which a warning is emitted (not fatal).
GRAM_CONDITION_LIMIT = 1e12

_EPS = 2.0 ** -52
_RANK_SAFETY = 64.0


def svd_ranks(s: np.ndarray, shape_dim: int) -> np.ndarray:
    """Count of each row's descending singular values ``s`` (m, k) above
    ``shape_dim * s[0] * eps * 64``; 0 for a zero row."""
    return (s > shape_dim * s[:, :1] * _EPS * _RANK_SAFETY).sum(axis=1)


def boundary_mean_rows(s: PolygonStack) -> np.ndarray:
    """Boundary integral means of the vertex hat traces (m, n),
    ``P0(phi_i) = (|e_{i-1}| + |e_i|) / (2 |dE|)``."""
    lens = s.edge_lengths
    return (lens + np.roll(lens, 1, axis=1)) / (2.0 * lens.sum(axis=1))[:, None]


def compute_pinabla(s: PolygonStack) -> np.ndarray:
    """Elliptic projector onto linears: the (m, 3, n) coefficient matrices
    of a stack of polygons.

    Row system: the gradient orthogonality equations against the two
    linear monomials (pure boundary integrals, since linears are
    harmonic) plus the boundary-mean constraint fixing constants. It is
    triangular: the linear rows are diagonal (area / h^2) and the
    constant row adds the linears' boundary means, interpolated by p0.
    """
    h = s.diameter[:, None, None]
    grad = boundary_vector_moments(s, 0) * h / s.area[:, None, None]
    p0 = boundary_mean_rows(s)[:, None]
    means = p0 @ (s.vertices - s.star_center[:, None]) / h
    return np.concatenate([p0 - means @ grad, grad], axis=1)


def _edge_moment_weights(s: PolygonStack, l: int, edge_degree: int):
    """Edge quadrature of the gradient projection's boundary term: the
    points (m, n_e, n_q, 2) of a Gauss rule exact to ``edge_degree`` on
    each edge, their parameters ``t`` (n_q,) along it, and weights ``W``
    (m, 2 dim P_l, n_e, n_q) with ``int_dE g (p_a . n) ds = sum W g(x)``
    for the [P_l]^2 monomials ``p_a`` and traces ``g`` the rule
    integrates exactly."""
    v = s.vertices
    rule = segment_rule(edge_degree)
    t = rule.nodes
    pts = (v[:, :, None, :]
           + t[:, None] * (np.roll(v, -1, axis=1) - v)[:, :, None, :])
    vb = stack_monomials(s, pts, l)
    vb *= (s.edge_lengths[..., None] * rule.weights)[..., None]
    weights = (s.edge_normals.transpose(0, 2, 1)[:, :, None, :, None]
               * vb.transpose(0, 3, 1, 2)[:, None])
    m, n = v.shape[:2]
    return pts, t, weights.reshape(m, -1, n, len(t))


def boundary_vector_moments(s: PolygonStack, l: int) -> np.ndarray:
    """Each polygon's ``int_dE phi_i (p_a . n) ds``, shape
    (m, 2 dim P_l, n).

    The hat trace times a degree ``l`` monomial has degree ``l + 1``
    along each edge, so a Gauss rule of that exactness integrates it
    exactly.
    """
    _, t, weights = _edge_moment_weights(s, l, l + 1)
    # phi_i is 1 - t on edge i and t on edge i - 1
    return weights @ (1.0 - t) + np.roll(weights @ t, 1, axis=2)


def _forward_substitution(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``lower^-1 b`` for stacks of lower triangular matrices (..., k, k)
    and right hand sides (..., k, c), one solution row at a time."""
    x = np.empty_like(b)
    for i in range(b.shape[-2]):
        done = (lower[..., i, None, :i] @ x[..., :i, :])[..., 0, :]
        x[..., i, :] = (b[..., i, :] - done) / lower[..., i, i, None]
    return x


def _project_gradient(s: PolygonStack, l: int, gram: np.ndarray,
                      boundary: np.ndarray, volume_moments):
    """L2 projection of gradients onto [P_l]^2 by the divergence identity
    ``(grad v, p) = int_dE v (p . n) - int_E v div p``, for a stack of
    polygons and ``c`` functions ``v`` on each.

    ``boundary`` (m, 2 dim P_l, c) holds the boundary term,
    ``volume_moments`` (m, dim P_{l-1}, c) the moments of ``v`` against
    the degree ``l - 1`` scalar basis and ``gram`` (m, d, d) Gram
    matrices whose leading block is that of [P_l]. Returns the [P_l] Gram
    Cholesky factors ``L``, the whitened projection ``L^-1 [R_x; R_y]``
    (m, 2 dim P_l, c) of the right hand sides and the Gram condition
    numbers, which warn above ``GRAM_CONDITION_LIMIT``.
    """
    rhs = boundary
    if l > 0:
        div = unit_divergence_matrix(l) / s.diameter[:, None, None]
        rhs = rhs - div @ volume_moments
    nl = space_dimension(l)
    try:
        lower = np.linalg.cholesky(gram[:, :nl, :nl])
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"[P_{l}]^2 Gram is not positive definite: {exc}") from exc
    sv = np.linalg.svd(lower, compute_uv=False)
    cond = (sv[:, 0] / sv[:, -1]) ** 2
    for value in cond[cond > GRAM_CONDITION_LIMIT]:
        warnings.warn(
            f"vector Gram condition {value:.3e} exceeds {GRAM_CONDITION_LIMIT:.0e} "
            f"(n={s.vertices.shape[1]}, l={l})", IllConditioned, stacklevel=3)
    whitened = _forward_substitution(lower[:, None],
                                     rhs.reshape(len(rhs), 2, nl, -1))
    return lower, whitened.reshape(rhs.shape), cond


@dataclass(frozen=True, eq=False)
class ElementProjectors:
    """The element kernel at one gradient-projection degree: the cell-mean
    rows ``pizero`` (m, n), the local ``stiffness`` (m, n, n), the [P_l]
    Gram condition numbers (m,) and the stiffness ranks (m,) of a stack of
    polygons. Each polygon's memo holds its row, with read-only arrays."""

    pizero: np.ndarray
    stiffness: np.ndarray
    gram_condition: float
    rank: int


def build_projectors(polys, l: int) -> ElementProjectors:
    """The element kernel at gradient-projection degree ``l`` of each of a
    sequence of same-n polygons, as one stack of their memoised rows: the
    cell means of the vertex hats, the stabilization-free local stiffness
    (symmetric PSD, constants in its kernel) and its rank, by
    :func:`svd_ranks` at shape dimension ``max(n, 2 dim P_l)``. Degree
    certification and assembly share the rows, so an
    :class:`IllConditioned` warning fires once per (polygon, degree)."""
    rows = memoised(polys, l, _build_projectors, l)
    return ElementProjectors(*(np.array([getattr(r, f.name) for r in rows])
                               for f in fields(ElementProjectors)))


def stiffness_rank(polys, l: int):
    """Numerical rank of the local stiffness at degree ``l``, a tuple for
    a sequence of same-n polygons: the ``rank`` of each memoised kernel
    row, read without stacking the rows as :func:`build_projectors` does."""
    return tuple(row.rank for row in memoised(polys, l, _build_projectors, l))


def _build_projectors(polys, l: int):
    if l < 0:
        raise ValueError(f"negative projection degree {l}")
    s = stack_polygons(polys)
    h = moment_tables(s, max(1, l))
    pinabla = compute_pinabla(s)
    # the enhancement slaves the hats' moments to their elliptic projection
    _, whitened, cond = _project_gradient(
        s, l, h, boundary_vector_moments(s, l),
        h[:, :space_dimension(l - 1), :3] @ pinabla)
    # C^T C = R^T G^-1 R = pigrad^T G pigrad
    stiffness = whitened.transpose(0, 2, 1) @ whitened
    sv = np.linalg.svd(whitened, compute_uv=False)
    rank = svd_ranks(sv ** 2, max(whitened.shape[1:]))
    pizero = (h[:, :1, :3] @ pinabla)[:, 0] / s.area[:, None]
    for arr in (pizero, stiffness):
        arr.setflags(write=False)
    return list(map(ElementProjectors, pizero, stiffness, cond.tolist(),
                    rank.tolist()))


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
    s = stack_polygons((poly,))
    pts, _, weights = _edge_moment_weights(s, l, 2 * l + 2)
    values = np.asarray(boundary_values(pts.reshape(-1, 2)), dtype=float)
    boundary = weights.reshape(1, weights.shape[1], -1) @ values[:, None]
    moments = (None if volume_moments is None
               else np.asarray(volume_moments, dtype=float).reshape(1, -1, 1))
    lower, whitened, _ = _project_gradient(s, l, moment_tables(s, l),
                                           boundary, moments)
    # back substitution with L^T, lower triangular in reversed order
    w = whitened.reshape(2, -1, 1)[:, ::-1]
    return _forward_substitution(lower[0].T[::-1, ::-1], w)[:, ::-1].ravel()
