"""Per-polygon selection of the gradient-projection degree.

The solver is stabilization-free only when the local stiffness has full
rank ``n - 1`` on every cell. This module provides the closed-form search
bounds, the dimension of the boundary-blind ("bad") vector polynomials
that obstruct coercivity, and the rank-certified minimal degree together
with mesh-wide assignment strategies.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AdmissibilityNotReached
from .geometry import Polygon, PolygonalMesh, class_groups, stack_polygons
from .polyspace import space_dimension
from .projectors import (boundary_mean_rows, boundary_vector_moments,
                         stiffness_rank, svd_ranks)


def ell_hat(n: int) -> int:
    """Smallest ``l`` with ``2 (l + 1) >= n - 1`` (sufficient for any
    admissible polygon with ``n`` vertices)."""
    if n < 3:
        raise ValueError(f"a polygon has at least 3 vertices, got {n}")
    l = 0
    while 2 * (l + 1) < n - 1:
        l += 1
    return l


def ell_check(n: int) -> int:
    """Smallest ``l`` with ``dim [P_l]^2 >= n - 1`` (necessary count)."""
    if n < 3:
        raise ValueError(f"a polygon has at least 3 vertices, got {n}")
    l = 0
    while (l + 1) * (l + 2) < n - 1:
        l += 1
    return l


def dim_badpoly(poly: Polygon, l: int) -> int:
    """Dimension of the bad-polynomial space: the vector polynomials in
    [P_l]^2 whose normal trace is orthogonal to every zero-mean
    piecewise-linear boundary function, from the SVD of the boundary
    pairing matrix."""
    s = stack_polygons((poly,))
    moments = boundary_vector_moments(s, l)[0]
    p0 = boundary_mean_rows(s)[0]
    pairing = moments - np.outer(moments.sum(axis=1), p0)
    # traces phi_i - P0(phi_i) sum to zero; any n - 1 of them span
    d = pairing[:, :poly.n_vertices - 1].T
    sv = np.linalg.svd(d, compute_uv=False)
    dim_vec = 2 * space_dimension(l)
    rank = svd_ranks(sv[None], max(max(d.shape), poly.n_vertices, dim_vec))
    return dim_vec - int(rank[0])


@dataclass(frozen=True)
class AdmissibilityEvidence:
    """Rank certificate for one cell class's representative polygon at
    degree ``l``."""

    l: int
    n_vertices: int
    rank: int

    @property
    def admissible(self) -> bool:
        return self.rank == self.n_vertices - 1


@lru_cache(maxsize=None)
def _evidence(l: int, n: int, rank: int) -> AdmissibilityEvidence:
    """One shared, immutable certificate per distinct value."""
    return AdmissibilityEvidence(l, n, rank)


def _certify(poly: Polygon, lo: int, hi: int) -> AdmissibilityEvidence:
    """Evidence for the smallest degree in ``[lo, hi]`` whose stiffness
    rank reaches ``n - 1``: the one search behind every strategy."""
    n = poly.n_vertices
    for l in range(lo, hi + 1):
        rank = stiffness_rank((poly,), l)[0]
        if rank == n - 1:
            return _evidence(l, n, rank)
    raise AdmissibilityNotReached(
        f"no degree in [{lo}, {hi}] reaches stiffness rank {n - 1} "
        f"(best rank {rank} at l={hi})", n_vertices=n, searched=(lo, hi))


def min_admissible_l(poly: Polygon) -> AdmissibilityEvidence:
    """Evidence for the smallest degree in ``[ell_check(n), ell_hat(n)]``
    with stiffness rank ``n - 1``; raises :class:`AdmissibilityNotReached`
    when the whole range is deficient."""
    n = poly.n_vertices
    return _certify(poly, ell_check(n), ell_hat(n))


@dataclass(frozen=True, eq=False)
class DegreeAssignment:
    """Per-cell projection degrees ``levels`` (int8) and their rank
    ``evidence``: one :class:`AdmissibilityEvidence` per cell class, in
    ``mesh.cell_classes`` order, certifying every member's degree."""

    levels: np.ndarray
    evidence: tuple

    def __len__(self):
        return len(self.levels)


def parse_strategy(strategy):
    """Normalize a strategy spec: 'minimal', 'ell_hat'/'ell-hat',
    'ell_check'/'ell-check', or 'fixed:L'."""
    name = str(strategy).replace("-", "_").lower()
    if name in ("minimal", "ell_hat", "ell_check"):
        return name, None
    if name.startswith("fixed:"):
        return "fixed", int(name.split(":", 1)[1])
    raise ValueError(f"unknown degree strategy {strategy!r}")


def assign_degrees(mesh: PolygonalMesh, strategy="minimal") -> DegreeAssignment:
    """Assign a certified projection degree to every cell.

    Every strategy certifies each of the mesh's cell classes on its own
    representative: ``minimal`` searches ``[ell_check(n), ell_hat(n)]``,
    the formula strategies certify the one degree they give. Assembly
    scatters that representative's kernel (memoised per polygon and
    degree) to the class members. A class with no certified degree
    raises :class:`AdmissibilityNotReached` naming its first cell.
    """
    kind, fixed_l = parse_strategy(strategy)
    formula = {"ell_hat": ell_hat, "ell_check": ell_check,
               "fixed": lambda n: fixed_l}.get(kind)
    polys = mesh.cell_classes
    # rank the representatives of each vertex count in stacks per
    # degree, from the bottom of the range; only rows still deficient go
    # on to the next degree
    for n, _, rows in class_groups(polys):
        lo, hi = ((ell_check(n), ell_hat(n)) if formula is None
                  else (formula(n),) * 2)
        for l in range(lo, hi + 1):
            ranks = np.array(stiffness_rank([polys[k] for k in rows], l))
            rows = rows[ranks != n - 1]
            if not len(rows):
                break
    # the certificates, one per class, read the memoised ranks
    evidence = []
    for k, poly in enumerate(polys):
        try:
            if formula is None:
                ev = min_admissible_l(poly)
            else:
                l = formula(poly.n_vertices)
                ev = _certify(poly, l, l)
        except AdmissibilityNotReached as exc:
            raise AdmissibilityNotReached(
                str(exc), cell=int(np.argmax(mesh.cell_class == k)),
                n_vertices=exc.n_vertices, searched=exc.searched) from exc
        evidence.append(ev)
    # int8: a certificate builds moment tables exact to 2 l, and
    # quadrature.MAX_DEGREE = 30 refuses more, so no degree exceeds 15; a
    # kept assignment then holds a byte per cell, not eight
    levels = np.array([ev.l for ev in evidence], dtype=np.int8)[mesh.cell_class]
    return DegreeAssignment(levels, tuple(evidence))
