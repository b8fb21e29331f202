"""Per-polygon selection of the gradient-projection degree.

The solver is stabilization-free only when the local stiffness has full
rank ``n - 1`` on every cell. This module provides the closed-form search
bounds, the dimension of the boundary-blind ("bad") vector polynomials
that obstruct coercivity, and the rank-certified minimal degree together
with mesh-wide assignment strategies.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityNotReached
from .geometry import Polygon, PolygonalMesh
from .polyspace import space_dimension
from .projectors import (boundary_mean_row, boundary_vector_moments,
                         build_projectors)

_EPS = 2.0 ** -52
_RANK_SAFETY = 64.0


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


def _svd_rank(s: np.ndarray, shape_dim: int) -> int:
    """Count of the descending singular values ``s`` above
    ``shape_dim * s[0] * eps * 64``; 0 when ``s`` is empty or zero."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int((s > shape_dim * float(s[0]) * _EPS * _RANK_SAFETY).sum())


@dataclass(frozen=True, eq=False)
class BadPolySpace:
    """Vector polynomials in [P_l]^2 whose normal trace is orthogonal to
    every zero-mean piecewise-linear boundary function."""

    l: int
    dimension: int
    basis: np.ndarray  # (2 dim P_l, dimension), orthonormal columns


def dim_badpoly(poly: Polygon, l: int) -> BadPolySpace:
    """Dimension (and a basis) of the bad-polynomial space via the SVD of
    the boundary pairing matrix."""
    moments = boundary_vector_moments(poly, l)
    p0 = boundary_mean_row(poly)
    pairing = moments - np.outer(moments.sum(axis=1), p0)
    # traces phi_i - P0(phi_i) sum to zero; any n - 1 of them span
    d = pairing[:, :poly.n_vertices - 1].T
    u, s, vt = np.linalg.svd(d)
    dim_vec = 2 * space_dimension(l)
    rank = _svd_rank(s, max(max(d.shape), poly.n_vertices, dim_vec))
    basis = vt[rank:].T.copy()
    return BadPolySpace(l, dim_vec - rank, basis)


@dataclass(frozen=True)
class AdmissibilityEvidence:
    """Rank certificate for one cell class's representative polygon at
    degree ``l``."""

    l: int
    n_vertices: int
    rank: int
    ell_hat: int
    ell_check: int

    @property
    def admissible(self) -> bool:
        return self.rank == self.n_vertices - 1


def stiffness_rank(poly: Polygon, l: int) -> int:
    """Numerical rank of the local stiffness at degree ``l``, by
    :func:`_svd_rank` at shape dimension ``max(n, 2 dim P_l)``."""
    k = build_projectors(poly, l).stiffness
    s = np.linalg.svd(k, compute_uv=False)
    return _svd_rank(s, max(len(k), 2 * space_dimension(l)))


def min_admissible_l(poly: Polygon) -> AdmissibilityEvidence:
    """Smallest degree in ``[ell_check(n), ell_hat(n)]`` whose stiffness
    rank reaches ``n - 1``; raises :class:`AdmissibilityNotReached` when
    the whole range is deficient."""
    n = poly.n_vertices
    lo, hi = ell_check(n), ell_hat(n)
    last_rank = -1
    for l in range(lo, hi + 1):
        rank = stiffness_rank(poly, l)
        if rank == n - 1:
            return AdmissibilityEvidence(l, n, rank, hi, lo)
        last_rank = rank
    raise AdmissibilityNotReached(
        f"no degree in [{lo}, {hi}] reaches stiffness rank {n - 1} "
        f"(best rank {last_rank} at l={hi})",
        n_vertices=n, searched=(lo, hi))


@dataclass(frozen=True, eq=False)
class DegreeAssignment:
    """Per-cell projection degrees ``levels`` and their rank ``evidence``:
    one :class:`AdmissibilityEvidence` per cell class, in
    ``mesh.cell_classes`` order, certifying every member's degree."""

    levels: np.ndarray
    evidence: tuple
    strategy: str

    def __len__(self):
        return len(self.levels)


def parse_strategy(strategy):
    """Normalize a strategy spec: 'minimal', 'ell_hat'/'ell-hat',
    'ell_check'/'ell-check', or 'fixed:L'."""
    if isinstance(strategy, tuple) and len(strategy) == 2 and strategy[0] == "fixed":
        return "fixed", int(strategy[1])
    name = str(strategy).replace("-", "_").lower()
    if name in ("minimal", "ell_hat", "ell_check"):
        return name, None
    if name.startswith("fixed:"):
        return "fixed", int(name.split(":", 1)[1])
    raise ValueError(f"unknown degree strategy {strategy!r}")


def assign_degrees(mesh: PolygonalMesh, strategy="minimal") -> DegreeAssignment:
    """Assign a certified projection degree to every cell.

    All strategies are backed by rank evidence: the formula strategies
    compute the degree from the vertex count and then certify the
    stiffness rank, raising :class:`AdmissibilityNotReached` (with the
    cell index) when the certificate fails. Each of the mesh's cell
    classes is certified on its own representative, whose kernel
    (memoised per polygon and degree) is the one assembly scatters to
    the class members.
    """
    kind, fixed_l = parse_strategy(strategy)
    levels = np.empty(mesh.n_cells, dtype=int)
    evidence = []
    for cls in mesh.cell_classes:
        poly, ci = cls.polygon, int(cls.members[0])
        n = poly.n_vertices
        if kind == "minimal":
            try:
                ev = min_admissible_l(poly)
            except AdmissibilityNotReached as exc:
                raise AdmissibilityNotReached(
                    str(exc), cell=ci, n_vertices=n,
                    searched=exc.searched) from exc
        else:
            if kind == "ell_hat":
                l = ell_hat(n)
            elif kind == "ell_check":
                l = ell_check(n)
            else:
                l = fixed_l
            rank = stiffness_rank(poly, l)
            ev = AdmissibilityEvidence(l, n, rank, ell_hat(n), ell_check(n))
            if not ev.admissible:
                raise AdmissibilityNotReached(
                    f"strategy {strategy!r} gives l={l} but stiffness rank is "
                    f"{ev.rank} < {n - 1}", cell=ci, n_vertices=n,
                    searched=(l, l))
        levels[cls.members] = ev.l
        evidence.append(ev)
    strategy_str = f"fixed:{fixed_l}" if kind == "fixed" else kind
    return DegreeAssignment(levels, tuple(evidence), strategy_str)
