"""Polygons, polygonal meshes, quadrature over cells, and
validation of the mesh assumptions (star-shapedness, edge lengths,
conforming tessellation).

Polygons are simple counter-clockwise vertex chains. Every polygon carries
a star center: the area centroid when it lies strictly inside the kernel,
otherwise the Chebyshev center of the kernel obtained from the half-plane
intersection linear program.
"""
from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain

import numpy as np
from scipy.optimize import linprog

from .errors import (ClockwiseOrientation, NotSimple, NotStarShaped,
                     StructuralDefect)
from .quadrature import triangle_rule


@dataclass(frozen=True, eq=False)
class Polygon:
    """Simple CCW polygon, star-shaped with respect to ``star_center``.

    Attributes
    ----------
    vertices : (n, 2) array
        Counter-clockwise vertex coordinates.
    area, diameter : float
        Enclosed area and largest vertex-to-vertex distance ``h_E``.
    star_center : (2,) array
        Point strictly inside the kernel used for fan sub-triangulation
        and as the scaled-monomial center ``x_C``.
    edge_lengths : (n,) array
        ``edge_lengths[i]`` is the length of edge ``(v_i, v_{i+1})``.
    edge_normals : (n, 2) array
        Outward unit normals, one per edge.
    kernel_inradius : float
        Radius of the largest ball about ``star_center`` contained in the
        kernel (``rho`` in the shape-regularity ratio ``rho / h_E``).
    """

    vertices: np.ndarray
    area: float
    diameter: float
    star_center: np.ndarray
    edge_lengths: np.ndarray
    edge_normals: np.ndarray
    kernel_inradius: float

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def perimeter(self) -> float:
        return float(self.edge_lengths.sum())


@dataclass(frozen=True, eq=False)
class SubTriangulation:
    """Fan of triangles (star_center, v_i, v_{i+1}), positively oriented."""

    triangles: np.ndarray  # (n, 3, 2)
    areas: np.ndarray      # (n,)


#: Data computed per polygon: polygon -> {key: result}. The keys are weak,
#: so an entry lives exactly as long as its polygon. Reuse is exact:
#: polygons come from ``build_polygon``, which returns them frozen with
#: read-only arrays, so nothing computed from a polygon can change; a new
#: mesh builds new polygons.
_PER_POLYGON = weakref.WeakKeyDictionary()


def memoised(poly: Polygon, key, compute, *args):
    """``compute(poly, *args)``, computed once per polygon and ``key``."""
    table = _PER_POLYGON.setdefault(poly, {})
    if key not in table:
        table[key] = compute(poly, *args)
    return table[key]


def cyclic_next(x):
    """``np.roll(x, -1, axis=0)``: row ``i`` holds row ``i + 1`` of ``x``,
    the last row row 0. The same values without ``np.roll``'s per-call
    cost, which dominates on per-cell arrays."""
    return np.concatenate((x[1:], x[:1]))


def cyclic_prev(x):
    """``np.roll(x, 1, axis=0)``: row ``i`` holds row ``i - 1`` of ``x``,
    row 0 the last row."""
    return np.concatenate((x[-1:], x[:-1]))


_vertex_pairs = lru_cache(maxsize=None)(np.triu_indices)


def _diameters(rel):
    """Largest vertex-to-vertex distance of each chain of offsets to vertex
    0 in ``rel``, an ``(..., n, 2)`` array, over the unique vertex pairs."""
    i, j = _vertex_pairs(rel.shape[-2], 1)
    d = rel[..., i, :] - rel[..., j, :]
    return np.sqrt((d * d).sum(-1).max(-1))


@lru_cache(maxsize=None)
def _nonadjacent_pairs(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if j != i + 1 and not (i == 0 and j == n - 1)]
    return np.array(pairs, dtype=int).reshape(-1, 2)


def _orient(a, b, c):
    return ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
            - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


def _check_simple(pts, d, lens, diameter):
    """Raise :class:`NotSimple` unless the chain ``pts`` with edge vectors
    ``d`` and lengths ``lens`` bounds a simple polygon."""
    n = len(pts)
    if lens.min() <= 1e-14 * diameter:
        raise NotSimple("zero-length edge (repeated consecutive vertices)")
    # straight angles (collinear vertices) are allowed; folds back are not
    nxt = cyclic_next(d)
    cross = d[:, 0] * nxt[:, 1] - d[:, 1] * nxt[:, 0]
    dot = (d * nxt).sum(axis=1)
    tol = 1e-12 * diameter ** 2  # an area, like the orientations below
    if np.any((np.abs(cross) <= tol) & (dot < 0.0)):
        raise NotSimple("boundary folds back on itself")
    pairs = _nonadjacent_pairs(n)  # none for a triangle
    a = pts[pairs[:, 0]]
    b = pts[pairs[:, 0] + 1]
    c = pts[pairs[:, 1]]
    e = pts[(pairs[:, 1] + 1) % n]
    o1 = _orient(a, b, c)
    o2 = _orient(a, b, e)
    o3 = _orient(c, e, a)
    o4 = _orient(c, e, b)
    proper = (o1 * o2 < -tol * tol) & (o3 * o4 < -tol * tol)
    if proper.any():
        raise NotSimple("non-adjacent edges intersect")
    # touching or collinear-overlap: some orientation ~0 with overlapping boxes
    near = (np.abs(o1) <= tol) | (np.abs(o2) <= tol) | (np.abs(o3) <= tol) | (np.abs(o4) <= tol)
    slack = 1e-12 * diameter  # a length, so the box test does not depend on scale
    lo_ab, hi_ab = np.minimum(a, b) - slack, np.maximum(a, b) + slack
    lo_ce, hi_ce = np.minimum(c, e) - slack, np.maximum(c, e) + slack
    boxes_overlap = (hi_ab >= lo_ce).all(1) & (hi_ce >= lo_ab).all(1)
    crossing = (o1 * o2 <= tol * tol) & (o3 * o4 <= tol * tol)
    if np.any(near & boxes_overlap & crossing):
        raise NotSimple("non-adjacent edges touch or overlap")


def _inward_clearance(pts, n_in, point):
    """Smallest distance from ``point`` to the edge lines, signed along the
    inward unit normals ``n_in``."""
    return float((n_in * (point[None, :] - pts)).sum(axis=1).min())


def _chebyshev_kernel_point(pts, n_in):
    a_ub = np.column_stack([-n_in, np.ones(len(pts))])
    b_ub = -(n_in * pts).sum(axis=1)
    res = linprog([0.0, 0.0, -1.0], A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None), (None, None), (0, None)],
                  method="highs")
    if not res.success:
        raise NotStarShaped("kernel half-plane intersection is empty")
    return np.array(res.x[:2]), float(res.x[2])


def _star_center(pts, n_in, diameter, centroid):
    clearance = _inward_clearance(pts, n_in, centroid)
    if clearance > 1e-9 * diameter:
        return centroid, clearance
    center, radius = _chebyshev_kernel_point(pts, n_in)
    if not np.isfinite(radius) or radius <= 1e-12 * diameter:
        raise NotStarShaped("kernel is empty or degenerate")
    return center, _inward_clearance(pts, n_in, center)


def build_polygon(points, *, normalize_orientation=True) -> Polygon:
    """Build a validated :class:`Polygon` from an ordered vertex list.

    Clockwise input is reversed when ``normalize_orientation`` is true
    (the default), otherwise it raises :class:`ClockwiseOrientation`.
    Raises :class:`NotSimple` for degenerate or self-intersecting chains
    and :class:`NotStarShaped` when the kernel is empty. All but the
    stored vertices comes from the offsets to vertex 0, those the
    cell-class index compares, so nothing depends on where the polygon lies.
    """
    pts = np.array(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise NotSimple("a polygon needs at least 3 planar vertices")
    if not np.all(np.isfinite(pts)):
        raise NotSimple("non-finite vertex coordinates")
    origin = pts[0]
    rel = pts - origin
    diameter = float(_diameters(rel))
    if diameter == 0.0:
        raise NotSimple("all vertices coincide")
    nxt = cyclic_next(rel)
    cross = rel[:, 0] * nxt[:, 1] - nxt[:, 0] * rel[:, 1]
    area = 0.5 * float(cross.sum())
    if abs(area) <= 1e-14 * diameter ** 2:
        raise NotSimple("degenerate polygon (zero area)")
    centroid = ((rel + nxt) * cross[:, None]).sum(axis=0) / (6.0 * area)
    if area < 0.0:
        if not normalize_orientation:
            raise ClockwiseOrientation("vertices are ordered clockwise")
        pts, rel = pts[::-1].copy(), rel[::-1]
        area = -area
    d = cyclic_next(rel) - rel
    lens = np.hypot(d[:, 0], d[:, 1])
    _check_simple(rel, d, lens, diameter)  # no zero-length edge past here
    normals = np.column_stack([d[:, 1], -d[:, 0]]) / lens[:, None]
    center, inradius = _star_center(rel, -normals, diameter, centroid)
    center = center + origin
    for arr in (pts, center, lens, normals):
        arr.setflags(write=False)
    return Polygon(pts, float(area), diameter, center, lens, normals,
                   float(inradius))


def sub_triangulate(poly: Polygon) -> SubTriangulation:
    """Fan sub-triangulation of ``poly`` around its star center, computed
    once per polygon and returned with read-only arrays."""
    return memoised(poly, "fan", _sub_triangulate)


def _sub_triangulate(poly: Polygon) -> SubTriangulation:
    v = poly.vertices
    w = cyclic_next(v)
    c = np.broadcast_to(poly.star_center, v.shape)
    tris = np.stack([c, v, w], axis=1)
    rel_v = v - poly.star_center
    rel_w = w - poly.star_center
    areas = 0.5 * (rel_v[:, 0] * rel_w[:, 1] - rel_v[:, 1] * rel_w[:, 0])
    if areas.min() <= 0.0:
        raise NotStarShaped("star center does not see the whole boundary")
    tris.setflags(write=False)
    areas.setflags(write=False)
    return SubTriangulation(tris, areas)


def polygon_quadrature(poly: Polygon, degree: int):
    """Quadrature points/weights over ``poly`` exact to ``degree``."""
    rule = triangle_rule(degree)
    sub = sub_triangulate(poly)
    tris = sub.triangles
    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    x = rule.nodes[None, :, 0, None]
    y = rule.nodes[None, :, 1, None]
    pts = tris[:, None, 0, :] + x * e1[:, None, :] + y * e2[:, None, :]
    w = 2.0 * sub.areas[:, None] * rule.weights[None, :]
    return pts.reshape(-1, 2), w.ravel()


def polygon_integrate(poly: Polygon, f, degree: int) -> float:
    """Integrate ``f(x, y)`` over the polygon, exactly for total degree
    <= ``degree``."""
    pts, w = polygon_quadrature(poly, degree)
    return float(w @ np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float))


#: Key resolution of the cell-class index, relative to each cell's diameter.
_CLASS_QUANTUM = 1e-10
#: Largest vertex-offset deviation from the representative, relative to its
#: diameter, at which a cell reuses the representative's data; reused local
#: matrices are then off by about this relative amount, far below solver
#: tolerance. Smaller than the key resolution, so equal keys are checked.
_CLASS_TOLERANCE = 1e-12
#: Smallest kappa = min(kernel_inradius, shortest edge) / diameter of a
#: representative whose validity its members reuse; a class whose
#: representative falls short is split into singletons. A polygon
#: star-shaped with respect to B(star_center, rho), with shortest edge e
#: and diameter h, has interior angles with sin(theta / 2) >= rho / h, so
#: consecutive edges that turn back have |cross| >= sqrt(2) e^2 rho / h
#: and non-adjacent edges are at least (2 / pi) rho^2 e / h^2 apart.
#: Member vertices move at most sqrt(2) _CLASS_TOLERANCE h, so kappa >=
#: 1e-2 leaves a factor of more than 1e3 on every tolerance test in
#: ``build_polygon``. The tightest is the 1e-12 h^2 orientation tolerance
#: divided by an edge of at least kappa h.
_CLASS_KAPPA = 1e-2
#: Most class members whose points are moved at once (bounds memory).
_CHUNK_MEMBERS = 4096


@dataclass(frozen=True, eq=False)
class CellClass:
    """Cells that are translates of one representative, ``members[0]``."""

    polygon: Polygon        # the representative, built and validated once
    members: np.ndarray     # (m,) cell indices, ascending
    indices: np.ndarray     # (m, n) vertex indices of each member
    offsets: np.ndarray     # (m, 2) member vertex 0 - representative vertex 0
    diameters: np.ndarray   # (m,) largest vertex-to-vertex distance

    def member_points(self, points):
        """The representative's ``points`` (P, 2) moved onto the members,
        ``_CHUNK_MEMBERS`` at a time: yields ``(rows, x, y)``, the slice of
        members and their points' (k P,) coordinates, member by member."""
        for start in range(0, len(self.members), _CHUNK_MEMBERS):
            rows = slice(start, start + _CHUNK_MEMBERS)
            pts = (points[None, :, :] + self.offsets[rows, None, :]).reshape(-1, 2)
            yield rows, pts[:, 0], pts[:, 1]


def _cell_classes(vertices, cell_vertices, cell_start) -> tuple:
    """Translation classes of the cells, ordered by representative.

    Cells are grouped by vertex count and keyed on their vertex offsets
    from vertex 0, quantized relative to the cell diameter, so the
    grouping does not depend on coordinate scale. A cell joins its key's
    class only when its offsets match the representative's within
    ``_CLASS_TOLERANCE`` times the diameter and the representative's
    kappa is at least ``_CLASS_KAPPA``; otherwise it forms a class of its
    own. This is the only code that builds a mesh's polygons: each class
    validates its representative, and an invalid one raises
    :class:`StructuralDefect` naming the lowest-index invalid cell.
    """
    sizes = np.diff(cell_start)
    groups = []
    for n in np.unique(sizes):
        ids = np.flatnonzero(sizes == n)
        idx = cell_vertices[cell_start[ids, None] + np.arange(n)]
        pts = vertices[idx]
        rel = pts - pts[:, :1]
        # chunks keep the pair differences' memory small
        diam = np.concatenate([_diameters(rel[k:k + _CHUNK_MEMBERS])
                               for k in range(0, len(ids), _CHUNK_MEMBERS)])
        # degenerate or non-finite cells get garbage keys, fail the check
        # below and are rejected when their polygon is built
        with np.errstate(divide="ignore", invalid="ignore"):
            key = np.rint(rel / (_CLASS_QUANTUM * diam)[:, None, None])
            key = key.astype(np.int64).reshape(len(ids), -1)
        order = np.lexsort(key.T[::-1])  # stable: cells ascend within a key
        first = np.ones(len(ids), dtype=bool)
        first[1:] = (key[order[1:]] != key[order[:-1]]).any(1)
        rep = np.empty_like(order)
        rep[order] = order[first][np.cumsum(first) - 1]
        deviation = np.abs(rel - rel[rep]).reshape(len(ids), -1).max(1)
        rep = np.where(deviation <= _CLASS_TOLERANCE * diam[rep], rep,
                       np.arange(len(ids)))
        order = np.argsort(rep, kind="stable")
        bounds = np.flatnonzero(np.diff(rep[order])) + 1
        groups += [(ids[g], idx[g], pts[g], diam[g])
                   for g in np.split(order, bounds)]
    # a heap on the representative, which split-off singletons join: the
    # first polygon that fails is the lowest-index invalid cell
    pending = sorted((int(g[0][0]), g) for g in groups)
    classes = []
    while pending:
        _, group = heapq.heappop(pending)
        members, idx, pts, diam = group
        try:
            poly = build_polygon(pts[0], normalize_orientation=False)
        except (NotSimple, NotStarShaped, ClockwiseOrientation) as exc:
            raise StructuralDefect(str(exc), cell=int(members[0])) from exc
        shortest = min(poly.kernel_inradius, poly.edge_lengths.min())
        if len(members) > 1 and shortest < _CLASS_KAPPA * poly.diameter:
            for k in range(1, len(members)):
                heapq.heappush(pending, (int(members[k]),
                                         [a[k:k + 1] for a in group]))
            members, idx, pts, diam = (a[:1] for a in group)
        classes.append(CellClass(poly, members, idx, pts[:, 0] - pts[0, 0],
                                 diam))
    return tuple(classes)


def _successors(cell_start):
    """For each position in the concatenated cell chains, the position of
    the next vertex of the same cell."""
    following = np.arange(1, cell_start[-1] + 1)
    following[cell_start[1:] - 1] = cell_start[:-1]
    return following


@dataclass(frozen=True, eq=False)
class EdgeTable:
    """The cells' directed edges, one per cell vertex in storage order:
    from ``tail`` to ``head``, the next vertex of the same cell. ``uses``
    counts the cells that use the edge in either direction: 1 on the
    boundary, 2 inside."""

    tail: np.ndarray
    head: np.ndarray
    uses: np.ndarray


class PolygonalMesh:
    """Conforming polygonal tessellation described by shared vertices.

    Parameters
    ----------
    vertices : (N, 2) array_like
        Vertex coordinates.
    cells : sequence of sequences of int
        Per-cell CCW chains of 0-based vertex indices.
    name : str, optional
        Label carried through JSON round trips.

    The connectivity is stored once, as two read-only int64 arrays:
    ``cell_vertices`` concatenates the cells' chains, and cell ``c`` is
    ``cell_vertices[cell_start[c]:cell_start[c + 1]]``. Every topology
    question reads them or the :class:`EdgeTable` derived from them.
    Boundary vertices are inferred: an edge used by exactly one cell is a
    boundary edge and its endpoints are boundary vertices. Raises
    :class:`StructuralDefect`, naming the cell, for a cell with fewer than
    3 vertices or a vertex index out of range.
    """

    def __init__(self, vertices, cells, name=None):
        self.vertices = np.array(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise StructuralDefect("vertices must be an (N, 2) array")
        cells = list(cells)
        sizes = np.fromiter(map(len, cells), dtype=np.int64, count=len(cells))
        self.cell_start = np.concatenate(([0], np.cumsum(sizes)))
        self.cell_vertices = np.fromiter(chain.from_iterable(cells),
                                         dtype=np.int64,
                                         count=int(self.cell_start[-1]))
        short = np.flatnonzero(sizes < 3)
        if len(short):
            raise StructuralDefect("fewer than 3 vertices", cell=int(short[0]))
        outside = np.flatnonzero((self.cell_vertices < 0)
                                 | (self.cell_vertices >= len(self.vertices)))
        if len(outside):
            cell = np.searchsorted(self.cell_start, outside[0], side="right") - 1
            raise StructuralDefect("vertex index out of range", cell=int(cell))
        for arr in (self.vertices, self.cell_start, self.cell_vertices):
            arr.setflags(write=False)
        self.name = name

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_cells(self) -> int:
        return len(self.cell_start) - 1

    @cached_property
    def cells(self) -> tuple:
        """Per-cell vertex index arrays, read-only views of
        ``cell_vertices``."""
        bounds = self.cell_start.tolist()
        return tuple(self.cell_vertices[a:b]
                     for a, b in zip(bounds[:-1], bounds[1:]))

    @cached_property
    def edges(self) -> EdgeTable:
        """The one edge table of the mesh."""
        tail = self.cell_vertices
        head = tail[_successors(self.cell_start)]
        key = np.minimum(tail, head) * self.n_vertices + np.maximum(tail, head)
        _, inverse, counts = np.unique(key, return_inverse=True,
                                       return_counts=True)
        uses = counts[inverse]
        for arr in (head, uses):
            arr.setflags(write=False)
        return EdgeTable(tail, head, uses)

    @cached_property
    def boundary_vertex_flags(self):
        edges = self.edges
        once = edges.uses == 1
        flags = np.zeros(self.n_vertices, dtype=bool)
        flags[edges.tail[once]] = True
        flags[edges.head[once]] = True
        flags.setflags(write=False)
        return flags

    @cached_property
    def cell_classes(self) -> tuple:
        """The one index of cells that share shape data, a tuple of
        :class:`CellClass`, read by every stage; raises
        :class:`StructuralDefect` naming the first invalid cell polygon."""
        return _cell_classes(self.vertices, self.cell_vertices,
                             self.cell_start)

    @cached_property
    def h(self) -> float:
        return max((float(c.diameters.max()) for c in self.cell_classes),
                   default=0.0)


@dataclass(frozen=True)
class MeshQuality:
    """Shape-regularity report produced by :func:`validate_mesh`."""

    kappa: float
    max_vertices: int
    cell_kernel_ratios: np.ndarray  # rho / h_E per cell
    cell_edge_ratios: np.ndarray    # min |e| / h_E per cell
    n_cells: int
    total_area: float


#: Largest sum of the cells' interior angles at one vertex: a full turn,
#: plus rounding. A larger sum means cells overlap at that vertex.
_FULL_TURN = 2.0 * np.pi + 1e-9


def _first_repeat(keys):
    """Positions ``(k, j)`` of the first key equal to an earlier one and of
    that earlier one, or None when the keys are distinct."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    earlier = first[inverse]
    repeats = np.flatnonzero(earlier != np.arange(len(keys)))
    return (repeats[0], earlier[repeats[0]]) if len(repeats) else None


def validate_mesh(mesh: PolygonalMesh) -> MeshQuality:
    """Check structural validity and report shape-regularity numbers.

    Raises :class:`StructuralDefect` (naming the offending cell) when the
    tessellation is broken: repeated vertices inside a cell, an edge used
    twice with the same orientation, non-CCW or invalid cell polygons, or
    cells that overlap, so that their interior angles at some vertex sum
    to more than a full turn. Bad vertex counts and indices are refused
    when the mesh is built. ``mesh.cell_classes`` validates the polygons
    once per class; the per-cell ratios are class values.
    """
    n = mesh.n_vertices
    edges = mesh.edges
    cell_of = np.repeat(np.arange(mesh.n_cells), np.diff(mesh.cell_start))
    repeat = _first_repeat(cell_of * n + edges.tail)
    if repeat is not None:
        raise StructuralDefect("repeated vertex inside cell",
                               cell=int(cell_of[repeat[0]]))
    again = _first_repeat(edges.tail * n + edges.head)
    if again is not None:
        k, j = again
        raise StructuralDefect(
            f"edge {(int(edges.tail[k]), int(edges.head[k]))} already used "
            f"with the same orientation by cell {int(cell_of[j])}",
            cell=int(cell_of[k]))
    classes = mesh.cell_classes
    # each cell's interior angle at every edge's head, from the next edge
    # round to this one reversed; CCW simple cells give angles in (0, 2 pi)
    d = mesh.vertices[edges.head] - mesh.vertices[edges.tail]
    out = d[_successors(mesh.cell_start)]
    angles = np.mod(np.arctan2(d[:, 0] * out[:, 1] - d[:, 1] * out[:, 0],
                               -(d * out).sum(axis=1)), 2.0 * np.pi)
    turn = np.bincount(edges.head, angles, minlength=n)
    over = np.flatnonzero(turn > _FULL_TURN)
    if len(over):
        v = int(over[0])
        raise StructuralDefect(
            f"cells overlap at vertex {v}: their interior angles there sum "
            f"to {float(turn[v])!r}, more than 2 pi",
            cell=int(cell_of[edges.head == v].max()))
    kernel_ratios, edge_ratios = np.empty((2, mesh.n_cells))
    for cls in classes:
        poly = cls.polygon
        kernel_ratios[cls.members] = poly.kernel_inradius / poly.diameter
        edge_ratios[cls.members] = poly.edge_lengths.min() / poly.diameter
    total_area = sum(c.polygon.area * len(c.members) for c in classes)
    kappa = float(min(kernel_ratios.min(), edge_ratios.min()))
    return MeshQuality(
        kappa=kappa,
        max_vertices=int(np.diff(mesh.cell_start).max()),
        cell_kernel_ratios=kernel_ratios,
        cell_edge_ratios=edge_ratios,
        n_cells=mesh.n_cells,
        total_area=float(total_area),
    )
