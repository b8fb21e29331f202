"""Polygons, polygonal meshes, quadrature over cells, and
validation of the mesh assumptions (star-shapedness, edge lengths,
conforming tessellation).

Polygons are simple counter-clockwise vertex chains. Every polygon carries
a star center: the area centroid when it lies strictly inside the kernel,
otherwise the Chebyshev center of the kernel obtained from the half-plane
intersection linear program.
"""
from __future__ import annotations

from collections.abc import Sequence, Sized
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

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
    memo : dict
        The element kernel rows of ``projectors.build_projectors``, keyed
        by their int degree; read and filled by ``projectors`` alone.
    """

    vertices: np.ndarray
    area: float
    diameter: float
    star_center: np.ndarray
    edge_lengths: np.ndarray
    edge_normals: np.ndarray
    kernel_inradius: float
    memo: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

#: Most polygons built, computed or grouped as one stack. A row's bits do
#: not depend on its neighbours, so this bounds only the memory of the
#: stack's temporaries, which grow with its quadrature points.
_STACK_ROWS = 128


class PolygonStack(NamedTuple):
    """The arrays of same-n polygons, one row per polygon."""

    vertices: np.ndarray     # (m, n, 2)
    area: np.ndarray         # (m,)
    diameter: np.ndarray     # (m,)
    star_center: np.ndarray  # (m, 2)
    edge_lengths: np.ndarray  # (m, n)
    edge_normals: np.ndarray  # (m, n, 2)

    def take(self, rows) -> "PolygonStack":
        """The stack of the rows ``rows``."""
        return PolygonStack(*(a[rows] for a in self))


def stack_polygons(polys) -> PolygonStack:
    """The :class:`PolygonStack` of a sequence of same-n polygons."""
    return PolygonStack(*(np.array([getattr(p, name) for p in polys])
                          for name in PolygonStack._fields))


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
    return ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
            - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))


#: What ``build_polygon`` refuses, in the order it tests each row.
_DEFECTS = (
    (NotSimple, "non-finite vertex coordinates"),
    (NotSimple, "all vertices coincide"),
    (NotSimple, "degenerate polygon (zero area)"),
    (ClockwiseOrientation, "vertices are ordered clockwise"),
    (NotSimple, "zero-length edge (repeated consecutive vertices)"),
    (NotSimple, "boundary folds back on itself"),
    (NotSimple, "non-adjacent edges intersect"),
    (NotSimple, "non-adjacent edges touch or overlap"),
    (NotStarShaped, "kernel half-plane intersection is empty"),
    (NotStarShaped, "kernel is empty or degenerate"),
)
_VALID = len(_DEFECTS)


def _flag(defect, test, failed):
    """Record test ``test`` (an index into ``_DEFECTS``) as the first
    failure of the rows ``failed`` that passed every earlier test."""
    defect[failed & (defect == _VALID)] = test


def _check_simple(pts, d, lens, diameter, defect):
    """Flag the chains ``pts`` (m, n, 2), with edge vectors ``d`` and
    lengths ``lens``, that bound no simple polygon."""
    n = pts.shape[1]
    _flag(defect, 4, lens.min(axis=1) <= 1e-14 * diameter)
    # straight angles (collinear vertices) are allowed; folds back are not
    nxt = np.roll(d, -1, axis=1)
    cross = d[..., 0] * nxt[..., 1] - d[..., 1] * nxt[..., 0]
    dot = (d * nxt).sum(axis=2)
    tol = 1e-12 * diameter[:, None] ** 2  # an area, like the orientations
    _flag(defect, 5, ((np.abs(cross) <= tol) & (dot < 0.0)).any(axis=1))
    pairs = _nonadjacent_pairs(n)  # none for a triangle
    a = pts[:, pairs[:, 0]]
    b = pts[:, pairs[:, 0] + 1]
    c = pts[:, pairs[:, 1]]
    e = pts[:, (pairs[:, 1] + 1) % n]
    o1 = _orient(a, b, c)
    o2 = _orient(a, b, e)
    o3 = _orient(c, e, a)
    o4 = _orient(c, e, b)
    proper = (o1 * o2 < -tol * tol) & (o3 * o4 < -tol * tol)
    _flag(defect, 6, proper.any(axis=1))
    # touching or collinear-overlap: some orientation ~0 with overlapping boxes
    near = (np.abs(o1) <= tol) | (np.abs(o2) <= tol) | (np.abs(o3) <= tol) | (np.abs(o4) <= tol)
    # a length, so the box test does not depend on scale
    slack = 1e-12 * diameter[:, None, None]
    lo_ab, hi_ab = np.minimum(a, b) - slack, np.maximum(a, b) + slack
    lo_ce, hi_ce = np.minimum(c, e) - slack, np.maximum(c, e) + slack
    boxes_overlap = (hi_ab >= lo_ce).all(2) & (hi_ce >= lo_ab).all(2)
    crossing = (o1 * o2 <= tol * tol) & (o3 * o4 <= tol * tol)
    _flag(defect, 7, (near & boxes_overlap & crossing).any(axis=1))


def _inward_clearance(pts, n_in, point):
    """Smallest distance from each row's ``point`` to its edge lines, signed
    along the inward unit normals ``n_in``."""
    return (n_in * (point[:, None, :] - pts)).sum(axis=2).min(axis=1)


def _star_centers(pts, n_in, diameter, centroid, defect):
    """Each row's star center and kernel inradius: the centroid when it
    clears every edge line by more than ``1e-9`` diameters, otherwise the
    Chebyshev center of the kernel, from a linear program on that row."""
    clearance = _inward_clearance(pts, n_in, centroid)
    center = centroid.copy()
    for k in np.flatnonzero(~(clearance > 1e-9 * diameter) & (defect == _VALID)):
        # imported here: scipy.optimize costs a process about 17 MiB and
        # 0.15 s, and most meshes never need it
        from scipy.optimize import linprog
        a_ub = np.column_stack([-n_in[k], np.ones(pts.shape[1])])
        b_ub = -(n_in[k] * pts[k]).sum(axis=1)
        res = linprog([0.0, 0.0, -1.0], A_ub=a_ub, b_ub=b_ub,
                      bounds=[(None, None), (None, None), (0, None)],
                      method="highs")
        if not res.success:
            defect[k] = 8
        elif not np.isfinite(res.x[2]) or res.x[2] <= 1e-12 * diameter[k]:
            defect[k] = 9
        else:
            center[k] = res.x[:2]
            clearance[k] = _inward_clearance(pts[k:k + 1], n_in[k:k + 1],
                                             center[k:k + 1])[0]
    return center, clearance


def build_polygon(points):
    """Build a validated :class:`Polygon` from an ordered (n, 2) vertex
    list, or a tuple of them, one per row, from an (m, n, 2) stack.

    A single polygon is a stack of one: every row goes through the same
    array code, ``_STACK_ROWS`` rows at a time, so a row's bits do not
    depend on the rows beside it.
    Raises :class:`ClockwiseOrientation` for clockwise input,
    :class:`NotSimple` for degenerate or self-intersecting chains and
    :class:`NotStarShaped` when the kernel is empty; the error's
    ``row`` attribute is the lowest invalid row, and its message is that
    row's first failed test. All but the stored vertices comes from the
    offsets to vertex 0, those the cell-class index compares, so nothing
    depends on where the polygon lies.
    """
    pts = np.array(points, dtype=float)
    single = pts.ndim == 2
    if single:
        pts = pts[None]
    if pts.ndim != 3 or pts.shape[2] != 2 or pts.shape[1] < 3:
        raise NotSimple("a polygon needs at least 3 planar vertices")
    polys = []
    for start in range(0, len(pts), _STACK_ROWS):
        try:
            polys += _build_stack(pts[start:start + _STACK_ROWS])
        except (NotSimple, NotStarShaped, ClockwiseOrientation) as exc:
            exc.row += start
            raise
    return polys[0] if single else tuple(polys)


def _build_stack(pts):
    """The polygons of the rows of ``pts`` (m, n, 2); raises the first
    failed test of the lowest invalid row, with that row as ``row``."""
    defect = np.full(len(pts), _VALID)  # each row's first failed test
    # failed rows run on as garbage; only valid rows are kept
    with np.errstate(all="ignore"):
        _flag(defect, 0, ~np.isfinite(pts).all(axis=(1, 2)))
        rel = pts - pts[:, :1]
        diameter = _diameters(rel)
        _flag(defect, 1, diameter == 0.0)
        nxt = np.roll(rel, -1, axis=1)
        cross = rel[..., 0] * nxt[..., 1] - nxt[..., 0] * rel[..., 1]
        area = 0.5 * cross.sum(axis=1)
        _flag(defect, 2, np.abs(area) <= 1e-14 * diameter ** 2)
        centroid = (((rel + nxt) * cross[..., None]).sum(axis=1)
                    / (6.0 * area)[:, None])
        _flag(defect, 3, area < 0.0)
        d = np.roll(rel, -1, axis=1) - rel
        lens = np.hypot(d[..., 0], d[..., 1])
        _check_simple(rel, d, lens, diameter, defect)
        normals = np.stack([d[..., 1], -d[..., 0]], axis=2) / lens[..., None]
        center, inradius = _star_centers(rel, -normals, diameter, centroid,
                                         defect)
    invalid = np.flatnonzero(defect < _VALID)
    if len(invalid):
        kind, message = _DEFECTS[defect[invalid[0]]]
        error = kind(message)
        error.row = int(invalid[0])
        raise error
    center += pts[:, 0]
    for arr in (pts, center, lens, normals):
        arr.setflags(write=False)
    return list(map(Polygon, pts, area.tolist(), diameter.tolist(), center,
                    lens, normals, inradius.tolist()))


def _fan(s: PolygonStack):
    """The fan triangles (star_center, v_i, v_{i+1}) of each polygon of a
    stack, as their edge vectors from the star center to ``v_i`` and to
    ``v_{i+1}`` (m, n, 2) each, and their areas (m, n)."""
    e1 = s.vertices - s.star_center[:, None, :]
    e2 = np.roll(e1, -1, axis=1)
    areas = 0.5 * (e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])
    if areas.min() <= 0.0:
        raise NotStarShaped("star center does not see the whole boundary")
    return e1, e2, areas


def stack_quadrature(s: PolygonStack, degree: int):
    """Quadrature points (m, P, 2) and weights (m, P) over each polygon of
    the stack, exact to ``degree``: the triangle rule on every fan
    triangle."""
    rule = triangle_rule(degree)
    e1, e2, areas = _fan(s)
    x = rule.nodes[:, 0, None]
    y = rule.nodes[:, 1, None]
    pts = (s.star_center[:, None, None, :] + x * e1[:, :, None, :]
           + y * e2[:, :, None, :])
    w = 2.0 * areas[:, :, None] * rule.weights
    m = len(areas)
    return pts.reshape(m, -1, 2), w.reshape(m, -1)


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
_CHUNK_MEMBERS = 1024


def class_members(mesh, rows):
    """The members of the classes ``rows`` of ``mesh.cell_classes``, all
    of one vertex count, class by class and ascending within a class:
    their vertex indices (m, n), each one's position in ``rows`` and its
    anchor offset (m, 2), vertex 0 minus its representative's vertex 0."""
    index = mesh._class_index
    rows = np.asarray(rows)
    counts = index.start[rows + 1] - index.start[rows]
    head = np.cumsum(counts) - counts  # each class's representative
    cls = np.repeat(np.arange(len(rows)), counts)
    cells = index.members[np.arange(len(cls))
                          + (index.start[rows] - head)[cls]]
    n = index.polygons[rows[0]].n_vertices
    idx = mesh.cell_vertices[mesh.cell_start[cells, None] + np.arange(n)]
    anchor = mesh.vertices[idx[:, 0]]
    return idx, cls, anchor - anchor[head[cls]]


def member_points(mesh, rows, points):
    """Row ``k`` of ``points`` (c, P, 2), the points of class ``rows[k]``
    of ``mesh.cell_classes``, moved onto each of its members by the
    member's anchor offset, for the members that :func:`class_members`
    gives, in its order, ``_CHUNK_MEMBERS`` members at a time: yields
    ``(c, vertices, x, y)``, the members' positions in ``rows`` (k,) and
    vertex indices (k, n), and their points' (k P,) coordinates, member
    by member."""
    idx, cls, offsets = class_members(mesh, rows)
    for start in range(0, len(cls), _CHUNK_MEMBERS):
        chunk = slice(start, start + _CHUNK_MEMBERS)
        pts = points[cls[chunk]]
        pts += offsets[chunk, None, :]
        pts = pts.reshape(-1, 2)
        yield cls[chunk], idx[chunk], pts[:, 0], pts[:, 1]


def at_points(value, x):
    """A field's value at the points ``x`` as a C-contiguous float array:
    a contiguous array as it is, a constant filled to their shape (a
    stride-0 view of it would be summed in another order, and so round
    unlike the array form)."""
    return np.ascontiguousarray(
        np.broadcast_to(np.asarray(value, dtype=float), np.shape(x)))


def class_groups(polys, levels=0):
    """The classes of each vertex count and level, ``polys`` giving each
    class's representative and ``levels`` its level (or one for all):
    yields ``(n, l, rows)``, the ascending rows of ``polys`` in the
    group, at most ``_STACK_ROWS`` at a time, in ascending ``(n, l)``
    order."""
    sizes = [p.n_vertices for p in polys]
    keys = np.column_stack(np.broadcast_arrays(sizes, levels)).astype(int)
    pairs, inverse = np.unique(keys, axis=0, return_inverse=True)
    for k, (n, l) in enumerate(pairs.tolist()):
        rows = np.flatnonzero(inverse.ravel() == k)
        for start in range(0, len(rows), _STACK_ROWS):
            yield n, l, rows[start:start + _STACK_ROWS]


class _ClassIndex(NamedTuple):
    polygons: tuple         # each class's representative, its lowest cell
    cell_class: np.ndarray  # (n_cells,) each cell's class
    members: np.ndarray     # (n_cells,) the cells, class by class, ascending
    start: np.ndarray       # (classes + 1,) where each class starts in members
    diameters: np.ndarray   # (n_cells,) each cell's diameter


def _valid_rows(pts, cells, failures):
    """The polygons of the rows of ``pts`` before the first invalid one,
    whose cell and error are appended to ``failures``."""
    try:
        return build_polygon(pts)
    except (NotSimple, NotStarShaped, ClockwiseOrientation) as exc:
        failures.append((int(cells[exc.row]), exc))
        return build_polygon(pts[:exc.row])


def _cell_classes(vertices, cell_vertices, cell_start) -> _ClassIndex:
    """Translation classes of the cells, ordered by representative, each
    class's lowest cell.

    Cells are grouped by vertex count and keyed on their vertex offsets
    from vertex 0, quantized relative to the cell diameter, so the
    grouping does not depend on coordinate scale. A cell joins its key's
    class only when its offsets match the representative's within
    ``_CLASS_TOLERANCE`` times the diameter and the representative's
    kappa is at least ``_CLASS_KAPPA``; otherwise it forms a class of its
    own. This is the only code that builds a mesh's polygons, one
    ``build_polygon`` call per vertex count and one more for the members
    split off low-kappa representatives; an invalid one raises
    :class:`StructuralDefect` naming the lowest-index invalid cell.
    """
    sizes = np.diff(cell_start)
    diameters = np.empty(len(sizes))
    rep_cell = np.empty(len(sizes), dtype=np.intp)  # each cell's representative
    failures, polys = [], {}
    for n in np.unique(sizes):
        ids = np.flatnonzero(sizes == n)
        corners = np.arange(n)

        def points(rows):
            return vertices[cell_vertices[cell_start[ids[rows], None]
                                          + corners]]

        rel = points(slice(None))
        rel -= rel[:, :1]
        # chunks keep the pair differences' and the keys' memory small;
        # degenerate or non-finite cells get garbage keys, fail the check
        # below and are rejected when their polygon is built
        key = np.empty((len(ids), 2 * n), dtype=np.int64)
        chunks = [slice(k, k + _CHUNK_MEMBERS)
                  for k in range(0, len(ids), _CHUNK_MEMBERS)]
        for chunk in chunks:
            diam = _diameters(rel[chunk])
            diameters[ids[chunk]] = diam
            with np.errstate(divide="ignore", invalid="ignore"):
                key[chunk] = np.rint(rel[chunk] / (_CLASS_QUANTUM * diam)[
                    :, None, None]).reshape(len(diam), -1)
        diam = diameters[ids]
        order = np.lexsort(key.T[::-1])  # stable: cells ascend within a key
        key = key[order]
        first = np.ones(len(ids), dtype=bool)
        first[1:] = (key[1:] != key[:-1]).any(1)
        del key
        rep = np.empty_like(order)
        rep[order] = order[first][np.cumsum(first) - 1]
        deviation = np.concatenate([
            np.abs(rel[chunk] - rel[rep[chunk]]).reshape(-1, 2 * n).max(1)
            for chunk in chunks])
        own = np.arange(len(ids))
        rep = np.where(deviation <= _CLASS_TOLERANCE * diam[rep], rep, own)
        heads = np.flatnonzero(rep == own)
        built = dict(zip(heads.tolist(),
                         _valid_rows(points(heads), ids[heads], failures)))
        # the members of a low-kappa representative become their own class
        shared = np.bincount(rep, minlength=len(ids)) > 1
        low = [k for k in heads[shared[heads]].tolist() if k in built
               and min(built[k].kernel_inradius, built[k].edge_lengths.min())
               < _CLASS_KAPPA * built[k].diameter]
        loose = np.flatnonzero(np.isin(rep, low) & (rep != own))
        if len(loose):
            rep[loose] = loose
            built.update(zip(loose.tolist(),
                             _valid_rows(points(loose), ids[loose], failures)))
        rep_cell[ids] = ids[rep]
        polys.update(zip(ids[list(built)].tolist(), built.values()))
    if failures:
        cell, exc = min(failures, key=lambda f: f[0])
        raise StructuralDefect(str(exc), cell=cell) from exc
    reps, cell_class = np.unique(rep_cell, return_inverse=True)
    start = np.concatenate(([0], np.cumsum(np.bincount(cell_class))))
    return _ClassIndex(tuple(map(polys.get, reps.tolist())), cell_class,
                       np.argsort(cell_class, kind="stable"), start, diameters)


def _successors(cell_start):
    """For each position in the concatenated cell chains, the position of
    the next vertex of the same cell."""
    following = np.arange(1, cell_start[-1] + 1)
    following[cell_start[1:] - 1] = cell_start[:-1]
    return following


def _first_repeat(keys):
    """Positions ``(k, j)`` of the first key equal to an earlier one and of
    that earlier one, among keys that are not distinct."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    earlier = first[inverse]
    k = np.flatnonzero(earlier != np.arange(len(keys)))[0]
    return k, earlier[k]


#: Largest sum of the cells' interior angles at one vertex: a full turn,
#: plus rounding. A larger sum means cells overlap at that vertex.
_FULL_TURN = 2.0 * np.pi + 1e-9


class _CellChains(Sequence):
    """The cells' vertex chains, sliced from the connectivity arrays on
    each read: ``len``, int and negative indexing, ``IndexError`` past the
    end, and iteration, like a tuple of read-only views."""

    def __init__(self, cell_vertices, cell_start):
        self._vertices, self._start = cell_vertices, cell_start

    def __len__(self):
        return len(self._start) - 1

    def __getitem__(self, c):
        return self._vertices[self._start[:-1][c]:self._start[1:][c]]

    def __iter__(self):
        bounds = self._start.tolist()
        return (self._vertices[a:b] for a, b in zip(bounds[:-1], bounds[1:]))


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
    question reads them: an edge runs from a cell's vertex to the next
    vertex of the same cell. Boundary vertices are inferred: an edge used
    by exactly one cell is a boundary edge and its endpoints are boundary
    vertices. Raises :class:`StructuralDefect` for malformed data: no
    (N, 2) numbers, no sequence of cells or no cell, and, naming the first
    such cell, a cell that is no sequence, has fewer than 3 vertices, or
    a vertex index that is not an integer (a float, a bool) or in range.
    """

    def __init__(self, vertices, cells, name=None):
        try:
            self.vertices = np.array(vertices, dtype=float)
        except (TypeError, ValueError, OverflowError):  # not numbers
            self.vertices = np.empty(0)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise StructuralDefect("vertices must be an (N, 2) array")
        try:
            cells = list(cells)
        except TypeError:
            raise StructuralDefect("cells must be a sequence") from None
        if not cells:
            raise StructuralDefect("the mesh has no cells")
        try:
            sizes = np.fromiter(map(len, cells), dtype=np.int64,
                                count=len(cells))
        except TypeError:
            first = next(c for c, x in enumerate(cells)
                         if not isinstance(x, Sized))
            raise StructuralDefect("not a sequence", cell=first) from None
        self.cell_start = np.concatenate(([0], np.cumsum(sizes)))
        short = np.flatnonzero(sizes < 3)
        if len(short):
            raise StructuralDefect("fewer than 3 vertices", cell=int(short[0]))
        flat = list(chain.from_iterable(cells))

        def defect(message, position):
            cell = np.searchsorted(self.cell_start, position, side="right") - 1
            return StructuralDefect(message, cell=int(cell))

        # one type test per distinct type, not per index: a float or a
        # bool would be cast to int64 without a word
        bad = {t for t in set(map(type, flat))
               if t is bool or not issubclass(t, (int, np.integer))}
        if bad:
            first = next(i for i, t in enumerate(map(type, flat)) if t in bad)
            raise defect("vertex index is not an integer", first)
        n = len(self.vertices)
        try:
            self.cell_vertices = np.fromiter(flat, np.int64, len(flat))
            outside = np.flatnonzero((self.cell_vertices < 0)
                                     | (self.cell_vertices >= n))
        except OverflowError:  # an index beyond int64 is out of range too
            outside = [next(k for k, i in enumerate(flat) if not 0 <= i < n)]
        if len(outside):
            raise defect("vertex index out of range", outside[0])
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
    def cells(self) -> _CellChains:
        """Per-cell vertex index arrays, as a sequence that keeps nothing
        of its own: cell ``c`` is sliced from ``cell_vertices`` when it is
        read, a read-only view."""
        return _CellChains(self.cell_vertices, self.cell_start)

    @cached_property
    def boundary_vertex_flags(self):
        """The endpoints of the edges that one cell uses, the only count of
        edge use; raises :class:`StructuralDefect`, naming the later cell,
        for an edge used by more than two cells or twice in one direction,
        which a conforming mesh never has."""
        n, tail = self.n_vertices, self.cell_vertices
        head = tail[_successors(self.cell_start)]
        key = np.minimum(tail, head) * n + np.maximum(tail, head)
        _, inverse, uses = np.unique(key, return_inverse=True,
                                     return_counts=True)
        # each way once: an edge that two cells use sums to 0
        sign = np.bincount(inverse, np.where(tail < head, 1.0, -1.0))
        if np.any((uses > 2) | (np.abs(sign) > 1)):
            k, j = _first_repeat(tail * n + head)
            cell_of = np.searchsorted(self.cell_start, [k, j], side="right") - 1
            raise StructuralDefect(
                f"edge {(int(tail[k]), int(head[k]))} already used with the "
                f"same orientation by cell {int(cell_of[1])}",
                cell=int(cell_of[0]))
        once = (uses == 1)[inverse]
        flags = np.zeros(n, dtype=bool)
        flags[tail[once]] = True
        flags[head[once]] = True
        flags.setflags(write=False)
        return flags

    @cached_property
    def _class_index(self) -> _ClassIndex:
        """The cell-class index, behind the mesh's one validity decision,
        which every path reads first: raises :class:`StructuralDefect` for
        the first of a vertex repeated inside a cell (the lowest such
        cell); an edge used twice one way (``boundary_vertex_flags``);
        an invalid cell polygon (the lowest); cells that overlap, their
        interior angles at a vertex summing to more than a full turn (the
        highest cell at the lowest such vertex); a vertex no cell uses.
        Polygons are tested first: a clockwise cell, whose angles read as
        their complements, is named as clockwise, not as an overlap."""
        n, tail, start = self.n_vertices, self.cell_vertices, self.cell_start
        # keyed cell by cell, so sorted keys meet their first equal
        # neighbour in the lowest cell that repeats a vertex
        keys = np.sort(np.repeat(np.arange(self.n_cells) * n, np.diff(start))
                       + tail)
        repeat = np.flatnonzero(keys[1:] == keys[:-1])
        if len(repeat):
            raise StructuralDefect("repeated vertex inside cell",
                                   cell=int(keys[repeat[0]] // n))
        del keys
        self.boundary_vertex_flags  # refuses an edge reused in one direction
        index = _cell_classes(self.vertices, tail, start)
        # each cell's interior angle at every edge's head, from the next edge
        # round to this one reversed; CCW simple cells give angles in (0, 2 pi)
        following = _successors(start)
        head = tail[following]
        x, y = self.vertices.T
        dx = x[head] - x[tail]
        dy = y[head] - y[tail]
        ox, oy = dx[following], dy[following]
        angles = np.arctan2(dx * oy - dy * ox, -(dx * ox + dy * oy))
        angles[angles < 0.0] += 2.0 * np.pi
        turn = np.bincount(head, angles, minlength=n)
        over = np.flatnonzero(turn > _FULL_TURN)
        if len(over):
            v = int(over[0])
            last = np.flatnonzero(head == v)[-1]
            raise StructuralDefect(
                f"cells overlap at vertex {v}: their interior angles there sum "
                f"to {float(turn[v])!r}, more than 2 pi",
                cell=int(np.searchsorted(start, last, side="right") - 1))
        unused = np.flatnonzero(np.bincount(tail, minlength=n) == 0)
        if len(unused):
            raise StructuralDefect(f"vertex {int(unused[0])} is used by no cell")
        return index

    @cached_property
    def _class_rules(self) -> dict:
        """The compressed quadrature rules of the large classes, by class:
        built on first use by ``analysis.class_rules``, once per mesh, for
        the load and the error norms alike."""
        from .analysis import class_rules  # analysis imports this module
        return class_rules(self)

    @property
    def cell_classes(self) -> tuple:
        """The one index of cells that share shape data, read by every
        stage: each class's representative :class:`Polygon`, ordered by
        its lowest cell, which it is built from; raises the
        :class:`StructuralDefect` of the mesh's one validity decision."""
        return self._class_index.polygons

    @property
    def cell_class(self) -> np.ndarray:
        """Each cell's index into :attr:`cell_classes`."""
        return self._class_index.cell_class

    @cached_property
    def h(self) -> float:
        return float(self._class_index.diameters.max())


@dataclass(frozen=True)
class MeshQuality:
    """Shape-regularity report produced by :func:`validate_mesh`."""

    kappa: float
    max_vertices: int
    cell_kernel_ratios: np.ndarray  # rho / h_E per cell
    cell_edge_ratios: np.ndarray    # min |e| / h_E per cell
    n_cells: int
    total_area: float


def validate_mesh(mesh: PolygonalMesh) -> MeshQuality:
    """The shape-regularity report of a mesh. It reads
    ``mesh.cell_classes``, and so raises the :class:`StructuralDefect` of
    the mesh's one validity decision, as every path does. The per-cell
    ratios are class values: the index validates one polygon per class.
    """
    polys = mesh.cell_classes
    rho, shortest, diameter, area = (np.array(v) for v in zip(*(
        (p.kernel_inradius, p.edge_lengths.min(), p.diameter, p.area)
        for p in polys)))
    kernel_ratios = (rho / diameter)[mesh.cell_class]
    edge_ratios = (shortest / diameter)[mesh.cell_class]
    total_area = area @ np.bincount(mesh.cell_class, minlength=len(polys))
    kappa = float(min(kernel_ratios.min(), edge_ratios.min()))
    return MeshQuality(
        kappa=kappa,
        max_vertices=int(np.diff(mesh.cell_start).max()),
        cell_kernel_ratios=kernel_ratios,
        cell_edge_ratios=edge_ratios,
        n_cells=mesh.n_cells,
        total_area=float(total_area),
    )
