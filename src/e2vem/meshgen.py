"""Polygon and mesh generators for coercivity and convergence studies.

Single polygons: regular n-gons, seeded random convex polygons inscribed
in the unit circle, aligned-edge families obtained by progressively
splitting the edges of a base triangle/hexagon, and non-convex octagons
built by pulling the edge midpoints of a quadrilateral toward its
centroid.

Meshes on the unit square: clipped honeycomb, cut-corner octagon grid,
a non-convex pinwheel family, structured triangulations and square
grids. Refinement quadruples the cell count per level. All generators
are deterministic; randomness comes only from an explicit SplitMix64
stream so that outputs are bit-reproducible across platforms.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, RejectionBudgetExceeded, StructuralDefect
from .geometry import Polygon, PolygonalMesh, build_polygon

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 generator (Steele et al.); update constants are part of
    the reproducibility contract."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53


# ---------------------------------------------------------------------------
# single-polygon families


@dataclass(frozen=True)
class PolygonFamilySpec:
    """Parameters for one test polygon.

    kind: regular | random_convex | split_triangle | split_hexagon |
    concave_octagon. Unused fields are ignored by the other kinds.
    """

    kind: str
    n: int = 0
    seed: int = 0
    step: int = 0
    alpha: float = 0.0


def regular_polygon(n: int) -> Polygon:
    """Regular n-gon inscribed in the unit circle, first vertex at angle 0."""
    theta = 2.0 * np.pi * np.arange(n) / n
    return build_polygon(np.column_stack([np.cos(theta), np.sin(theta)]))


_REJECTION_BUDGET = 100_000
#: Shortest edge of a random convex polygon, relative to the circle diameter.
_MIN_EDGE_RATIO = 0.15


def random_convex_polygon(n: int, seed: int) -> Polygon:
    """Convex polygon with n vertices on the unit circle, every edge at
    least ``_MIN_EDGE_RATIO`` times the circle diameter.

    Angular gaps below ``2 asin(_MIN_EDGE_RATIO)`` give short edges, so
    each attempt draws the gaps from the uniform distribution
    conditioned on that minimum (minimum plus a scaled Dirichlet
    vector, via normalized exponentials); the law is the same as accept
    and reject over unconstrained uniform angles, but the acceptance
    probability no longer collapses near the feasibility limit.
    """
    if n < 3:
        raise ValueError(f"need at least 3 vertices, got {n}")
    gap_min = 2.0 * math.asin(_MIN_EDGE_RATIO)
    slack = 2.0 * math.pi - n * gap_min
    if slack <= 0.0:
        raise RejectionBudgetExceeded(
            f"edge/diameter >= {_MIN_EDGE_RATIO} is infeasible for n={n}: "
            f"minimum gaps alone exceed the full circle")
    rng = SplitMix64(seed * 0x6A09E667F3BCC909 + n)
    for _ in range(_REJECTION_BUDGET):
        start = 2.0 * math.pi * rng.random()
        exps = -np.log1p(-np.array([rng.random() for _ in range(n)]))
        gaps = gap_min + slack * exps / exps.sum()
        theta = start + np.concatenate([[0.0], np.cumsum(gaps[:-1])])
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        edges = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        if edges.min() >= 2.0 * _MIN_EDGE_RATIO - 1e-12:
            return build_polygon(pts)
    raise RejectionBudgetExceeded(
        f"no admissible polygon after {_REJECTION_BUDGET} attempts "
        f"(n={n}, seed={seed})")


# Base shapes for the aligned-edge and concave families. The published
# coordinates are not available, so these are fixed generic stand-ins:
# a scalene triangle, a non-regular cyclic hexagon, and a non-symmetric
# cyclic quadrilateral.
_SPLIT_TRIANGLE_BASE = ((0.0, 0.0), (1.0, 0.0), (0.3, 0.8))
_SPLIT_HEXAGON_ANGLES = (0.1, 1.25, 2.0, 3.25, 4.15, 5.4)
_OCTAGON_QUAD_ANGLES = (0.35, 1.75, 3.4, 5.0)


def _split_parts(n_edges: int, step: int) -> list[int]:
    # one more equal part on one edge per step, cycling edge 0, 1, ...
    return [1 + (step + (n_edges - 1 - e)) // n_edges for e in range(n_edges)]


def _split_edges(base: np.ndarray, step: int) -> Polygon:
    n_edges = len(base)
    if step < 0 or step > n_edges * 3:
        raise ValueError(f"step must be in [0, {n_edges * 3}], got {step}")
    parts = _split_parts(n_edges, step)
    pts = []
    for e, m in enumerate(parts):
        a, b = base[e], base[(e + 1) % n_edges]
        pts.append(a)
        for k in range(1, m):
            pts.append(a + (k / m) * (b - a))
    return build_polygon(np.asarray(pts))


def split_triangle_polygon(step: int) -> Polygon:
    """Aligned-edge polygon: scalene triangle with its edges progressively
    split into equal parts, one edge per step (3 + step vertices, up to 12)."""
    return _split_edges(np.asarray(_SPLIT_TRIANGLE_BASE), step)


def split_hexagon_polygon(step: int) -> Polygon:
    """Same splitting procedure applied to a non-regular cyclic hexagon
    (6 + step vertices, up to 24)."""
    theta = np.asarray(_SPLIT_HEXAGON_ANGLES)
    base = np.column_stack([np.cos(theta), np.sin(theta)])
    return _split_edges(base, step)


def concave_octagon_polygon(alpha: float) -> Polygon:
    """Octagon from a fixed cyclic quadrilateral whose edge midpoints are
    pulled toward the centroid by S(x) = (1 - alpha) x + alpha x_C."""
    if not 0.0 <= alpha <= 0.8:
        raise ValueError(f"alpha must be in [0, 0.8], got {alpha}")
    theta = np.asarray(_OCTAGON_QUAD_ANGLES)
    quad = np.column_stack([np.cos(theta), np.sin(theta)])
    centroid = build_polygon(quad).star_center
    mids = 0.5 * (quad + np.roll(quad, -1, axis=0))
    moved = (1.0 - alpha) * mids + alpha * centroid
    pts = np.empty((8, 2))
    pts[0::2] = quad
    pts[1::2] = moved
    return build_polygon(pts)


def make_polygon(spec: PolygonFamilySpec) -> Polygon:
    if spec.kind == "regular":
        return regular_polygon(spec.n)
    if spec.kind == "random_convex":
        return random_convex_polygon(spec.n, spec.seed)
    if spec.kind == "split_triangle":
        return split_triangle_polygon(spec.step)
    if spec.kind == "split_hexagon":
        return split_hexagon_polygon(spec.step)
    if spec.kind == "concave_octagon":
        return concave_octagon_polygon(spec.alpha)
    raise ValueError(f"unknown polygon family {spec.kind!r}")


# ---------------------------------------------------------------------------
# mesh families on the unit square


@dataclass(frozen=True)
class MeshFamilySpec:
    """Mesh family and refinement level on the unit square."""

    kind: str
    level: int = 0


_HONEYCOMB_COLUMNS = 18
_CUT_CORNER_CELLS = 9
_STAR_CELLS = 14
_TRIANGULATION_CELLS = 8
_SQUARE_GRID_CELLS = 4


def _lattice_mesh(name, keys, xy, sizes) -> PolygonalMesh:
    """Mesh from its cells' vertices, listed cell after cell.

    ``keys`` packs each listed vertex's integer lattice position, so
    equal keys are one shared vertex and its coordinates ``xy`` are
    bit-identical wherever it is listed. Vertices are numbered in order
    of first appearance.
    """
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    flat = number[inverse].tolist()
    bounds = np.cumsum(sizes).tolist()
    cells = [flat[a:b] for a, b in zip([0] + bounds[:-1], bounds)]
    return PolygonalMesh(xy[first[order]], cells, name=name)


_HEX_OFFSETS = np.array(((2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1)))


def _honeycomb_mesh(level: int) -> PolygonalMesh:
    """Hexagonal lattice on the unit square.

    Hexagon centers sit in K + 1 columns at x = i/K; the vertical pitch
    is compressed from the regular sqrt(3)/(3K) to 1/M with
    M = round(sqrt(3) K), so every vertex, including the ones the sides
    of the square cut in, lands on the integer lattice
    (mx / (3K), my / M). Interior cells are hexagons squashed by under a
    percent at every level; the square's sides slice the border cells
    into trapezoids, pentagons and two corner quads whose vertices dedupe
    exactly through the integer keys.
    """
    k = _HONEYCOMB_COLUMNS * 2 ** level
    m = round(math.sqrt(3.0) * k)
    # hexagon centers (3i, c), c of the parity of i, column after column
    i, c = np.divmod(np.arange((k + 1) * (m + 1)), m + 1)
    center = (i - c) % 2 == 0
    c = c[center]
    mx = 3 * i[center, None] + _HEX_OFFSETS[:, 0]
    my = c[:, None] + _HEX_OFFSETS[:, 1]
    # y = 0 and y = 1 pass through the lateral vertices of the straddling
    # hexagons, so the cut drops slots 4, 5 at c = 0 or 1, 2 at c = M,
    # and that fixes each kept slot's previous kept slot
    inside = (0 <= my) & (my <= m)
    prev = np.tile(np.arange(-1, 5) % 6, (len(c), 1))
    prev[c == 0, 0] = 3
    prev[c == m, 3] = 0
    # only horizontal edges reach across a column line; their clip point
    # goes before the slot that ends the edge
    px = np.take_along_axis(mx, prev, axis=1)
    clip = inside & (((px < 0) != (mx < 0)) | ((px > 3 * k) != (mx > 3 * k)))
    assert (np.take_along_axis(my, prev, axis=1) == my)[clip].all()
    keep = np.stack([clip, inside & (0 <= mx) & (mx <= 3 * k)], axis=2)
    clip_x = np.where(np.minimum(px, mx) < 0, 0, 3 * k)
    mx = np.stack([clip_x, mx], axis=2)[keep]
    my = np.stack([my, my], axis=2)[keep]
    return _lattice_mesh(f"honeycomb-level{level}", mx * (m + 1) + my,
                         np.column_stack([mx / (3.0 * k), my / m]),
                         keep.sum(axis=(1, 2)))


_CUT_T = 0.3  # corner cut fraction; equal-edge octagons would need
              # 1/(2 + sqrt(2)), kept away from that rank-deficient shape


def _stencil(verts):
    """Integer vertex tuples as rows, loop index major: each tuple entry
    is a scalar or an array over one loop (at least one row per vertex,
    hence the broadcast against a length-1 array)."""
    cols = np.broadcast_arrays(np.zeros(1, int),
                               *(x for v in verts for x in v))
    return np.stack(cols[1:], axis=1).reshape(-1, len(verts[0]))


def _cut_corner_mesh(level: int) -> PolygonalMesh:
    """Square grid with corners cut at each grid node: regular octagons,
    diamond squares at interior nodes, boundary and corner triangles.
    A vertex is (grid node, cut direction), on the lattice
    (3 i + dx, 3 j + dy)."""
    n = _CUT_CORNER_CELLS * 2 ** level
    s = 1.0 / n
    i, j = np.divmod(np.arange(n * n), n)
    a, b = (x + 1 for x in np.divmod(np.arange((n - 1) ** 2), n - 1))
    e = np.arange(1, n)
    blocks = (
        (8, [(i, j, 1, 0), (i + 1, j, -1, 0), (i + 1, j, 0, 1),
             (i + 1, j + 1, 0, -1), (i + 1, j + 1, -1, 0), (i, j + 1, 1, 0),
             (i, j + 1, 0, -1), (i, j, 0, 1)]),
        (4, [(a, b, -1, 0), (a, b, 0, -1), (a, b, 1, 0), (a, b, 0, 1)]),
        (3, [(e, 0, -1, 0), (e, 0, 1, 0), (e, 0, 0, 1),
             (e, n, 1, 0), (e, n, -1, 0), (e, n, 0, -1),
             (0, e, 0, -1), (0, e, 1, 0), (0, e, 0, 1),
             (n, e, 0, 1), (n, e, -1, 0), (n, e, 0, -1)]),
        (3, [(0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
             (n, 0, 0, 0), (n, 0, 0, 1), (n, 0, -1, 0),
             (n, n, 0, 0), (n, n, -1, 0), (n, n, 0, -1),
             (0, n, 0, 0), (0, n, 0, -1), (0, n, 1, 0)]),
    )
    rows = [_stencil(verts) for _, verts in blocks]
    sizes = np.concatenate([np.full(len(r) // size, size)
                            for (size, _), r in zip(blocks, rows)])
    ni, nj, dx, dy = np.concatenate(rows).T
    return _lattice_mesh(f"cut_corner_octagon-level{level}",
                         (3 * ni + dx) * (3 * n + 1) + 3 * nj + dy,
                         np.column_stack([ni * s + dx * (_CUT_T * s),
                                          nj * s + dy * (_CUT_T * s)]),
                         sizes)


_STAR_DENT = 0.3  # midpoint pull over the half cell width; one value only,
                  # since stored meshes and benchmark references depend on it
# cell (i, j) on the doubled lattice: corners at (2i, 2j), horizontal
# edge midpoints at (2i + 1, 2j), vertical ones at (2i, 2j + 1)
_STAR_SLOTS = np.array(((0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2),
                        (0, 1)))


def _concave_star_mesh(level: int) -> PolygonalMesh:
    """Pinwheel tessellation: each interior edge midpoint is pulled toward
    the center of one adjacent cell (horizontal edges feed the cell
    below, vertical edges the cell to the left, with the flips noted
    inline), leaving every cell non-convex. Interior cells are congruent
    two-dent octagons; boundary cells are heptagons and corner hexagons.
    """
    n = _STAR_CELLS * 2 ** level
    s = 1.0 / n
    d = _STAR_DENT * 0.5 * s
    i, j = np.divmod(np.arange(n * n)[:, None], n)
    x = 2 * i + _STAR_SLOTS[:, 0]
    y = 2 * j + _STAR_SLOTS[:, 1]
    hmid, vmid = x % 2 == 1, y % 2 == 1
    # midpoints of the square's sides are not vertices
    keep = ~(hmid & (y % (2 * n) == 0) | vmid & (x % (2 * n) == 0))
    x, y, hmid, vmid = x[keep], y[keep], hmid[keep], vmid[keep]
    # a horizontal midpoint dents the cell below except in the last
    # column, where it dents the cell above so the right-edge cells stay
    # non-convex; a vertical one dents the cell on the left except the
    # single edge touching the bottom-right cell, which would otherwise
    # be convex
    dy = np.where(hmid, np.where(x == 2 * n - 1, d, -d), 0.0)
    dx = np.where(vmid, np.where((x == 2 * n - 2) & (y == 1), d, -d), 0.0)
    return _lattice_mesh(f"concave_star-level{level}", x * (2 * n + 1) + y,
                         np.column_stack([(x / 2) * s + dx, (y / 2) * s + dy]),
                         keep.sum(axis=1))


def _node_mesh(name, n, size, offsets) -> PolygonalMesh:
    """Cells of ``size`` grid nodes, ``offsets`` listing each grid
    square's cells in turn."""
    i, j = np.divmod(np.arange(n * n)[:, None], n)
    x = (i + np.asarray(offsets)[:, 0]).ravel()
    y = (j + np.asarray(offsets)[:, 1]).ravel()
    s = 1.0 / n
    return _lattice_mesh(name, x * (n + 1) + y,
                         np.column_stack([x * s, y * s]),
                         np.full(len(x) // size, size))


def _triangulation_mesh(level: int) -> PolygonalMesh:
    return _node_mesh(f"triangulation-level{level}",
                      _TRIANGULATION_CELLS * 2 ** level, 3,
                      ((0, 0), (1, 0), (1, 1), (0, 0), (1, 1), (0, 1)))


def _square_grid_mesh(level: int) -> PolygonalMesh:
    return _node_mesh(f"square_grid-level{level}",
                      _SQUARE_GRID_CELLS * 2 ** level, 4,
                      ((0, 0), (1, 0), (1, 1), (0, 1)))


_MESH_BUILDERS = {
    "honeycomb": _honeycomb_mesh,
    "cut_corner_octagon": _cut_corner_mesh,
    "concave_star": _concave_star_mesh,
    "triangulation": _triangulation_mesh,
    "square_grid": _square_grid_mesh,
}


def make_mesh(spec: MeshFamilySpec) -> PolygonalMesh:
    if spec.kind not in _MESH_BUILDERS:
        raise ValueError(f"unknown mesh family {spec.kind!r}; "
                         f"expected one of {sorted(_MESH_BUILDERS)}")
    if spec.level < 0:
        raise ValueError(f"level must be >= 0, got {spec.level}")
    return _MESH_BUILDERS[spec.kind](spec.level)


# ---------------------------------------------------------------------------
# JSON mesh files: {"vertices": [[x, y], ...], "cells": [[i, ...], ...]}
# with optional "name"; doubles carry 17 significant digits so that a
# save/load round trip is bit exact.


def save_mesh(mesh: PolygonalMesh, path, extra: dict = None) -> None:
    """Write the mesh as JSON; 17 significant digits keep the
    coordinates bit-exact under load_mesh. ``extra`` adds top-level
    keys (run metadata); loaders ignore them."""
    rows = (f'[{format(x, ".17g")},{format(y, ".17g")}]'
            for x, y in mesh.vertices)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for key, value in (extra or {}).items():
            fh.write(f'{json.dumps(key)}: {json.dumps(value)},\n')
        if mesh.name is not None:
            fh.write(f'"name": {json.dumps(mesh.name)},\n')
        fh.write('"vertices": [\n')
        fh.write(",\n".join(rows))
        fh.write('\n],\n"cells": [\n')
        fh.write(",\n".join(json.dumps(list(map(int, c))) for c in mesh.cells))
        fh.write("\n]\n}\n")


def load_mesh(path) -> PolygonalMesh:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    for fieldname in ("vertices", "cells"):
        if fieldname not in data:
            raise ParseError(f"{path}: missing field {fieldname!r}")
    raw_vertices = data["vertices"]
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise ParseError(f"{path}: 'vertices' must be a non-empty array")
    try:
        vertices = np.asarray(raw_vertices, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: 'vertices' entries must be [x, y] "
                         f"numbers: {exc}") from exc
    cells = data["cells"]
    if not isinstance(cells, list) or not cells:
        raise ParseError(f"{path}: 'cells' must be a non-empty array")
    for ci, cell in enumerate(cells):
        if not isinstance(cell, list):
            raise ParseError(f"{path}: cell {ci} must be an array of "
                             f"integer vertex indices")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError(f"{path}: 'name' must be a string")
    try:
        return PolygonalMesh(vertices, cells, name=name)
    except (StructuralDefect, OverflowError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
