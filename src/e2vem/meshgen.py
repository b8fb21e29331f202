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


class _MeshBuilder:
    """Accumulates cells whose vertices carry hashable canonical keys, so
    shared vertices dedupe to bit-identical coordinates."""

    def __init__(self, name):
        self.name = name
        self.index = {}
        self.coords = []
        self.cells = []

    def vertex(self, key, xy):
        i = self.index.get(key)
        if i is None:
            i = len(self.coords)
            self.index[key] = i
            self.coords.append(xy)
        return i

    def cell(self, keyed_vertices):
        self.cells.append([self.vertex(k, xy) for k, xy in keyed_vertices])

    def finish(self) -> PolygonalMesh:
        return PolygonalMesh(np.asarray(self.coords, dtype=float),
                             self.cells, name=self.name)


_HEX_OFFSETS = ((2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1))


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

    def keyed(mx, my):
        return ((mx, my), (mx / (3.0 * k), my / m))

    builder = _MeshBuilder(f"honeycomb-level{level}")
    for i in range(k + 1):
        cmx = 3 * i
        for c in range(i & 1, m + 1, 2):
            keys = [(cmx + dx, c + dy) for dx, dy in _HEX_OFFSETS]
            # y = 0 and y = 1 pass through the lateral vertices of the
            # straddling hexagons, so the cut is a pure vertex filter
            keys = [(mx, my) for mx, my in keys if 0 <= my <= m]
            if i == 0 or i == k:
                clipped = []
                for j, (bx, by) in enumerate(keys):
                    ax, ay = keys[j - 1]
                    if (ax < 0) != (bx < 0) or (ax > 3 * k) != (bx > 3 * k):
                        # only horizontal edges reach across a column line
                        assert ay == by
                        clipped.append((0 if min(ax, bx) < 0 else 3 * k, by))
                    if 0 <= bx <= 3 * k:
                        clipped.append((bx, by))
                keys = clipped
            builder.cell([keyed(mx, my) for mx, my in keys])
    return builder.finish()


_CUT_T = 0.3  # corner cut fraction; equal-edge octagons would need
              # 1/(2 + sqrt(2)), kept away from that rank-deficient shape


def _cut_corner_mesh(level: int) -> PolygonalMesh:
    """Square grid with corners cut at each grid node: regular octagons,
    diamond squares at interior nodes, boundary and corner triangles."""
    n = _CUT_CORNER_CELLS * 2 ** level
    s = 1.0 / n

    def vert(i, j, dx, dy):
        return ((i, j, dx, dy), (i * s + dx * (_CUT_T * s),
                                 j * s + dy * (_CUT_T * s)))

    b = _MeshBuilder(f"cut_corner_octagon-level{level}")
    for i in range(n):
        for j in range(n):
            b.cell([vert(i, j, 1, 0), vert(i + 1, j, -1, 0),
                    vert(i + 1, j, 0, 1), vert(i + 1, j + 1, 0, -1),
                    vert(i + 1, j + 1, -1, 0), vert(i, j + 1, 1, 0),
                    vert(i, j + 1, 0, -1), vert(i, j, 0, 1)])
    for i in range(1, n):
        for j in range(1, n):
            b.cell([vert(i, j, -1, 0), vert(i, j, 0, -1),
                    vert(i, j, 1, 0), vert(i, j, 0, 1)])
    for i in range(1, n):
        b.cell([vert(i, 0, -1, 0), vert(i, 0, 1, 0), vert(i, 0, 0, 1)])
        b.cell([vert(i, n, 1, 0), vert(i, n, -1, 0), vert(i, n, 0, -1)])
        b.cell([vert(0, i, 0, -1), vert(0, i, 1, 0), vert(0, i, 0, 1)])
        b.cell([vert(n, i, 0, 1), vert(n, i, -1, 0), vert(n, i, 0, -1)])
    b.cell([vert(0, 0, 0, 0), vert(0, 0, 1, 0), vert(0, 0, 0, 1)])
    b.cell([vert(n, 0, 0, 0), vert(n, 0, 0, 1), vert(n, 0, -1, 0)])
    b.cell([vert(n, n, 0, 0), vert(n, n, -1, 0), vert(n, n, 0, -1)])
    b.cell([vert(0, n, 0, 0), vert(0, n, 0, -1), vert(0, n, 1, 0)])
    return b.finish()


def _concave_star_mesh(level: int, alpha: float = 0.3) -> PolygonalMesh:
    """Pinwheel tessellation: each interior edge midpoint is pulled toward
    the center of one adjacent cell (horizontal edges feed the cell
    below, vertical edges the cell to the left, with the flips noted
    inline), leaving every cell non-convex. Interior cells are congruent
    two-dent octagons; boundary cells are heptagons and corner hexagons.
    """
    n = _STAR_CELLS * 2 ** level
    s = 1.0 / n
    d = alpha * 0.5 * s

    def corner(i, j):
        return (("c", i, j), (i * s, j * s))

    def hmid(i, j):
        # midpoint of the horizontal edge (i, j)-(i+1, j); dents the cell
        # below except in the last column, where it dents the cell above
        # so the right-edge cells stay non-convex
        sign = 1.0 if i == n - 1 else -1.0
        return (("h", i, j), ((i + 0.5) * s, j * s + sign * d))

    def vmid(i, j):
        # midpoint of the vertical edge (i, j)-(i, j+1); dents the cell on
        # the left except the single edge touching the bottom-right cell,
        # which would otherwise be convex
        sign = 1.0 if (i, j) == (n - 1, 0) else -1.0
        return (("v", i, j), (i * s + sign * d, (j + 0.5) * s))

    b = _MeshBuilder(f"concave_star-level{level}")
    for i in range(n):
        for j in range(n):
            cell = [corner(i, j)]
            if j > 0:
                cell.append(hmid(i, j))
            cell.append(corner(i + 1, j))
            if i + 1 < n:
                cell.append(vmid(i + 1, j))
            cell.append(corner(i + 1, j + 1))
            if j + 1 < n:
                cell.append(hmid(i, j + 1))
            cell.append(corner(i, j + 1))
            if i > 0:
                cell.append(vmid(i, j))
            b.cell(cell)
    return b.finish()


def _triangulation_mesh(level: int) -> PolygonalMesh:
    n = _TRIANGULATION_CELLS * 2 ** level
    s = 1.0 / n

    def corner(i, j):
        return ((i, j), (i * s, j * s))

    b = _MeshBuilder(f"triangulation-level{level}")
    for i in range(n):
        for j in range(n):
            b.cell([corner(i, j), corner(i + 1, j), corner(i + 1, j + 1)])
            b.cell([corner(i, j), corner(i + 1, j + 1), corner(i, j + 1)])
    return b.finish()


def _square_grid_mesh(level: int) -> PolygonalMesh:
    n = _SQUARE_GRID_CELLS * 2 ** level
    s = 1.0 / n

    def corner(i, j):
        return ((i, j), (i * s, j * s))

    b = _MeshBuilder(f"square_grid-level{level}")
    for i in range(n):
        for j in range(n):
            b.cell([corner(i, j), corner(i + 1, j),
                    corner(i + 1, j + 1), corner(i, j + 1)])
    return b.finish()


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
        if not isinstance(cell, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in cell):
            raise ParseError(f"{path}: cell {ci} must be an array of "
                             f"integer vertex indices")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError(f"{path}: 'name' must be a string")
    try:
        return PolygonalMesh(vertices, cells, name=name)
    except (StructuralDefect, OverflowError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
