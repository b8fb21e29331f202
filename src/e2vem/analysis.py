"""Error norms, empirical convergence rates, and coercivity-scan tables.

Errors compare the elementwise linear elliptic projection of the discrete
solution (values and gradient) against the exact solution; this is the
metric the method is designed around, since the shape functions
themselves are never evaluated.
"""
from __future__ import annotations

import datetime
import json
from dataclasses import astuple, dataclass, fields

import numpy as np

from .degree import dim_badpoly, ell_check, ell_hat, min_admissible_l
from .errors import DegenerateData, MissingExactSolution
from .geometry import (PolygonalMesh, PolygonStack, at_points,
                       class_groups, member_points, stack_polygons,
                       stack_quadrature)
from .meshgen import (MeshFamilySpec, concave_octagon_polygon, make_mesh,
                      random_convex_polygon, regular_polygon,
                      split_hexagon_polygon, split_triangle_polygon)
from .polyspace import stack_monomials
from .projectors import compute_pinabla
from .quadrature import triangle_rule

_ERROR_QUADRATURE_DEGREE = 8
#: Largest miss of a compressed rule's monomial moments, relative to the
#: largest fan-rule moment (the area: scaled monomials are at most 1 on
#: the polygon), at which the rule replaces the fan rule.
_COMPRESS_TOLERANCE = 1e-12
#: Fewest members of a class that has a compressed rule, which its error
#: norms use, and its load where :func:`rule_parts` allows. Recombining
#: costs 1.4-3.2 ms for a class alone and 0.6-1.1 ms a class when the
#: large classes of one vertex count share a stack (4.4 ms for
#: concave_star L4's four heptagon classes, 2.4 ms for cut_corner_octagon
#: L4's four triangle classes). Each member then skips N - 45 of the 25 n
#: error points and of the load's fan points (16 n at l = 1, 25 n at
#: l = 2): 155 and 155 of an octagon's at l = 2, 105 and 105 of a
#: hexagon's, 55 and 19 of a quadrilateral's at l = 1, 30 and none of a
#: triangle's. A skipped error point saves 0.078-0.089 us, a skipped load
#: point 0.033-0.039 us (each pass's time saved over its points saved on
#: the L3-L4 meshes, against every class on the fan rule): 17-20 us a
#: member of an octagon class, 12-13 us of a hexagon class, 5-6 us of a
#: quadrilateral class, 2.3-2.7 us of a triangle class. So a class breaks
#: even at 56-94 members in a stack with others and 105-184 alone as an
#: octagon or hexagon, at 107-306 as a quadrilateral and 226-596 as a
#: triangle (shared 2-core VM); a class between this threshold and its
#: break-even loses at most 2.3 ms. Smaller classes, every singleton
#: among them, keep the fan rule.
_COMPRESS_MEMBERS = 50


def compressed_rules(s: PolygonStack):
    """Each polygon's positive compressed rule of exactness
    ``_ERROR_QUADRATURE_DEGREE``, for a stack of polygons: its points
    (K, 2) and weights (K,) with K = dim P_8, or None where the fan rule
    stays. A mesh's rules are computed once, by :func:`class_rules`.

    The rule is a Caratheodory-Tchakaloff recombination of the fan rule
    (Piazzon, Sommariva and Vianello, Dolomites Res. Notes Approx. 10,
    2017): K of the fan nodes, bit for bit, whose nonnegative weights
    keep the fan rule's scaled-monomial moments; see :func:`_recombine`.
    Some weights may be 0. A rule whose moments miss the fan moments by
    more than ``_COMPRESS_TOLERANCE`` is refused."""
    degree = _ERROR_QUADRATURE_DEGREE
    points, weights = stack_quadrature(s, degree)
    vander = stack_monomials(s, points, degree)
    rules = []
    for p, w, v, keep, u in zip(points, weights, vander,
                                *_recombine(vander, weights)):
        order = np.argsort(keep)
        keep, u = keep[order], u[order]
        moments = v.T @ w
        miss = np.abs(v[keep].T @ u - moments).max()
        rules.append((p[keep], u) if miss <= _COMPRESS_TOLERANCE * moments[0]
                     else None)
    return rules


def class_rules(mesh: PolygonalMesh) -> dict:
    """The compressed rule of each class of ``mesh`` with at least
    ``_COMPRESS_MEMBERS`` members whose rule is not refused, keyed by its
    row of ``mesh.cell_classes``: one :func:`compressed_rules` stack per
    vertex count (per ``_STACK_ROWS`` such classes). The mesh keeps them
    (``PolygonalMesh._class_rules``), so the load and the error norms
    share one build; :func:`rule_parts` reads them."""
    polys = mesh.cell_classes
    large = np.flatnonzero(np.bincount(mesh.cell_class) >= _COMPRESS_MEMBERS)
    rules = {}
    if not len(large):
        return rules
    for *_, rows in class_groups([polys[k] for k in large]):
        found = compressed_rules(stack_polygons([polys[k] for k in large[rows]]))
        rules.update((k, r) for k, r in zip(large[rows].tolist(), found)
                     if r is not None)
    return rules


def rule_parts(mesh: PolygonalMesh, rows, s: PolygonStack, degree: int):
    """The one decision of which rule a class integrates on, for the load
    and the error norms: the classes ``rows`` of ``mesh.cell_classes``,
    of one vertex count and stacked in ``s``, split into a fan part and
    then a compressed part, each left out when it has no class. Yields
    ``(part, sub, points, weights)``: the part's positions in ``rows``,
    its stack (``s`` itself for a part of every class, else
    ``s.take(part)``) and its points (c, P, 2) and weights (c, P), exact
    to ``degree``.

    A class takes its rule from :func:`class_rules` when it has one, the
    rule's exactness ``_ERROR_QUADRATURE_DEGREE`` covers ``degree``, and
    the rule's K nodes are fewer than the fan rule's at ``degree``; every
    other class the fan rule of ``geometry.stack_quadrature``. So a
    triangle's load at l = 0 (degree 4, 27 fan nodes) and any load above
    l = 2 stay on the fan rule."""
    rules = mesh._class_rules
    fan_nodes = s.vertices.shape[1] * len(triangle_rule(degree).weights)
    taken = np.array([c in rules and degree <= _ERROR_QUADRATURE_DEGREE
                      and len(rules[c][1]) < fan_nodes for c in rows.tolist()],
                     dtype=bool)
    fan, compressed = np.flatnonzero(~taken), np.flatnonzero(taken)
    if len(fan):
        sub = s.take(fan) if len(compressed) else s
        yield fan, sub, *stack_quadrature(sub, degree)
    if len(compressed):
        points, weights = zip(*(rules[c] for c in rows[compressed].tolist()))
        yield (compressed, s.take(compressed) if len(fan) else s,
               np.array(points), np.array(weights))


#: Relative tilt of the node scales and scores by which
#: :func:`_recombine` settles near-ties, as between the nodes of a
#: symmetric polygon, toward the lower node: far above the rounding of
#: the LU's entries (so a translated copy of a polygon, whose nodes round
#: differently, keeps the same nodes), far below any gap that matters
#: to the pivots.
_TIE_TILT = 1e-6


def _recombine(vander, weights):
    """Caratheodory-Tchakaloff recombination of positive rules, a stack
    of them at once: for each row's Vandermonde (N, K) and positive
    weights (N,), K node indices and nonnegative weights with the same
    moments ``vander.T @ weights``, up to rounding.

    LU with partial pivoting of the Vandermonde, its rows scaled by the
    roots of the weights, picks a basis of K nodes; the others are the
    candidates. Each step moves the weights along the null vector of the
    moment matrix that scales every candidate's weight down by one factor
    and makes up their moments on the basis, until the candidates reach 0
    or a basis weight does first. Then that basis node leaves the rule,
    and the candidate whose moments took most weight from it enters the
    basis. So every step but the last removes one node, the weights stay
    nonnegative, and at most N - K + 1 steps are taken. The basis inverse
    and the step are updated by the product-form pivot of the simplex
    method."""
    c, size, k = vander.shape
    tilt = 1.0 - _TIE_TILT * np.arange(size) / size
    root = np.sqrt(weights) * tilt
    lu, order = _lu_rows(vander * root[:, :, None])
    # in the coordinates of U, a node's moment row is its row of the unit
    # lower L over its root weight
    lower = np.tril(lu[:, :k], -1) + np.eye(k)
    # the inverse of the basis nodes' moment rows, and the candidates' rows
    inverse, cand = np.linalg.inv(np.swapaxes(lower, 1, 2)), lu[:, k:]
    basis, nodes = order[:, :k].copy(), order[:, k:]
    inverse *= np.take_along_axis(root, basis, 1)[:, :, None]
    cand *= 1.0 / np.take_along_axis(root, nodes, 1)[..., None]
    on = np.take_along_axis(weights, basis, 1)
    off = np.take_along_axis(weights, nodes, 1)
    delta = (inverse @ np.einsum("cr,crk->ck", off, cand)[..., None])[..., 0]
    out_nodes, out_weights = basis.copy(), np.zeros((c, k))
    rows = np.arange(c)    # the rows still moving
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(size - k + 1):
            ratio = delta / on
            p, lowest = ratio.argmin(1), ratio.min(1)
            done = ~(lowest < -1.0)  # no basis weight reaches 0 first
            if done.any():
                out_nodes[rows[done]] = basis[done]
                out_weights[rows[done]] = np.maximum(on + delta, 0.0)[done]
                if done.all():
                    break
                left = ~done
                rows, p, lowest = rows[left], p[left], lowest[left]
                basis, nodes, inverse, cand, on, off, delta = (
                    a[left] for a in (basis, nodes, inverse, cand, on, off,
                                      delta))
            ar = np.arange(len(rows))
            shrink = 1.0 + 1.0 / lowest
            on -= delta / lowest[:, None]
            delta *= shrink[:, None]
            off *= shrink[:, None]
            # node p leaves; the live candidate j that took most weight
            # from it enters, with its weight
            leave = inverse[ar, p]
            j = ((cand @ leave[:, :, None])[..., 0] * off
                 * tilt[nodes]).argmin(1)
            col = (inverse @ cand[ar, j][:, :, None])[..., 0]
            enter = off[ar, j]
            delta -= col * enter[:, None]
            # the pivot x -> x - (col - e_p) x[p] / col[p]
            pivot = col[ar, p]
            col[ar, p] -= 1.0
            col /= pivot[:, None]
            inverse -= col[:, :, None] * leave[:, None, :]
            delta -= col * delta[ar, p][:, None]
            on[ar, p] = enter
            off[ar, j] = 0.0
            basis[ar, p] = nodes[ar, j]
    return out_nodes, out_weights


def _lu_rows(a):
    """LU factors with partial pivoting of a stack of tall matrices
    (c, N, K), K steps at once across the stack: the factors packed as
    LAPACK's ``dgetrf`` packs them, unit lower L below the diagonal and U
    on and above it, and each row's original index. A step pivots on the
    first row of largest magnitude in its column, as ``dgetrf`` does. The
    steps work on the transposes, so that the updates run along the N
    rows, not the K columns."""
    t = np.swapaxes(a, 1, 2).copy()   # (c, K, N)
    c, k, size = t.shape
    order = np.tile(np.arange(size), (c, 1))
    rows = np.arange(c)[:, None]
    swap = np.empty((c, 2), dtype=np.intp)  # step j's rows j and pivot
    for j in range(k):
        swap[:, 0] = j
        swap[:, 1] = j + np.abs(t[:, j, j:]).argmax(1)
        t[rows, :, swap] = t[rows, :, swap[:, ::-1]]
        order[rows, swap] = order[rows, swap[:, ::-1]]
        t[:, j, j + 1:] /= t[:, j, j, None]
        t[:, j + 1:, j + 1:] -= t[:, j + 1:, j, None] * t[:, j, None, j + 1:]
    return np.ascontiguousarray(np.swapaxes(t, 1, 2)), order


def _projection_errors(mesh: PolygonalMesh, vertex_values, exact,
                       exact_gradient):
    """Squared L2 and H1-seminorm distances between the per-cell linear
    projection of the vertex data and the exact solution and gradient,
    summed over cells. The projectors are computed on the stacks of one
    vertex count that ``geometry.class_groups`` yields, and each stack is
    split by :func:`rule_parts` at ``_ERROR_QUADRATURE_DEGREE``: the
    classes with a rule of the mesh's :func:`class_rules` take it, the
    others the fan rule. The exact fields are evaluated on the chunks of
    members that ``geometry.member_points`` yields across the classes of
    each part. Raises ValueError unless the vertex data holds one value
    per mesh vertex."""
    u = np.asarray(vertex_values, dtype=float)
    if u.shape != (mesh.n_vertices,):
        raise ValueError(f"vertex data has shape {u.shape}, expected "
                         f"({mesh.n_vertices},): one value per mesh vertex")
    l2_sq = h1_sq = 0.0
    polys = mesh.cell_classes
    for *_, rows in class_groups(polys):
        s = stack_polygons([polys[k] for k in rows])
        pinabla = compute_pinabla(s)                            # (c, 3, n)
        for part, sub, qpts, qw in rule_parts(mesh, rows, s,
                                              _ERROR_QUADRATURE_DEGREE):
            linear = stack_monomials(sub, qpts, 1)              # (c, P, 3)
            part_pinabla = pinabla[part]
            # each part sums its chunks before adding to the totals
            l2_part = h1_part = 0.0
            for c, vertices, x, y in member_points(mesh, rows[part], qpts):
                coeffs = np.einsum("mn,man->ma", u[vertices], part_pinabla[c])
                shape = (len(c), qw.shape[1])
                # in-place updates: one norm's temporaries at a time bound
                # the peak memory
                err = linear[c, :, 1]
                err *= coeffs[:, 1:2]
                err += coeffs[:, :1]
                eta = linear[c, :, 2]
                eta *= coeffs[:, 2:3]
                err += eta
                del eta
                err -= at_points(exact(x, y), x).reshape(shape)
                err *= err
                l2_part += float(np.einsum("mp,mp->m", err, qw[c]).sum())
                del err
                gx, gy = exact_gradient(x, y)
                # the projected gradient is constant per cell
                scale = sub.diameter[c, None]
                dx = coeffs[:, 1:2] / scale - at_points(gx, x).reshape(shape)
                del gx
                dy = coeffs[:, 2:3] / scale - at_points(gy, x).reshape(shape)
                del gy
                dx *= dx
                dy *= dy
                dx += dy
                del dy
                h1_part += float(np.einsum("mp,mp->m", dx, qw[c]).sum())
            l2_sq += l2_part
            h1_sq += h1_part
    return l2_sq, h1_sq


def solution_errors(result):
    """(l2, h1) errors of a :class:`SolutionResult` against the declared
    exact solution."""
    problem = result.problem
    if problem.exact_solution is None or problem.exact_gradient is None:
        raise MissingExactSolution(
            "solution_errors needs an exact solution and gradient")
    l2_sq, h1_sq = _projection_errors(
        result.mesh, result.vertex_values, problem.exact_solution,
        problem.exact_gradient)
    return float(np.sqrt(l2_sq)), float(np.sqrt(h1_sq))


def eoc_rates(hs, errs):
    """Least-squares convergence rate and per-step rates.

    Returns ``(fitted, steps)`` where ``fitted`` is the slope of
    log(err) against log(h) and ``steps[i]`` compares rows i, i+1.
    """
    h = np.asarray(hs, dtype=float)
    e = np.asarray(errs, dtype=float)
    if len(h) != len(e):
        raise DegenerateData("mesh sizes and errors differ in length")
    if len(h) < 2:
        raise DegenerateData("need at least two levels to fit a rate")
    if not (np.isfinite(h).all() and np.isfinite(e).all()):
        raise DegenerateData("non-finite mesh size or error")
    if (h <= 0.0).any() or (e <= 0.0).any():
        raise DegenerateData("non-positive mesh size or error")
    if len(np.unique(h)) != len(h):
        raise DegenerateData("repeated mesh size")
    lh, le = np.log(h), np.log(e)
    fitted = float(np.polyfit(lh, le, 1)[0])
    steps = [float((le[i] - le[i + 1]) / (lh[i] - lh[i + 1]))
             for i in range(len(h) - 1)]
    return fitted, steps


# -- coercivity scans --------------------------------------------------

@dataclass(frozen=True)
class ScanRow:
    n_vertices: int
    ell_hat: int
    ell_check: int
    minimal_l: int
    dim_badpoly_at_minimal: int


#: Concavities of the concave_octagon scan, which ignores vertex counts.
_CONCAVE_ALPHAS = (0.0, 0.2, 0.4, 0.6)


#: Each polygon family of the coercivity scan: its polygons from the
#: vertex counts and seeds, and the vertex counts it scans by default.
_SCAN_FAMILIES = {
    "regular": (
        lambda ns, seeds: [regular_polygon(n) for n in ns],
        range(3, 21)),
    "random_convex": (
        lambda ns, seeds: [random_convex_polygon(n, s)
                           for n in ns for s in seeds],
        range(4, 21)),
    "split_triangle": (
        lambda ns, seeds: [split_triangle_polygon(n - 3) for n in ns],
        range(3, 13)),
    "split_hexagon": (
        lambda ns, seeds: [split_hexagon_polygon(n - 6) for n in ns],
        range(7, 25)),
    "concave_octagon": (
        lambda ns, seeds: list(map(concave_octagon_polygon, _CONCAVE_ALPHAS)),
        range(8, 9)),
}


def scan_polygon(poly) -> ScanRow:
    n = poly.n_vertices
    evidence = min_admissible_l(poly)
    return ScanRow(n, ell_hat(n), ell_check(n), evidence.l,
                   dim_badpoly(poly, evidence.l))


def coercivity_scan(family: str, n_range=None, seeds=(0,)):
    """Per-polygon degree table over a named family.

    ``n_range`` holds vertex counts, by default the family's own in
    ``_SCAN_FAMILIES`` (ignored for concave_octagon, which sweeps the
    concavities ``_CONCAVE_ALPHAS``); ``seeds`` only matters for
    random_convex. Deterministic given the arguments.
    """
    if family not in _SCAN_FAMILIES:
        raise ValueError(f"unknown polygon family {family!r}")
    polygons, default = _SCAN_FAMILIES[family]
    return [scan_polygon(poly) for poly in
            polygons(default if n_range is None else n_range, seeds)]


def _preamble(config) -> str:
    lines = []
    if config is not None:
        lines.append("# config: " + json.dumps(config, sort_keys=True))
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    lines.append("# generated: " + stamp)
    return "\n".join(lines) + "\n"


def scan_csv_lines(rows) -> list:
    """The header and one line per :class:`ScanRow`: the table that
    :func:`scan_to_csv` writes and the CLI prints."""
    return ([",".join(f.name for f in fields(ScanRow))]
            + [",".join(map(str, astuple(r))) for r in rows])


def scan_to_csv(rows, path, config=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_preamble(config))
        fh.writelines(line + "\n" for line in scan_csv_lines(rows))


# -- convergence studies -----------------------------------------------

@dataclass(frozen=True)
class StudyRow:
    h: float
    ncells: int
    dofs: int
    err_l2: float
    err_h1: float


_STUDY_HEADER = "h,ncells,dofs,err_l2,err_h1,rate_l2,rate_h1"


@dataclass(frozen=True)
class StudyReport:
    """Per-level errors plus fitted and per-step convergence rates."""

    rows: tuple
    rate_l2: float
    rate_h1: float
    steps_l2: tuple
    steps_h1: tuple
    config: dict = None

    def __post_init__(self):
        hs = [r.h for r in self.rows]
        if any(b >= a for a, b in zip(hs, hs[1:])):
            raise DegenerateData("mesh sizes must decrease across rows")
        if any(r.err_l2 <= 0.0 or r.err_h1 <= 0.0 for r in self.rows):
            raise DegenerateData("non-positive error in study rows")

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_preamble(self.config))
            fh.write(_STUDY_HEADER + "\n")
            for i, r in enumerate(self.rows):
                rl2 = "" if i == 0 else format(self.steps_l2[i - 1], ".6g")
                rh1 = "" if i == 0 else format(self.steps_h1[i - 1], ".6g")
                fh.write(f"{format(r.h, '.12g')},{r.ncells},{r.dofs},"
                         f"{format(r.err_l2, '.12e')},"
                         f"{format(r.err_h1, '.12e')},{rl2},{rh1}\n")
            fh.write(f"# fitted: rate_l2={format(self.rate_l2, '.6g')} "
                     f"rate_h1={format(self.rate_h1, '.6g')}\n")


def build_report(rows, config=None) -> StudyReport:
    rate_l2, steps_l2 = eoc_rates([r.h for r in rows],
                                  [r.err_l2 for r in rows])
    rate_h1, steps_h1 = eoc_rates([r.h for r in rows],
                                  [r.err_h1 for r in rows])
    return StudyReport(tuple(rows), rate_l2, rate_h1, tuple(steps_l2),
                       tuple(steps_h1), config)


def run_convergence_study(mesh_family: str, levels, problem,
                          strategy="minimal", load_mode: str = "mean",
                          solver: str = "auto", tol: float = 1e-12,
                          config: dict = None) -> StudyReport:
    """Solve on a refinement sequence and fit convergence rates.

    ``levels`` is an int (levels 0..levels-1) or an explicit iterable.
    """
    from .assembly import solve_problem

    if isinstance(levels, int):
        levels = range(levels)
    levels = list(levels)
    if len(levels) < 2:
        raise DegenerateData("need at least two levels to fit a rate")
    rows = []
    for level in levels:
        mesh = make_mesh(MeshFamilySpec(mesh_family, level=level))
        result = solve_problem(mesh, strategy, problem,
                               load_mode=load_mode, solver=solver, tol=tol)
        el2, eh1 = solution_errors(result)
        rows.append(StudyRow(mesh.h, mesh.n_cells, result.n_dofs, el2, eh1))
    return build_report(rows, config)
