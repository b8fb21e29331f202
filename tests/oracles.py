"""Independent oracles for the test suite.

Everything here is implemented from first principles (sympy exact
arithmetic, dense numpy, closed-form counting) without calling into the
package code paths under test, so agreement is evidence rather than
tautology.
"""

import numpy as np
import scipy.sparse as sps
import sympy as sp


def as_csr(matrix):
    """An assembled matrix as a scipy CSR matrix, for the tests that read
    its entries, pattern or size through scipy: assembly stores a system
    of at most ``assembly._DENSE_ROWS`` rows as an ndarray, whose zeros
    the conversion drops, and a larger one as CSR, returned as it is."""
    return matrix if sps.issparse(matrix) else sps.csr_matrix(matrix)


def class_cells(mesh):
    """Each cell class's cells, ascending, read from ``mesh.cell_class``
    alone, one array per entry of ``mesh.cell_classes``."""
    return [np.flatnonzero(mesh.cell_class == k)
            for k in range(len(mesh.cell_classes))]


def exact_polygon_integral(vertices, expr, x=None, y=None):
    """Exact integral of a sympy expression over a simple polygon.

    Fan-triangulates from the vertex centroid (fine for the convex and
    mildly concave shapes the tests feed it) and integrates each affine
    triangle map symbolically.
    """
    if x is None:
        x, y = sp.symbols("x y")
    verts = [(sp.nsimplify(vx, rational=False), sp.nsimplify(vy, rational=False))
             for vx, vy in vertices]
    n = len(verts)
    cx = sum(v[0] for v in verts) / n
    cy = sum(v[1] for v in verts) / n
    u, w = sp.symbols("u w", nonnegative=True)
    total = sp.Integer(0)
    for i in range(n):
        x0, y0 = cx, cy
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        xm = x0 + (x1 - x0) * u + (x2 - x0) * w
        ym = y0 + (y1 - y0) * u + (y2 - y0) * w
        jac = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        inner = sp.integrate(expr.subs({x: xm, y: ym}).expand(),
                             (w, 0, 1 - u))
        total += jac * sp.integrate(inner, (u, 0, 1))
    return sp.simplify(total)


def exact_scaled_moment(vertices, p, q, center, scale):
    """∫_E ((x-cx)/h)^p ((y-cy)/h)^q, exact."""
    x, y = sp.symbols("x y")
    cx = sp.nsimplify(center[0], rational=False)
    cy = sp.nsimplify(center[1], rational=False)
    h = sp.nsimplify(scale, rational=False)
    expr = ((x - cx) / h) ** p * ((y - cy) / h) ** q
    return exact_polygon_integral(vertices, expr, x, y)


def monte_carlo_integral(vertices, f, n_samples=1_000_000, seed=20260814):
    """Rejection-sampled Monte Carlo integral over a simple polygon.

    Returns (estimate, standard_error). Point-in-polygon by winding
    crossings, vectorized.
    """
    verts = np.asarray(vertices, dtype=float)
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    rng = np.random.default_rng(seed)
    pts = lo + rng.random((n_samples, 2)) * (hi - lo)
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(n_samples, dtype=bool)
    xv, yv = verts[:, 0], verts[:, 1]
    for i in range(len(verts)):
        j = (i + 1) % len(verts)
        crosses = (yv[i] > y) != (yv[j] > y)
        xi = xv[i] + (y - yv[i]) / (yv[j] - yv[i] + 1e-300) * (xv[j] - xv[i])
        inside ^= crosses & (x < xi)
    box_area = float(np.prod(hi - lo))
    vals = np.where(inside, f(x, y), 0.0)
    est = box_area * float(vals.mean())
    se = box_area * float(vals.std(ddof=1)) / np.sqrt(n_samples)
    return est, se


def badpoly_dim_symbolic(vertices, l):
    """dim B_l of a polygon, via exact symbolic boundary moments.

    B_l is the nullspace (within degree-l vector polynomials p) of the
    pairing  v -> ∫_∂E (p·n) (v - mean_∂E v)  over the vertex hat
    traces v. Works in unscaled monomials; the dimension is basis-free.
    """
    x, y, t = sp.symbols("x y t")
    verts = [(sp.nsimplify(vx, rational=False), sp.nsimplify(vy, rational=False))
             for vx, vy in vertices]
    n = len(verts)
    monos = [x ** (s - k) * y ** k for s in range(l + 1) for k in range(s + 1)]
    vecs = [(m, sp.Integer(0)) for m in monos] + [(sp.Integer(0), m) for m in monos]

    def edge_data(i):
        (x0, y0), (x1, y1) = verts[i], verts[(i + 1) % n]
        length = sp.sqrt((x1 - x0) ** 2 + (y1 - y0) ** 2)
        nx, ny = (y1 - y0) / length, -(x1 - x0) / length
        return (x0 + (x1 - x0) * t, y0 + (y1 - y0) * t), (nx, ny), length

    perimeter = sum(edge_data(i)[2] for i in range(n))
    rows = []
    for k in range(n):
        # hat at vertex k: 1 at k, 0 elsewhere, linear on each edge
        hat_mean = sp.Integer(0)
        for i in (k - 1, k):
            _, _, length = edge_data(i % n)
            hat_mean += length / 2          # ∫ hat over the two edges
        hat_mean = hat_mean / perimeter
        row = []
        for px, py in vecs:
            val = sp.Integer(0)
            for i in range(n):
                (xe, ye), (nx, ny), length = edge_data(i)
                if i == k % n:
                    hat = 1 - t
                elif (i + 1) % n == k % n:
                    hat = t
                else:
                    hat = sp.Integer(0)
                integrand = (px.subs({x: xe, y: ye}) * nx
                             + py.subs({x: xe, y: ye}) * ny) * (hat - hat_mean)
                val += length * sp.integrate(sp.expand(integrand), (t, 0, 1))
            row.append(sp.simplify(val))
        rows.append(row)
    M = sp.Matrix(rows)
    return len(vecs) - M.rank()


def ell_hat_formula(n):
    """Smallest l with 2(l+1) >= n-1."""
    l = 0
    while 2 * (l + 1) < n - 1:
        l += 1
    return l


def ell_check_formula(n):
    """Smallest l with (l+1)(l+2) >= n-1."""
    l = 0
    while (l + 1) * (l + 2) < n - 1:
        l += 1
    return l


def splitmix64_reference(seed, count):
    """Reference SplitMix-style sequence from the published constants."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        out.append(z)
    return out


def fem_p1_stiffness(vertices, cells):
    """Dense P1 FEM stiffness via explicit hat gradients."""
    V = np.asarray(vertices, dtype=float)
    A = np.zeros((len(V), len(V)))
    for cell in cells:
        idx = np.asarray(cell)
        p0, p1, p2 = V[idx]
        d = np.array([p1 - p2, p2 - p0, p0 - p1])
        area2 = abs((p1[0] - p0[0]) * (p2[1] - p0[1])
                    - (p1[1] - p0[1]) * (p2[0] - p0[0]))
        g = np.column_stack([d[:, 1], -d[:, 0]]) / area2
        A[np.ix_(idx, idx)] += 0.5 * area2 * (g @ g.T)
    return A


def fem_p1_solve(vertices, cells, boundary_mask, cell_load_integrals):
    """P1 FEM solve with the lumped one-third load rule.

    ``cell_load_integrals[i]`` is ∫ f over cell i; each of the cell's
    three vertices receives a third of it. Homogeneous Dirichlet rows
    are eliminated. Dense numpy throughout.
    """
    A = fem_p1_stiffness(vertices, cells)
    F = np.zeros(len(vertices))
    for ci, cell in enumerate(cells):
        F[np.asarray(cell)] += cell_load_integrals[ci] / 3.0
    free = np.flatnonzero(~np.asarray(boundary_mask))
    u = np.zeros(len(vertices))
    u[free] = np.linalg.solve(A[np.ix_(free, free)], F[free])
    return u


def kernel_contains(vertices, point, tol=1e-12):
    """True if ``point`` lies in the polygon's kernel (all inward
    half-planes), the defining property of a star center."""
    verts = np.asarray(vertices, dtype=float)
    p = np.asarray(point, dtype=float)
    for i in range(len(verts)):
        a, b = verts[i], verts[(i + 1) % len(verts)]
        cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if cross < -tol * np.linalg.norm(b - a):
            return False
    return True


def eoc_fit(hs, errs):
    """Least-squares slope of log err vs log h (independent of package)."""
    return float(np.polyfit(np.log(np.asarray(hs)),
                            np.log(np.asarray(errs)), 1)[0])


def boundary_flags_by_edge_walk(n_vertices, cells):
    """Boundary vertex flags from a dict walk over the undirected edges:
    the endpoints of every edge that exactly one cell uses."""
    counts = {}
    for cell in cells:
        cell = [int(i) for i in cell]
        for a, b in zip(cell, cell[1:] + cell[:1]):
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    flags = np.zeros(n_vertices, dtype=bool)
    for (a, b), count in counts.items():
        if count == 1:
            flags[a] = flags[b] = True
    return flags


def per_cell_quality(mesh):
    """Shape numbers from one polygon built per cell, in cell order.

    Returns ``(kernel_ratios, edge_ratios, total_area, first_invalid)``:
    rho / h_E and min |e| / h_E of each valid cell, the summed cell areas,
    and the index of the first cell whose polygon is invalid (None when
    all are valid; the lists then cover every cell). The reference for
    ``validate_mesh``, which builds one polygon per cell class.
    """
    from e2vem.errors import ClockwiseOrientation, NotSimple, NotStarShaped
    from e2vem.geometry import build_polygon

    kernel, edge, area = [], [], 0.0
    for ci, cell in enumerate(mesh.cells):
        try:
            poly = build_polygon(mesh.vertices[cell],
                                 normalize_orientation=False)
        except (NotSimple, NotStarShaped, ClockwiseOrientation):
            return np.array(kernel), np.array(edge), area, ci
        kernel.append(poly.kernel_inradius / poly.diameter)
        edge.append(poly.edge_lengths.min() / poly.diameter)
        area += poly.area
    return np.array(kernel), np.array(edge), area, None
