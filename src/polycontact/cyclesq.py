"""Squares of cycles as touching unit-sided quadrilaterals.

Vertex i is a quadrilateral whose corners are its four contacts, in the
order of the edges (i, i-1), (i, i+1), (i, i+2), (i, i-2).  Three layouts
are built; all of them go through one relaxation routine and one
verification gate.

Even n, squares: contact points of consecutive vertices form a regular
n-gon of unit side in the middle plane; the distance-2 contacts of odd
(even) vertices form a regular (n/2)-gon in the top (bottom) plane, rotated
half a step, with unit chords between index-consecutive points.  Each
vertex's four contacts then form a unit square exactly when the ring height
is h = sqrt(1 - 1/(4 sin^2(2 pi q / n))) for the chosen ring winding q; the
construction picks q = 1 when |sin(2 pi/n)| > 1/2 and otherwise the
smallest odd q coprime to n that keeps h real and positive.  These layouts
verify for n = 6, 8, 10; from n = 14 on they self-intersect.

Even n, rhombi: for n = 12 no such q exists (every admissible winding makes
h = 0 and the flattened squares overlap).  The winding-1 layout is lifted
instead, to ring height 1/2 with the middle ring bent up, flat, down, flat
by 0.15, and relaxed until every side has length 1 and every quadrilateral
is planar.  The result is unit-sided rhombi, not squares; `meta` records
"shape": "rhombus" and the largest |diagonal - sqrt(2)|.

Odd n: built from the even n-1 scene by splitting the two contacts T and B
apart.  The new quadrilateral is (X1, T, X2, B); X1 starts halfway from T
to the center of polygon 1, X2 halfway from B to the center of polygon n-1.
The contacts shared by two of the 2r+1 polygons nearest the split (the new
one and r on either side) are then relaxed, all others held fixed, until
every freed quadrilateral is planar, each of its sides lies in [1, 3/2] and
each corner turns by a fixed margin (strict convexity).  r = 2, 3, 4 are
tried in turn.  Polygons farther from the split keep the unit sides of the
n-1 scene, so the shortest edge of the scene is 1.

The relaxation takes damped minimum-norm Gauss-Newton steps, in the stdlib
only and deterministically.  Each evaluation computes every row's value,
each quad's diagonal normal and unit once for its four turn rows, and no
gradient: a row's gradient, over its free contacts only, is built at the
points a step is taken from.  Gram entries are summed only for rows that
share a contact, and the Cholesky factor and both triangular solves use
slice products.  Every float operation is the one, in the same order, of
the plain version kept in tests/test_cyclesq.py (full rows at every
point, a normal per turn, a dense Gram matrix), so the scenes are bit for
bit the ones it builds.

The float layout is then made exact plane first (S. Fortune, "Polyhedral
modelling with multiprecision integer arithmetic", 1997), on ints: each
quadrilateral's plane gets an int normal, its float one scaled to a
largest entry of 2^40 and rounded, and each contact goes on the line where
its two polygons' planes meet, at its float coordinate rounded to a
multiple of 2^-40 on the axis that line follows most closely.  So every
quadrilateral is planar, and corners move by about 1e-12.  An odd scene
keeps the exact corners of the n-1 scene for every contact it does not
relax, and its relaxed polygons' planes pass through them.
`represent_cycle_square` verifies every candidate scene and raises
`ConstructionError` naming n when none passes.  `meta` records the layout,
the iteration count, the final residual and the smallest angle between
adjacent polygons' planes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import cos, gcd, pi, sin, sqrt
from operator import mul

from .core import Graph, edge_key
from .geom import ROUND_BITS, Polygon3, vcross, vdot, vsub
from .scene import ConstructionError, Scene, graph_scene
from .verify import verify_scene

_EDGE_RANGE = (1.0, 1.5)  # side lengths of relaxed split quadrilaterals
_TURN_MARGIN = 0.2  # (u x v) . normal at each corner of a relaxed quad
_RIDGE = 1e-9  # damping of the minimum-norm steps
_TOL = 1e-14  # largest residual accepted as converged
_MAX_STEPS = 200


def cycle_square_graph(n: int) -> Graph:
    edges = []
    for i in range(n):
        edges.append((str(i + 1), str((i + 1) % n + 1)))
        edges.append((str(i + 1), str((i + 2) % n + 1)))
    verts = [str(i + 1) for i in range(n)]
    seen = set()
    uniq = []
    for u, v in edges:
        k = edge_key(u, v)
        if k not in seen:
            seen.add(k)
            uniq.append((u, v))
    return Graph.from_edges(uniq, vertices=verts)


def _ring_winding(n: int):
    """Odd winding q coprime to n with sin(2 pi q/n) > 1/2, smallest first."""
    for q in range(1, n, 2):
        if gcd(q, n) != 1:
            continue
        if abs(sin(2 * pi * q / n)) > 0.5 + 1e-12:
            return q
    return None


def represent_cycle_square(n: int) -> Scene:
    """Contact representation of the square of an n-cycle, n >= 6.

    Even n uses unit squares (unit-sided rhombi for n = 12); odd n relaxes
    a split of the even scene below it.  n = 5 (the complete graph K5) is
    out of scope.  Raises `ConstructionError` naming n when no layout
    verifies; the returned scene's `certificate` is its passing report.
    """
    if n == 5:
        raise ConstructionError("n = 5 is the complete graph; unsupported here")
    if n < 6:
        raise ConstructionError("need n >= 6")
    layouts = [(*_even_layout(n), {})] if n % 2 == 0 else _odd_layouts(n)
    g = cycle_square_graph(n)
    for pts, quads, meta, fixed in layouts:
        exact = _round_planes(pts, quads, fixed)
        polygons = {str(i): Polygon3(corners=tuple(exact[k] for k in quads[i]))
                    for i in sorted(quads)}
        contacts = {edge_key(str(a), str(b)): exact[(a, b)] for a, b in pts}
        meta = {"construction": "cycle-square", "arithmetic": "exact", "n": n, **meta,
                "min_dihedral_deg": _min_dihedral(pts, quads)}
        scene = graph_scene(g, polygons, contacts, meta)
        report = verify_scene(scene)
        if report.passed:
            scene.certificate = report
            return scene
    raise ConstructionError(
        f"no verified cycle-square scene for n={n}: the {meta['layout']} "
        f"layout has {len(report.violations)} violations, first "
        f"{report.violations[0]}")


def _key(i: int, j: int, n: int):
    """Contact key of the edge between vertices i and j (indices mod n)."""
    a, b = (i - 1) % n + 1, (j - 1) % n + 1
    return (a, b) if a < b else (b, a)


def _quads(n: int) -> dict:
    """Corner contact keys of each vertex's quadrilateral, in order."""
    return {i: [_key(i, i - 1, n), _key(i, i + 1, n), _key(i, i + 2, n),
                _key(i, i - 2, n)] for i in range(1, n + 1)}


def _ring_layout(n: int, q: int, h: float, bend: float) -> dict:
    """Three-plane layout: cycle contacts on the middle ring, hops above/below."""
    delta = 2 * pi * q / n
    r_mid = 1.0 / (2 * sin(delta / 2))
    r_ring = 1.0 / (2 * abs(sin(delta)))
    flip = sin(delta) < 0  # windings past the half turn mirror the offset
    offs = delta / 2 + (pi if flip else 0.0)
    pts = {}
    for i in range(1, n + 1):
        z = bend * cos(pi * i / 2) if bend else 0.0
        pts[_key(i, i + 1, n)] = (r_mid * cos(i * delta),
                                  r_mid * sin(i * delta), z)
        pts[_key(i, i + 2, n)] = (r_ring * cos(i * delta + offs),
                                  r_ring * sin(i * delta + offs),
                                  h if i % 2 == 1 else -h)
    return pts


def _even_layout(n: int):
    quads = _quads(n)
    q = _ring_winding(n)
    if q is not None:
        h = sqrt(max(0.0, 1.0 - 1.0 / (4 * sin(2 * pi * q / n) ** 2)))
        pts = _ring_layout(n, q, h, 0.0)
        meta = {"layout": "square", "shape": "square", "winding": q,
                "ring_height": h}
    else:
        pts = _ring_layout(n, 1, 0.5, 0.15)
        meta = {"layout": "rhombus", "shape": "rhombus", "winding": 1}

    steps, residual = _relax(pts, set(pts), _square_rows, list(quads.values()))
    meta["iterations"], meta["residual"] = steps, residual
    meta["max_diagonal_defect"] = max(
        abs(math.dist(pts[c[k]], pts[c[k + 2]]) - sqrt(2))
        for c in quads.values() for k in range(2))
    return pts, quads, meta


def _odd_layouts(n: int):
    """Relaxed splits of the n-1 scene, freeing 5, 7, then 9 polygons, each
    with the exact n-1 corners of the contacts it keeps."""
    m = n - 1
    base, base_quads, base_meta = _even_layout(m)
    base_exact = _round_planes(base, base_quads, {})
    top, bottom = (1, m - 1), (2, m)
    x1, t, x2, b = (1, n), (m - 1, n), (m, n), (2, n)
    renamed = {1: {top: x1}, m - 1: {top: t}, m: {bottom: x2}, 2: {bottom: b}}
    quads = {i: [renamed.get(i, {}).get(k, k) for k in c]
             for i, c in base_quads.items()}
    quads[n] = [x1, t, x2, b]
    seed = {k: p for k, p in base.items() if k not in (top, bottom)}
    seed[t], seed[b] = base[top], base[bottom]
    seed[x1] = _halfway(base[top], [base[k] for k in base_quads[1]])
    seed[x2] = _halfway(base[bottom], [base[k] for k in base_quads[m]])
    for r in (2, 3, 4):
        freed = sorted({n, *range(1, r + 1), *range(m - r + 1, m + 1)})
        free = {k for k in seed if k[0] in freed and k[1] in freed}
        pts = dict(seed)
        steps, residual = _relax(pts, free, _split_rows,
                                 [quads[i] for i in freed])
        lengths = [math.dist(pts[c[k - 1]], pts[c[k]])
                   for c in quads.values() for k in range(4)]
        yield pts, quads, {
            "layout": "split", "shape": "quadrilateral",
            "base_layout": base_meta["layout"], "relaxed_polygons": len(freed),
            "iterations": steps, "residual": residual,
            "shortest_edge": min(lengths), "longest_edge": max(lengths)}, {
            k: base_exact[k] for k in seed if k not in free}


def _round_planes(pts: dict, quads: dict, fixed: dict) -> dict:
    """Exact corners for the float contacts `pts`, plane first.

    Quad i's plane n.x = d has the int normal round(2^40 * f / max|f|) of
    its float normal f.  Through the quad's `fixed` corners (exact points
    kept from another scene): d = n.f for one; for two, n loses its
    component along their difference first.  Without one, d is n.c
    rounded, c the float centroid.  Then n and d are scaled to coprime
    ints.  Contact (i, j) goes on the line where planes i and j meet: on
    the axis k of the largest entry of their normals' cross product its
    coordinate is the float one rounded to a multiple of 2^-40, and
    Cramer's rule gives the other two.
    """
    one = 1 << ROUND_BITS
    planes = {}
    for i, c in quads.items():
        q = [pts[k] for k in c]
        f = vcross(vsub(q[2], q[0]), vsub(q[3], q[1]))
        top = max(map(abs, f))
        n = tuple(round(x / top * one) for x in f)
        kept = [fixed[k] for k in c if k in fixed]
        if len(kept) == 2:
            e = vsub(kept[1], kept[0])
            s = Fraction(vdot(n, e)) / vdot(e, e)
            n = tuple(a - s * b for a, b in zip(n, e))
        d = vdot(n, kept[0]) if kept else round(sum(vdot(n, x) for x in q) / 4)
        scale = math.lcm(*(Fraction(x).denominator for x in (*n, d)))
        n, d = [int(x * scale) for x in n], int(d * scale)
        g = math.gcd(*n, d)
        planes[i] = tuple(x // g for x in n), d // g
    out = {}
    for key, p in pts.items():
        if key in fixed:
            out[key] = fixed[key]
            continue
        (ni, di), (nj, dj) = planes[key[0]], planes[key[1]]
        u = vcross(ni, nj)
        k = max(range(3), key=lambda axis: abs(u[axis]))
        a, b = (k + 1) % 3, (k + 2) % 3
        xk = round(p[k] * one)
        ri, rj = di * one - ni[k] * xk, dj * one - nj[k] * xk
        corner = [Fraction(xk, one)] * 3
        corner[a] = Fraction(ri * nj[b] - rj * ni[b], u[k] * one)
        corner[b] = Fraction(ni[a] * rj - nj[a] * ri, u[k] * one)
        out[key] = tuple(corner)
    return out


def _halfway(corner, polygon):
    center = [sum(p[a] for p in polygon) / len(polygon) for a in range(3)]
    return tuple((corner[a] + center[a]) / 2 for a in range(3))


# Residual rows: (value, gradient, args).  gradient(free, *args) is the
# row's {free contact key: gradient vector}, keys in the row's corner
# order; `_relax` calls it only at the points it takes a step from.

def _square_rows(p, quads, free):
    """Planarity of every quad, then every side at unit length."""
    out = [_plane_row(p, c) for c in quads]
    for c in quads:
        for k in range(4):
            length, d = _side(p, c[k - 1], c[k])
            out.append((length - 1.0, _side_grad, (c[k - 1], c[k], d, length)))
    return out


def _split_rows(p, quads, free):
    """Per freed quad: planarity, each side at a free contact while its
    length is outside _EDGE_RANGE, each turn while below _TURN_MARGIN."""
    lo, hi = _EDGE_RANGE
    out = []
    for c in quads:
        out.append(_plane_row(p, c))
        turns = _turns(p, c)
        for k in range(4):
            a, b = c[k - 1], c[k]
            if a in free or b in free:
                length, d = _side(p, a, b)
                v = length - lo
                if v < 0 or v > hi - lo:
                    out.append((v if v < 0 else v - (hi - lo), _side_grad,
                                (a, b, d, length)))
            turn, args = turns[k]
            if turn < _TURN_MARGIN:
                out.append((turn - _TURN_MARGIN, _turn_grad, args))
    return out


def _side(p, a, b):
    d = vsub(p[a], p[b])
    return sqrt(vdot(d, d)), d


def _side_grad(free, a, b, d, length):
    g = (d[0] / length, d[1] / length, d[2] / length)
    return {k: gk for k, gk in ((a, g), (b, (-g[0], -g[1], -g[2])))
            if k in free}


def _plane_row(p, c):
    """det(b - a, c - a, d - a), zero exactly when the quad is planar."""
    a = p[c[0]]
    u, v, w = vsub(p[c[1]], a), vsub(p[c[2]], a), vsub(p[c[3]], a)
    gu = vcross(v, w)
    return vdot(u, gu), _plane_grad, (c, u, v, w, gu)


def _plane_grad(free, c, u, v, w, gu):
    gv, gw = vcross(w, u), vcross(u, v)
    ga = (-(gu[0] + gv[0] + gw[0]), -(gu[1] + gv[1] + gw[1]),
          -(gu[2] + gv[2] + gw[2]))
    return {k: g for k, g in zip(c, (ga, gu, gv, gw)) if k in free}


def _turns(p, c):
    """Turn at each corner c[k]: ((c[k]-c[k-1]) x (c[k+1]-c[k])) . unit
    normal, as (value, gradient args).  All four positive means strictly
    convex.

    The normal is the diagonal cross product (c[2]-c[0]) x (c[3]-c[1]),
    held fixed in the gradient.  Taken at corner k as
    (c[k+1]-c[k-1]) x (c[k+2]-c[k]) it is the same IEEE vector for every
    k, since x - y = -(y - x) and (-a) * b = -(a * b) hold exactly, so it
    and its unit are computed once per quad.  (Only the sign of an exactly
    zero component could differ, and a zero's sign never changes a
    nonzero sum.)
    """
    q = [p[key] for key in c]
    normal = vcross(vsub(q[2], q[0]), vsub(q[3], q[1]))
    size = sqrt(vdot(normal, normal))
    unit = (normal[0] / size, normal[1] / size, normal[2] / size)
    edges = [vsub(q[k], q[k - 1]) for k in range(4)]  # c[k] - c[k-1]
    out = []
    for k in range(4):
        u, v = edges[k], edges[(k + 1) % 4]
        out.append((vdot(vcross(u, v), unit),
                    (c[k - 1], c[k], c[(k + 1) % 4], u, v, unit)))
    return out


def _turn_grad(free, a, b, d, u, v, unit):
    gu, gv = vcross(v, unit), vcross(unit, u)
    grads = ((a, (-gu[0], -gu[1], -gu[2])),
             (b, (gu[0] - gv[0], gu[1] - gv[1], gu[2] - gv[2])), (d, gv))
    return {k: g for k, g in grads if k in free}


def _relax(pts: dict, free: set, rows_fn, quads):
    """Move the `free` points of `pts` until every row of
    rows_fn(pts, quads, free) is zero.

    Each step is the damped minimum-norm Gauss-Newton step -J^T y with
    (J J^T + ridge I) y = r, halved until the sum of squared residuals
    drops.  Rows are recomputed at every trial point, so one-sided bounds
    enter only while violated; their gradients are built only at the
    points a step is taken from.  Returns (steps taken, largest residual).
    """
    def evaluate(p):
        rows = rows_fn(p, quads, free)
        return rows, sum(row[0] * row[0] for row in rows)

    rows, cost = evaluate(pts)
    for steps in range(_MAX_STEPS + 1):
        residual = max((abs(row[0]) for row in rows), default=0.0)
        if residual <= _TOL or steps == _MAX_STEPS:
            return steps, residual
        step = _min_norm_step([(v, grad(free, *args)) for v, grad, args in rows])
        scale = 1.0
        while True:
            trial = dict(pts)
            for k, s in step.items():
                q = pts[k]
                trial[k] = (q[0] + scale * s[0], q[1] + scale * s[1],
                            q[2] + scale * s[2])
            trial_rows, trial_cost = evaluate(trial)
            if trial_cost < cost:
                break
            scale /= 2
            if scale < 1e-4:
                return steps, residual
        pts.update(trial)
        rows, cost = trial_rows, trial_cost


def _min_norm_step(rows) -> dict:
    """-J^T y with (J J^T + ridge I) y = r, for rows (value, {key: gradient}).

    Gram entry (i, j), j <= i, is the sum of the dot products at the keys
    the two rows share, in row i's key order; rows that share no key get
    zero without a sum.
    """
    size = len(rows)
    grads = [g for _, g in rows]
    gram = [[0.0] * size for _ in range(size)]
    earlier = {}  # contact key -> (row, gradient) of the rows so far
    for i, gi in enumerate(grads):
        terms = {}  # j -> dot products at the keys rows i and j share
        for k, g in gi.items():
            seen = earlier.setdefault(k, [])
            seen.append((i, g))
            for j, h in seen:
                terms.setdefault(j, []).append(
                    g[0] * h[0] + g[1] * h[1] + g[2] * h[2])  # vdot
        for j, t in terms.items():
            gram[i][j] = gram[j][i] = sum(t)
        gram[i][i] += _RIDGE
    y = _cholesky_solve(gram, [v for v, _ in rows])
    step = {}
    for gi, yi in zip(grads, y):
        for k, g in gi.items():
            s = step.setdefault(k, [0.0, 0.0, 0.0])
            s[0] -= yi * g[0]
            s[1] -= yi * g[1]
            s[2] -= yi * g[2]
    return step


def _cholesky_solve(a, b):
    """Solve a y = b by a Cholesky factor grown one row at a time; every
    inner product is sum(map(mul, ...)) over the leading entries, in
    increasing index order."""
    low = []
    for ai in a:
        li = []
        for aij, lj in zip(ai, low):
            li.append((aij - sum(map(mul, li, lj))) / lj[-1])
        li.append(sqrt(max(ai[len(li)] - sum(map(mul, li, li)), _RIDGE)))
        low.append(li)
    y = []
    for li, bi in zip(low, b):
        y.append((bi - sum(map(mul, li, y))) / li[-1])
    for i in reversed(range(len(y))):
        col = [lt[i] for lt in low[i + 1:]]
        y[i] = (y[i] - sum(map(mul, col, y[i + 1:]))) / low[i][i]
    return y


def _min_dihedral(pts, quads) -> float:
    """Smallest angle, in degrees, between the planes of adjacent polygons."""
    normals = {}
    for i, c in quads.items():
        a, b, d, e = (pts[k] for k in c)
        nv = vcross(vsub(d, a), vsub(e, b))
        normals[i] = tuple(x / sqrt(vdot(nv, nv)) for x in nv)
    return min(math.degrees(math.acos(min(1.0, abs(vdot(normals[i],
                                                         normals[j])))))
               for i, j in pts)
