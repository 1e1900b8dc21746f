"""Exact (rational) and epsilon-tolerant 3D geometry for touching-polygon scenes.

Coordinates are either exact (`fractions.Fraction`, or ints once
`verify.KernelScene` has scaled a scene) or `float` (epsilon mode).  All
predicates go through an `ArithmeticContext`, so the same code path serves
both modes; only the sign test differs.

On int coordinates the polygon checks, the plane tests and the chord
clipping of transversal pairs are division-free: plane normals and line
directions are divided by the gcd of their entries, the intersection line's
point is an int vector over an int weight, and chord bounds are int pairs
compared by cross-multiplication.  `Fraction`s are built only for the two
winning chord bounds of a pair and for the points derived from them (the
midpoint probe and touch witnesses), and by the degenerate-polygon
classifiers.

Which corners two polygons share comes into `classify_pair` as a *match*:
for each corner of either polygon, whether it equals (`point_eq`) some
corner of the other.  `verify.KernelScene` reads the match off its
per-scene point ids; without one, `classify_pair` compares the corners
pairwise.  Either way a shared corner is located as "corner" and any other
corner goes straight to the plane test, so `point_eq` scans are left only
for points derived inside a pair (chord ends, midpoints).

The contact model implemented by `classify_pair` treats polygons as *open*
filled regions:

* interiors (relative interiors for segments) must be disjoint,
* a corner of one polygon may lie on another polygon only if it coincides
  with one of that polygon's corners,
* any other closed-set intersection (edge crossing an edge, or an edge
  running through the other polygon, e.g. along the diagonal between two
  shared corners) is tolerated and reported as a boundary touch.

Only convex polygons (plus degenerate segments and single points) are
supported by `classify_pair`; that covers every construction in this
package and keeps the chord logic exact and simple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

Point3 = tuple  # (x, y, z) of Fraction or float


class GeometryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Arithmetic context
# ---------------------------------------------------------------------------


class ArithmeticContext:
    """Sign tests and point comparisons for exact or float arithmetic.

    In exact mode every comparison is literal.  In float mode a quantity
    with magnitude <= eps counts as zero and points within eps (L-inf)
    coincide; callers are expected to keep scenes at unit scale.
    """

    def __init__(self, exact: bool = True, eps: float = 1e-9):
        if not exact and not (math.isfinite(eps) and eps >= 0):
            raise ValueError(f"epsilon must be finite and >= 0, not {eps!r}")
        self.exact = exact
        self.eps = 0 if exact else eps

    def sign(self, x) -> int:
        if not self.exact and abs(x) <= self.eps:
            return 0
        return (x > 0) - (x < 0)

    def is_zero(self, x) -> bool:
        return self.sign(x) == 0

    def eq(self, x, y) -> bool:
        return self.sign(x - y) == 0

    def point_eq(self, p: Point3, q: Point3) -> bool:
        if self.exact:
            return tuple(p) == tuple(q)
        return all(self.sign(a - b) == 0 for a, b in zip(p, q))

    def __repr__(self):
        return f"ArithmeticContext(exact={self.exact}, eps={self.eps})"


EXACT = ArithmeticContext(exact=True)


# ---------------------------------------------------------------------------
# Vector helpers (tuples in, tuples out)
# ---------------------------------------------------------------------------


def vsub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def vadd(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def vscale(a, s):
    return (a[0] * s, a[1] * s, a[2] * s)


def vdot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def vcross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def is_zero_vec(v, ctx: ArithmeticContext) -> bool:
    return all(ctx.is_zero(c) for c in v)


# ---------------------------------------------------------------------------
# Polygons
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Polygon3:
    """An ordered corner list in 3D.

    One corner is a point "polygon", two make a degenerate segment; both
    occur for low-degree vertices and are carried through verification with
    a degeneracy warning.  Corners may contain straight angles (collinear
    consecutive corners): contact points must stay corners even when a
    convex hull would drop them.
    """

    corners: tuple

    def __post_init__(self):
        if len(self.corners) < 1:
            raise GeometryError("polygon needs at least one corner")

    @property
    def kind(self) -> str:
        n = len(self.corners)
        return "point" if n == 1 else ("segment" if n == 2 else "polygon")


@dataclass
class PolygonProperties:
    planar: bool = False
    simple: bool = False
    convex: bool = False
    strictly_convex: bool = False
    degenerate: bool = False
    issues: list = field(default_factory=list)


def _plane_of(corners: Sequence[Point3], ctx: ArithmeticContext):
    """Supporting plane (normal, offset) from the first non-collinear triple.

    Returns None when all corners are collinear (degenerate).  In float mode
    the normal is scaled to unit length so eps thresholds mean distances.
    An all-int normal is divided by the gcd of its entries: a positive
    factor keeps every sign, the drop axis and the ccw orientation.
    """
    if len(corners) < 3:
        return None
    a = corners[0]
    for i in range(1, len(corners) - 1):
        for j in range(i + 1, len(corners)):
            n = vcross(vsub(corners[i], a), vsub(corners[j], a))
            if not is_zero_vec(n, ctx):
                if not ctx.exact:
                    norm = math.sqrt(vdot(n, n))
                    n = vscale(n, 1.0 / norm)
                elif all(type(c) is int for c in n):
                    n = _primitive(n)
                return n, vdot(n, a)
    return None


def _primitive(v):
    """An int tuple divided by the gcd of its entries (not all zero)."""
    g = math.gcd(*v)
    return tuple(c // g for c in v)


def plane_contains(plane, p: Point3, ctx: ArithmeticContext) -> bool:
    n, d = plane
    return ctx.is_zero(vdot(n, p) - d)


def _drop_axis(normal) -> int:
    """Axis to drop for 2D work: the one of the normal's largest entry."""
    return max(range(3), key=lambda k: abs(normal[k]))


def project2d(p: Point3, axis: int):
    if axis == 0:
        return (p[1], p[2])
    if axis == 1:
        return (p[2], p[0])
    return (p[0], p[1])


def cross2(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _segments_intersect2d(p1, p2, q1, q2, ctx) -> bool:
    """Closed 2D segment intersection test (proper or touching)."""
    d1 = ctx.sign(cross2(q1, q2, p1))
    d2 = ctx.sign(cross2(q1, q2, p2))
    d3 = ctx.sign(cross2(p1, p2, q1))
    d4 = ctx.sign(cross2(p1, p2, q2))
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True

    def on_seg(a, b, c):
        # c collinear with ab assumed
        return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))

    if d1 == 0 and on_seg(q1, q2, p1):
        return True
    if d2 == 0 and on_seg(q1, q2, p2):
        return True
    if d3 == 0 and on_seg(p1, p2, q1):
        return True
    if d4 == 0 and on_seg(p1, p2, q2):
        return True
    return False


def polygon_properties(poly: Polygon3, ctx: ArithmeticContext = EXACT) -> PolygonProperties:
    """Planarity, simplicity, convexity and degeneracy flags for a polygon.

    A non-coplanar corner list yields planar=False and leaves the other
    flags False.  Convexity allows straight angles; strict convexity does
    not.
    """
    props = PolygonProperties()
    cs = poly.corners
    n = len(cs)

    for i in range(n):
        for j in range(i + 1, n):
            if ctx.point_eq(cs[i], cs[j]):
                props.issues.append(f"duplicate corners {i} and {j}")
    if props.issues:
        props.planar = True
        return props

    if n == 1:
        props.planar = props.simple = props.convex = True
        props.degenerate = True
        return props
    if n == 2:
        props.planar = props.simple = props.convex = True
        props.degenerate = True
        return props

    plane = _plane_of(cs, ctx)
    if plane is None:
        # >= 3 collinear corners
        props.planar = True
        props.degenerate = True
        props.issues.append("all corners collinear")
        return props
    normal, offset = plane
    for p in cs:
        if not plane_contains(plane, p, ctx):
            props.issues.append("corners not coplanar")
            return props
    props.planar = True

    axis = _drop_axis(normal)
    pts = [project2d(p, axis) for p in cs]

    # Simplicity: no two non-adjacent edges meet; adjacent edges meet only
    # at their shared corner (no spikes folding back).
    simple = True
    for i in range(n):
        a1, a2 = pts[i], pts[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            b1, b2 = pts[j], pts[(j + 1) % n]
            if _segments_intersect2d(a1, a2, b1, b2, ctx):
                simple = False
                props.issues.append(f"edges {i} and {j} intersect")
                break
        if not simple:
            break
    if simple:
        for i in range(n):
            prev = pts[(i - 1) % n]
            cur = pts[i]
            nxt = pts[(i + 1) % n]
            if ctx.sign(cross2(prev, cur, nxt)) == 0:
                # collinear: a spike reverses direction instead of continuing
                v1 = (cur[0] - prev[0], cur[1] - prev[1])
                v2 = (nxt[0] - cur[0], nxt[1] - cur[1])
                if ctx.sign(v1[0] * v2[0] + v1[1] * v2[1]) < 0:
                    simple = False
                    props.issues.append(f"spike at corner {i}")
                    break
    props.simple = simple
    if not simple:
        return props

    turns = [ctx.sign(cross2(pts[(i - 1) % n], pts[i], pts[(i + 1) % n]))
             for i in range(n)]
    pos = sum(1 for t in turns if t > 0)
    neg = sum(1 for t in turns if t < 0)
    props.convex = pos == 0 or neg == 0
    props.strictly_convex = props.convex and 0 not in turns
    return props


# ---------------------------------------------------------------------------
# Pair classification
# ---------------------------------------------------------------------------

DISJOINT = "Disjoint"
CORNER_CONTACT = "CornerContact"
BOUNDARY_TOUCH = "BoundaryTouch"
VIOLATION = "Violation"


@dataclass
class PairClassification:
    kind: str
    shared_corners: list = field(default_factory=list)
    touch_witnesses: list = field(default_factory=list)
    violations: list = field(default_factory=list)  # (reason, witness point)


class _Convex2D:
    """A convex polygon (or segment/point) flattened into its plane.

    Supplies the point-location and line-chord queries that the pair
    classifier needs, all in the polygon's own 2D frame.
    """

    def __init__(self, pts, ctx: ArithmeticContext, axis):
        self.ctx = ctx
        self.axis = axis
        self.pts = pts  # ccw

    def locate(self, q2) -> str:
        """'corner' | 'boundary' | 'interior' | 'outside' for an in-plane point."""
        ctx = self.ctx
        pts = self.pts
        n = len(pts)
        for p in pts:
            if ctx.is_zero(q2[0] - p[0]) and ctx.is_zero(q2[1] - p[1]):
                return "corner"
        if n == 1:
            return "outside"
        if n == 2:
            if ctx.sign(cross2(pts[0], pts[1], q2)) != 0:
                return "outside"
            d = (pts[1][0] - pts[0][0], pts[1][1] - pts[0][1])
            t = (q2[0] - pts[0][0]) * d[0] + (q2[1] - pts[0][1]) * d[1]
            if ctx.sign(t) < 0 or ctx.sign(t - (d[0] * d[0] + d[1] * d[1])) > 0:
                return "outside"
            return "boundary"  # relative interior of the segment
        on_edge = False
        for i in range(n):
            s = ctx.sign(cross2(pts[i], pts[(i + 1) % n], q2))
            if s < 0:
                return "outside"
            if s == 0:
                a, b = pts[i], pts[(i + 1) % n]
                lo_x, hi_x = min(a[0], b[0]), max(a[0], b[0])
                lo_y, hi_y = min(a[1], b[1]), max(a[1], b[1])
                if lo_x <= q2[0] <= hi_x and lo_y <= q2[1] <= hi_y:
                    on_edge = True
                else:
                    return "outside"
        return "boundary" if on_edge else "interior"


def polygon_frame(poly: Polygon3, ctx: ArithmeticContext = EXACT):
    """(plane, flat) for a polygon: its supporting plane and its corners
    projected along the drop axis in ccw order; (None, None) when the
    corners span no plane.  `classify_pair` accepts these precomputed."""
    plane = _plane_of(poly.corners, ctx)
    if plane is None:
        return None, None
    axis = _drop_axis(plane[0])
    pts = [project2d(p, axis) for p in poly.corners]
    # orient ccw in the projected frame
    area2 = sum(cross2(pts[0], pts[i], pts[i + 1]) for i in range(1, len(pts) - 1))
    if ctx.sign(area2) <= 0:
        pts.reverse()
    return plane, _Convex2D(pts, ctx, axis)


def _locate_point(poly: Polygon3, flat: Optional[_Convex2D], plane,
                  q: Point3, ctx: ArithmeticContext,
                  is_corner: Optional[bool] = None) -> str:
    """Classify q against a polygon of any degeneracy, in 3D.

    `is_corner` says whether q equals a corner of poly when the caller
    knows it; otherwise q is compared with every corner.
    """
    if is_corner is None:
        is_corner = any(ctx.point_eq(c, q) for c in poly.corners)
    if is_corner:
        return "corner"
    n = len(poly.corners)
    if n == 1:
        return "outside"
    if n == 2:
        a, b = poly.corners
        d = vsub(b, a)
        w = vsub(q, a)
        if not is_zero_vec(vcross(d, w), ctx):
            return "outside"
        t = vdot(w, d)
        if ctx.sign(t) < 0 or ctx.sign(t - vdot(d, d)) > 0:
            return "outside"
        return "boundary"
    if plane is None or not plane_contains(plane, q, ctx):
        return "outside"
    return flat.locate(project2d(q, flat.axis))


def _chord(poly: Polygon3, flat: _Convex2D, p0: Point3, dr: Point3,
           ctx: ArithmeticContext, w=1):
    """Clip the line p0/w + t*dr (known to lie in the polygon's plane), w > 0.

    Returns (t_lo, t_hi, through_interior) or None when the line misses.
    through_interior is False when the chord runs along an edge, in which
    case the whole chord belongs to the boundary.  In exact mode each bound
    is kept as a (num, den) pair with den > 0 of t*w, compared by
    cross-multiplication; only the two winning bounds become Fractions.
    """
    a0 = project2d(p0, flat.axis)
    d2 = project2d(dr, flat.axis)
    pts = flat.pts
    n = len(pts)
    lo, hi = None, None  # None = unbounded
    through = True
    exact = ctx.exact
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        ex, ey = b[0] - a[0], b[1] - a[1]
        # inward halfplane for ccw polygon: cross(edge, x - a) >= 0, times w
        num = ex * (a0[1] - w * a[1]) - ey * (a0[0] - w * a[0])
        den = ex * d2[1] - ey * d2[0]
        sden = ctx.sign(den)
        if sden == 0:
            if ctx.sign(num) < 0:
                return None
            if ctx.sign(num) == 0:
                through = False  # line runs along this edge
            continue
        if exact:
            if sden > 0:
                if lo is None or -num * lo[1] > lo[0] * den:
                    lo = (-num, den)
            elif hi is None or num * hi[1] < hi[0] * -den:
                hi = (num, -den)
            continue
        t = -num / den
        if sden > 0:
            if lo is None or t > lo:
                lo = t
        else:
            if hi is None or t < hi:
                hi = t
    if lo is None or hi is None:
        raise GeometryError("unbounded chord; polygon not convex?")
    if exact:
        if hi[0] * lo[1] < lo[0] * hi[1]:
            return None
        return Fraction(lo[0], lo[1] * w), Fraction(hi[0], hi[1] * w), through
    if ctx.sign(hi - lo) < 0:
        return None
    return lo, hi, through


def _line_point(p0, dr, t):
    return vadd(p0, vscale(dr, t))


def _corner_incursions(p: Polygon3, q: Polygon3, q_flat, q_plane, ctx, out,
                       p_shared):
    """Corners of p lying on q but not at q's corners are violations."""
    for c, shared in zip(p.corners, p_shared):
        if shared:
            continue
        loc = _locate_point(q, q_flat, q_plane, c, ctx, False)
        if loc == "interior":
            out.append(("corner-inside", c))
        elif loc == "boundary":
            out.append(("corner-on-boundary", c))


def _classify_coplanar(p: Polygon3, q: Polygon3, p_flat, q_flat,
                       p_plane, q_plane, ctx, match) -> PairClassification:
    res = PairClassification(kind=DISJOINT)
    shared = res.shared_corners = _shared(p, match[0])
    _corner_incursions(p, q, q_flat, q_plane, ctx, res.violations, match[0])
    _corner_incursions(q, p, p_flat, p_plane, ctx, res.violations, match[1])

    # Interior overlap via separating axes (edge normals of both polygons).
    # Both inputs here are proper polygons: coplanar pairs with a degenerate
    # member are routed through the degenerate classifiers instead.
    def axes(flat):
        pts = flat.pts
        n = len(pts)
        return [(-(pts[(i + 1) % n][1] - pts[i][1]),
                 pts[(i + 1) % n][0] - pts[i][0]) for i in range(n)]

    def interval(flat, ax):
        vals = [ax[0] * pt[0] + ax[1] * pt[1] for pt in flat.pts]
        return min(vals), max(vals)

    separated = False
    touching_axis = False
    for flat in (p_flat, q_flat):
        for ax in axes(flat):
            p_lo, p_hi = interval(p_flat, ax)
            q_lo, q_hi = interval(q_flat, ax)
            if ctx.sign(q_lo - p_hi) > 0 or ctx.sign(p_lo - q_hi) > 0:
                separated = True
                break
            if ctx.is_zero(q_lo - p_hi) or ctx.is_zero(p_lo - q_hi):
                touching_axis = True
        if separated:
            break
    if not separated and not touching_axis:
        res.violations.append(("interior-overlap", p.corners[0]))

    if res.violations:
        res.kind = VIOLATION
    elif shared:
        res.kind = CORNER_CONTACT
    elif not separated:
        # touching boundaries without shared corners
        res.kind = BOUNDARY_TOUCH
        res.touch_witnesses = _boundary_touch_points(p, q, p_flat, q_flat,
                                                     p_plane, q_plane, ctx, match)
        if not res.touch_witnesses:
            res.kind = DISJOINT
    return res


def _boundary_touch_points(p, q, p_flat, q_flat, p_plane, q_plane, ctx, match):
    """Sample witnesses for coplanar boundary touches (edge-edge meets)."""
    out = []
    pc, qc = p.corners, q.corners
    np_, nq = len(pc), len(qc)
    p_edges = [(pc[i], pc[(i + 1) % np_]) for i in range(np_)] if np_ >= 2 else []
    q_edges = [(qc[i], qc[(i + 1) % nq]) for i in range(nq)] if nq >= 2 else []
    if np_ == 2:
        p_edges = p_edges[:1]
    if nq == 2:
        q_edges = q_edges[:1]
    axis = p_flat.axis if p_flat is not None else (q_flat.axis if q_flat else 2)
    for a1, a2 in p_edges:
        for b1, b2 in q_edges:
            if _segments_intersect2d(project2d(a1, axis), project2d(a2, axis),
                                     project2d(b1, axis), project2d(b2, axis), ctx):
                out.append(a1)
                return out
    for c, shared in zip(pc, match[0]):
        if _locate_point(q, q_flat, q_plane, c, ctx, shared) != "outside":
            out.append(c)
            return out
    for c, shared in zip(qc, match[1]):
        if _locate_point(p, p_flat, p_plane, c, ctx, shared) != "outside":
            out.append(c)
            return out
    return out


def classify_pair(p: Polygon3, q: Polygon3, ctx: ArithmeticContext = EXACT,
                  p_frame=None, q_frame=None, match=None) -> PairClassification:
    """Classify how two convex (or degenerate) polygons meet in 3D.

    Returns a `PairClassification` whose kind is one of Disjoint,
    CornerContact, BoundaryTouch (tolerated) or Violation.  Violations carry
    (reason, witness) pairs with reasons 'interior-overlap', 'corner-inside'
    or 'corner-on-boundary'.  `p_frame`/`q_frame` are the polygons'
    `polygon_frame` results when the caller has them already.  `match` is
    (p_shared, q_shared): per corner of p (of q), whether it equals a corner
    of q (of p); it is built from a pairwise `point_eq` scan when omitted.
    """
    p_plane, p_flat = p_frame or polygon_frame(p, ctx)
    q_plane, q_flat = q_frame or polygon_frame(q, ctx)
    if match is None:
        eq = [[ctx.point_eq(c, d) for d in q.corners] for c in p.corners]
        match = [any(row) for row in eq], [any(col) for col in zip(*eq)]

    # Degenerate cases (point or segment, or collinear corner lists) are
    # routed through the same machinery; a missing plane means dimension <= 1.
    if p_plane is not None and q_plane is not None:
        n1, d1 = p_plane
        n2, d2 = q_plane
        dr = vcross(n1, n2)
        if is_zero_vec(dr, ctx):
            if plane_contains(p_plane, q.corners[0], ctx):
                return _classify_coplanar(p, q, p_flat, q_flat, p_plane, q_plane,
                                          ctx, match)
            return PairClassification(kind=DISJOINT)
        return _classify_transversal(p, q, p_flat, q_flat, p_plane, q_plane,
                                     dr, ctx, match)

    # At least one degenerate object.
    if p_plane is None and q_plane is not None:
        return _classify_degenerate_vs_poly(p, q, q_flat, q_plane, ctx, match)
    if q_plane is None and p_plane is not None:
        return _classify_degenerate_vs_poly(q, p, p_flat, p_plane, ctx,
                                            match[::-1])
    return _classify_degenerate_pair(p, q, ctx, match)


def _shared(p: Polygon3, p_shared) -> list:
    return [c for c, shared in zip(p.corners, p_shared) if shared]


def _classify_transversal(p, q, p_flat, q_flat, p_plane, q_plane, dr, ctx, match):
    res = PairClassification(kind=DISJOINT)
    res.shared_corners = _shared(p, match[0])
    _corner_incursions(p, q, q_flat, q_plane, ctx, res.violations, match[0])
    _corner_incursions(q, p, p_flat, p_plane, ctx, res.violations, match[1])

    # Intersection line of the two planes.
    n1, d1 = p_plane
    n2, d2 = q_plane
    # |n1|^2 |n2|^2 - (n1.n2)^2 = |n1 x n2|^2; taken from dr it does not
    # cancel to zero for nearly parallel planes in float mode.
    det = vdot(dr, dr)
    n1n1 = vdot(n1, n1)
    n2n2 = vdot(n2, n2)
    n1n2 = vdot(n1, n2)
    c1 = (d1 * n2n2 - d2 * n1n2)
    c2 = (d2 * n1n1 - d1 * n1n2)
    if ctx.exact:
        # the line is h0/w + t*dr; with int planes h0, w and dr are ints,
        # each reduced by its gcd, and no Fraction is built until a chord
        # bound or a witness is needed
        h0, w = vadd(vscale(n1, c1), vscale(n2, c2)), det
        if type(w) is int and all(type(c) is int for c in h0):
            *h0, w = _primitive((*h0, w))
            dr = _primitive(dr)
    else:
        dr = vscale(dr, 1.0 / math.sqrt(det))
        h0, w = vadd(vscale(n1, c1 / det), vscale(n2, c2 / det)), 1

    ip = _chord(p, p_flat, h0, dr, ctx, w)
    iq = _chord(q, q_flat, h0, dr, ctx, w)
    if ip is None or iq is None:
        if res.violations:
            res.kind = VIOLATION
        elif res.shared_corners:
            res.kind = CORNER_CONTACT
        return res
    lo = max(ip[0], iq[0])
    hi = min(ip[1], iq[1])
    s = ctx.sign(hi - lo)
    if s < 0:
        if res.violations:
            res.kind = VIOLATION
        elif res.shared_corners:
            res.kind = CORNER_CONTACT
        return res

    p0 = tuple(Fraction(c, w) for c in h0) if ctx.exact else h0
    if s > 0 and ip[2] and iq[2]:
        # The open part of a convex polygon's chord is interior whenever the
        # chord does not run along an edge; when that holds for both, the
        # shared open segment witnesses an interior-interior intersection.
        mid = _line_point(p0, dr, (lo + hi) / 2)
        in_p = _locate_point(p, p_flat, p_plane, mid, ctx)
        in_q = _locate_point(q, q_flat, q_plane, mid, ctx)
        if in_p == "interior" and in_q == "interior":
            res.violations.append(("interior-overlap", mid))

    touch = []
    for t in ((lo,) if lo == hi else (lo, hi)):
        pt = _line_point(p0, dr, t)
        loc_p = _locate_point(p, p_flat, p_plane, pt, ctx)
        loc_q = _locate_point(q, q_flat, q_plane, pt, ctx)
        if loc_p == "corner" and loc_q == "corner":
            continue  # already in shared_corners
        if loc_p != "outside" and loc_q != "outside":
            touch.append(pt)

    if res.violations:
        res.kind = VIOLATION
    elif res.shared_corners:
        res.kind = CORNER_CONTACT
        res.touch_witnesses = touch
    elif touch:
        res.kind = BOUNDARY_TOUCH
        res.touch_witnesses = touch
    return res


def _classify_degenerate_vs_poly(seg: Polygon3, poly: Polygon3, poly_flat,
                                 poly_plane, ctx, match) -> PairClassification:
    """Segment-or-point against a proper polygon."""
    res = PairClassification(kind=DISJOINT)
    res.shared_corners = _shared(seg, match[0])
    _corner_incursions(seg, poly, poly_flat, poly_plane, ctx, res.violations,
                       match[0])
    _corner_incursions(poly, seg, None, None, ctx, res.violations, match[1])

    hits = []
    if len(seg.corners) >= 2:
        a = seg.corners[0]
        b = seg.corners[-1] if len(seg.corners) == 2 else seg.corners[1]
        n, d = poly_plane
        da = vdot(n, a) - d
        db = vdot(n, b) - d
        sa, sb = ctx.sign(da), ctx.sign(db)
        if sa == 0 and sb == 0:
            # coplanar segment: clip against the polygon
            dr = vsub(b, a)
            chord = _chord(poly, poly_flat, a, dr, ctx)
            if chord is not None:
                lo = max(chord[0], Fraction(0) if ctx.exact else 0.0)
                hi = min(chord[1], Fraction(1) if ctx.exact else 1.0)
                if ctx.sign(hi - lo) >= 0:
                    if ctx.sign(hi - lo) > 0 and chord[2]:
                        mid = _line_point(a, dr, (lo + hi) / 2)
                        if _locate_point(poly, poly_flat, poly_plane, mid, ctx) == "interior":
                            res.violations.append(("interior-overlap", mid))
                    for t in ((lo,) if lo == hi else (lo, hi)):
                        hits.append(_line_point(a, dr, t))
        elif sa * sb <= 0:
            dr = vsub(b, a)
            denom = vdot(n, dr)
            if not ctx.is_zero(denom):
                t = Fraction(-da, denom) if ctx.exact else -da / denom
                x = _line_point(a, dr, t)
                loc = _locate_point(poly, poly_flat, poly_plane, x, ctx)
                if loc != "outside":
                    seg_loc = _locate_point(seg, None, None, x, ctx)
                    if seg_loc == "boundary" and loc == "interior":
                        res.violations.append(("interior-overlap", x))
                    hits.append(x)
    else:
        pt = seg.corners[0]
        loc = _locate_point(poly, poly_flat, poly_plane, pt, ctx, match[0][0])
        if loc != "outside":
            hits.append(pt)

    touch = [h for h in hits
             if not any(ctx.point_eq(h, c) for c in res.shared_corners)]
    if res.violations:
        res.kind = VIOLATION
    elif res.shared_corners:
        res.kind = CORNER_CONTACT
        res.touch_witnesses = touch
    elif touch:
        res.kind = BOUNDARY_TOUCH
        res.touch_witnesses = touch
    return res


def _classify_degenerate_pair(p: Polygon3, q: Polygon3, ctx, match) -> PairClassification:
    """Two segments/points (possibly skew)."""
    res = PairClassification(kind=DISJOINT)
    res.shared_corners = _shared(p, match[0])
    _corner_incursions(p, q, None, None, ctx, res.violations, match[0])
    _corner_incursions(q, p, None, None, ctx, res.violations, match[1])

    hits = []
    if len(p.corners) == 2 and len(q.corners) == 2:
        a, b = p.corners
        c, d = q.corners
        u, v, w = vsub(b, a), vsub(d, c), vsub(c, a)
        n = vcross(u, v)
        if is_zero_vec(n, ctx):
            # parallel: collinear overlap?
            if is_zero_vec(vcross(u, w), ctx):
                uu = vdot(u, u)
                t0 = vdot(w, u)
                t1 = vdot(vsub(d, a), u)
                lo = max(min(t0, t1), 0 * uu)
                hi = min(max(t0, t1), uu)
                if ctx.sign(hi - lo) > 0:
                    x = _line_point(a, u, Fraction(lo + hi, 2 * uu) if ctx.exact
                                    else (lo + hi) / 2 / uu)
                    res.violations.append(("interior-overlap", x))
                elif ctx.sign(hi - lo) == 0:
                    x = _line_point(a, u, Fraction(lo, uu) if ctx.exact else lo / uu)
                    hits.append(x)
        elif ctx.is_zero(vdot(w, n)):
            # coplanar, non-parallel: solve intersection params
            nn = vdot(n, n)
            t = vdot(vcross(w, v), n)
            s = vdot(vcross(w, u), n)
            if ctx.exact:
                t, s = Fraction(t, nn), Fraction(s, nn)
            else:
                t, s = t / nn, s / nn
            if 0 <= t <= 1 and 0 <= s <= 1:
                x = _line_point(a, u, t)
                p_loc = _locate_point(p, None, None, x, ctx)
                q_loc = _locate_point(q, None, None, x, ctx)
                if p_loc == "boundary" and q_loc == "boundary":
                    res.violations.append(("interior-overlap", x))
                elif p_loc != "outside" and q_loc != "outside":
                    hits.append(x)

    touch = [h for h in hits
             if not any(ctx.point_eq(h, c) for c in res.shared_corners)]
    if res.violations:
        res.kind = VIOLATION
    elif res.shared_corners:
        res.kind = CORNER_CONTACT
    elif touch:
        res.kind = BOUNDARY_TOUCH
        res.touch_witnesses = touch
    return res
