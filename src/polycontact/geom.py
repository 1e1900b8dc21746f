"""Exact (rational) 3D geometry for touching-polygon scenes.

Coordinates are ints or `fractions.Fraction`s; `verify.KernelScene` reads
a scene's coordinates (a float as the binary rational it is) and scales
them to ints.  Every predicate is a sign test, x > 0 and x < 0, written out
inline in the hot loops; NaN counts as zero.

On int coordinates the polygon checks, the plane tests and the interval
test of crossing pairs are division-free.  Plane normals are divided by
the gcd of their entries.  `classify_pair` computes each corner's signed
distance to the other polygon's plane once, and the one-side exit, the
lone-corner exit, the corner checks and the interval test all read those
ints.  Each polygon meets the other's plane in an
interval of t = dr.x along the planes' common line (dr the cross product
of the normals); its ends come from the corners on that plane and the
edges whose corners lie on opposite sides, as int (num, den) pairs
compared by cross-multiplication.  A pair whose intervals meet is decided
on that line, with no point located (`_on_common_line`); `Fraction`s are
built only for its overlap and touch witnesses.  A pair that meets only
at a shared corner skips that pass: before any interval is built, when
both polygons leave the corner along the line in opposite directions, read
from its neighbours (`_corner_meet`), and after, when one interval ends
where the other starts, at a corner of both.

Each polygon has one record, its `PolygonProperties`: the validity flags
and the frame (supporting plane, drop axis, ccw 2D corners), derived once
by `polygon_properties`.  `classify_pair` reads the two records; the
verifier passes the ones it already holds.

Two polygons share a corner when the corner tuples are equal.
`classify_pair` compares them only for a pair that no separation test
decides: its *match* says, for each corner of either polygon, whether it
is a corner of the other.  A shared corner is located as "corner" and any
other corner goes straight to the plane test.  A shared corner fixes a
pair's kind, so interval ends are sought as touch points only when no
corner is shared.

The contact model implemented by `classify_pair` treats polygons as *open*
filled regions:

* interiors must be disjoint,
* a corner of one polygon may lie on another polygon only if it coincides
  with one of that polygon's corners,
* any other closed-set intersection (edge crossing an edge, or an edge
  running through the other polygon, e.g. along the diagonal between two
  shared corners) is tolerated and reported as a boundary touch.

`classify_pair` is the one place that applies this model and decides a
pair's kind.  It first tries to separate the two polygons; then it finds
the shared corners.  Polygons in crossing planes are decided on their
common line; a coplanar pair gets the corner checks of both polygons and
its separating-axis overlap.

Only convex polygons, each with at least 3 corners not all collinear, are
supported by `classify_pair`; a corner list without a plane raises
`GeometryError`.  That covers every construction in this package (a
low-degree vertex gets a triangle through `scene.retract`) and keeps the
interval logic exact and simple.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter
from typing import Optional, Sequence

from .core import Frozen, Record

Point3 = tuple  # (x, y, z) of int or Fraction


class GeometryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Vector helpers (tuples in, tuples out)
# ---------------------------------------------------------------------------

ROUND_BITS = 40  # constructions round float layouts to multiples of 2^-40


def round_point(p) -> Point3:
    """A float point with each coordinate rounded to the nearest multiple
    of 2^-ROUND_BITS, as `Fraction`s."""
    one = 1 << ROUND_BITS
    return tuple(Fraction(round(x * one), one) for x in p)



def vsub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


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


def is_zero_vec(v) -> bool:
    x, y, z = v
    return not (x > 0 or x < 0 or y > 0 or y < 0 or z > 0 or z < 0)


# ---------------------------------------------------------------------------
# Polygons
# ---------------------------------------------------------------------------


class Polygon3(Frozen):
    """An ordered corner list in 3D.

    A polygon has at least 3 corners that are not collinear.  A shorter or
    collinear list can still be built (a scene file may hold one), and
    `verify_scene` reports it as a degenerate-polygon violation.  Corners
    may contain straight angles (collinear consecutive corners): contact
    points must stay corners even when a convex hull would drop them.
    """

    __slots__ = _fields = ("corners",)

    def __init__(self, corners: tuple):
        if len(corners) < 1:
            raise GeometryError("polygon needs at least one corner")
        object.__setattr__(self, "corners", corners)


class PolygonProperties(Record):
    """One polygon's validity flags and the frame the pair classifier
    reads: its supporting plane (None for fewer than 3 corners or collinear
    ones), the axis dropped for 2D work, and `flat`, the corners projected
    along that axis in ccw order."""

    __slots__ = _fields = ("planar", "simple", "convex", "strictly_convex", "issues",
                           "plane", "axis", "flat")

    def __init__(self, planar: bool = False, simple: bool = False, convex: bool = False,
                 strictly_convex: bool = False, issues: Optional[list] = None,
                 plane: Optional[tuple] = None, axis: Optional[int] = None,
                 flat: Optional[tuple] = None):
        self.planar = planar
        self.simple = simple
        self.convex = convex
        self.strictly_convex = strictly_convex
        self.issues = [] if issues is None else issues
        self.plane = plane
        self.axis = axis
        self.flat = flat


def _plane_of(corners: Sequence[Point3]):
    """Supporting plane (normal, offset) from the first non-collinear triple.

    Returns None when there are fewer than 3 corners or all are collinear.
    An all-int normal is divided by the gcd of its entries: a positive
    factor keeps every sign, the drop axis and the ccw orientation.
    """
    if len(corners) < 3:
        return None
    a = corners[0]
    for i in range(1, len(corners) - 1):
        for j in range(i + 1, len(corners)):
            n = vcross(vsub(corners[i], a), vsub(corners[j], a))
            if not is_zero_vec(n):
                if all(type(c) is int for c in n):
                    n = _primitive(n)
                return n, vdot(n, a)
    return None


def _primitive(v):
    """An int tuple divided by the gcd of its entries (not all zero)."""
    g = math.gcd(*v)
    return tuple(c // g for c in v)


def _drop_axis(normal) -> int:
    """Axis to drop for 2D work: the one of the normal's largest entry."""
    return max(range(3), key=lambda k: abs(normal[k]))


_PROJECT = (itemgetter(1, 2), itemgetter(2, 0), itemgetter(0, 1))  # by dropped axis


def project2d(p: Point3, axis: int):
    return _PROJECT[axis](p)


def cross2(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_seg(a, b, c) -> bool:
    """Whether c, collinear with ab, lies in ab's box."""
    return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _segments_intersect2d(p1, p2, q1, q2) -> bool:
    """Closed 2D segment intersection test (proper or touching)."""
    d1 = _sign(cross2(q1, q2, p1))
    d2 = _sign(cross2(q1, q2, p2))
    d3 = _sign(cross2(p1, p2, q1))
    d4 = _sign(cross2(p1, p2, q2))
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    if d1 == 0 and _on_seg(q1, q2, p1):
        return True
    if d2 == 0 and _on_seg(q1, q2, p2):
        return True
    if d3 == 0 and _on_seg(p1, p2, q1):
        return True
    if d4 == 0 and _on_seg(p1, p2, q2):
        return True
    return False


def polygon_properties(poly: Polygon3) -> PolygonProperties:
    """Planarity, simplicity and convexity flags for a polygon, and its
    frame.

    The plane comes from the first non-collinear corner triple, so a list
    with duplicate or non-coplanar corners has a frame too.  A non-coplanar
    corner list yields planar=False and leaves the other flags False, and
    so does one without a plane (fewer than 3 corners, or all collinear).
    Convexity allows straight angles; strict convexity does not.

    An O(k) walk (`_winds_once`) certifies most polygons simple and convex
    from their turn signs; only a polygon it cannot certify goes through the
    O(k^2) scan of non-adjacent edge pairs, which finds and names the fault.
    A fold back at a corner puts a neighbour on a non-adjacent edge, so the
    scan needs no separate spike test.  Duplicate corners are equal tuples.

    A triangle that passes the duplicate and plane checks is certified by
    its plane, with no walk.  Its plane is (n, n.a) for n a positive
    multiple of (b - a) x (c - a), so n.b - n.a = n.(b - a) = 0 and likewise
    for c: exactly, all three corners lie on it.  Each turn of the projected
    triangle is twice its signed area, the same at every corner, and that
    area is a positive multiple of n's entry on the dropped axis, its
    largest, which is not 0.  So the turns share one nonzero sign; the
    edges' x-components sum to 0 and are not all 0, so the nonzero ones
    change sign exactly twice; and `_winds_once` would accept it, with no
    zero turn: planar, simple and strictly convex.
    """
    props = PolygonProperties()
    cs = poly.corners
    n = len(cs)
    props.plane = plane = _plane_of(cs)
    if plane is not None:
        props.axis = axis = _drop_axis(plane[0])
        pts = list(map(_PROJECT[axis], cs))
        ox, oy = pts[0]
        area2 = sum((ax - ox) * (by - oy) - (ay - oy) * (bx - ox)
                    for (ax, ay), (bx, by) in zip(pts[1:-1], pts[2:]))
        props.flat = tuple(pts) if area2 > 0 else tuple(reversed(pts))

    if len(set(cs)) < n:  # only then name every duplicate pair, in O(k^2)
        props.issues += [f"duplicate corners {i} and {j}" for i in range(n)
                         for j in range(i + 1, n) if cs[i] == cs[j]]
    if props.issues:
        props.planar = True
        return props

    if plane is None:
        props.issues.append("fewer than 3 corners" if n < 3 else "all corners collinear")
        return props
    if n == 3:
        props.planar = props.simple = props.convex = props.strictly_convex = True
        return props
    (nx, ny, nz), d = plane
    for x, y, z in cs:
        h = nx * x + ny * y + nz * z - d
        if h > 0 or h < 0:
            props.issues.append("corners not coplanar")
            return props
    props.planar = True

    turns = [(t > 0) - (t < 0) for t in (
        (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)
        for (ox, oy), (ax, ay), (bx, by) in zip(pts[-1:] + pts[:-1], pts, pts[1:] + pts[:1]))]
    if _winds_once(pts, turns):
        props.simple = props.convex = True
        props.strictly_convex = 0 not in turns
        return props

    # Simplicity: no two non-adjacent edges meet.
    simple = True
    for i in range(n):
        a1, a2 = pts[i], pts[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            b1, b2 = pts[j], pts[(j + 1) % n]
            if _segments_intersect2d(a1, a2, b1, b2):
                simple = False
                props.issues.append(f"edges {i} and {j} intersect")
                break
        if not simple:
            break
    props.simple = simple
    if not simple:
        return props

    pos = sum(1 for t in turns if t > 0)
    neg = sum(1 for t in turns if t < 0)
    props.convex = pos == 0 or neg == 0
    props.strictly_convex = props.convex and 0 not in turns
    return props


def _winds_once(pts, turns) -> bool:
    """Whether a closed 2D corner list with exact turn signs `turns` is
    simple and convex, by one walk (Schorn and Fisher 1994, "Testing the
    convexity of a polygon"): the turns have one sign, zeros allowed; every
    zero turn continues forward, not back (a spike); and the edges' nonzero
    x-components change sign exactly twice around the cycle, so the edges
    turn once around.  A pentagram turns twice and changes sign four times.
    Corners are distinct and not all collinear."""
    if 1 in turns and -1 in turns:
        return False
    edges = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(pts, pts[1:] + pts[:1])]
    if any(edges[i - 1][0] * edges[i][0] + edges[i - 1][1] * edges[i][1] <= 0
           for i, t in enumerate(turns) if t == 0):
        return False
    east = [ex > 0 for ex, _ in edges if ex]
    return sum(a != b for a, b in zip(east, east[1:] + east[:1])) == 2


# ---------------------------------------------------------------------------
# Pair classification
# ---------------------------------------------------------------------------

DISJOINT = "Disjoint"
CORNER_CONTACT = "CornerContact"
BOUNDARY_TOUCH = "BoundaryTouch"
VIOLATION = "Violation"


class PairClassification(Record):
    __slots__ = _fields = ("kind", "shared_corners", "touch_witnesses", "violations")

    def __init__(self, kind: str, shared_corners: Optional[list] = None,
                 touch_witnesses: Optional[list] = None,
                 violations: Optional[list] = None):  # (reason, witness point)
        self.kind = kind
        self.shared_corners = [] if shared_corners is None else shared_corners
        self.touch_witnesses = [] if touch_witnesses is None else touch_witnesses
        self.violations = [] if violations is None else violations


def _locate_point(f: PolygonProperties, q: Point3) -> str:
    """Classify q, a point of the plane of the polygon whose
    `polygon_properties` record is f and not one of its corners, against
    that polygon: "outside", "boundary" or "interior"."""
    q2, pts = project2d(q, f.axis), f.flat
    on_edge = False
    for a, b in zip(pts, pts[1:] + pts[:1]):
        s = cross2(a, b, q2)
        if s < 0:
            return "outside"
        # a convex polygon is the meet of its edges' inner half planes,
        # so q2 on an edge's line is on the boundary, also beyond that
        # edge along a straight angle
        on_edge |= not s > 0
    return "boundary" if on_edge else "interior"


def _corner_incursions(p: Polygon3, fq, out, p_shared):
    """Corners of p lying on a coplanar polygon q (record fq) but not at
    q's corners are violations."""
    for c, shared in zip(p.corners, p_shared):
        if shared:
            continue
        loc = _locate_point(fq, c)
        if loc == "interior":
            out.append(("corner-inside", c))
        elif loc == "boundary":
            out.append(("corner-on-boundary", c))


def _plane_sides(plane, corners):
    """Each corner's signed distance vdot(n, c) - d to the plane, and its
    sign; ints on the kernel's int corners."""
    (a, b, c), d = plane
    dist = [a * x + b * y + c * z - d for x, y, z in corners]
    return dist, [(h > 0) - (h < 0) for h in dist]


def _one_side(side) -> bool:
    """Every corner lies strictly on one side of the plane: the signs
    (`_plane_sides`) are all +1 or all -1."""
    return side[0] != 0 and side.count(side[0]) == len(side)


def _lone_corner(sign, corners, others):
    """A polygon's one corner on the other's plane when the others
    lie strictly on one side (`sign`, from `_plane_sides`) and it is a
    corner of `others`; else None."""
    if sign.count(0) != 1 or len(set(sign)) != 2:
        return None
    c = corners[sign.index(0)]
    return c if c in others else None


def _corner_meet(pc, qc, sp, sq, dr):
    """The shared corner c at which two polygons in crossing planes meet
    and nowhere else, proved from c's neighbours; else None.

    c is p's first corner on q's plane that is a corner of q.  Each
    polygon's cut with the other's plane, on the planes' common line L, is
    a segment that leaves c in the direction `_leaves` reads; when the two
    directions are opposite, the cuts meet only at c, and so do the
    polygons (their common points lie on L).  A second shared corner would
    be a second common point, so no other corner of p is tried.
    """
    sign = sp[1]
    for i in range(len(pc)):
        if sign[i] == 0 and pc[i] in qc:
            c = pc[i]
            d = _leaves(pc, sp, i, dr)
            return c if d and d == -_leaves(qc, sq, qc.index(c), dr) else None
    return None


def _leaves(corners, side, i, dr) -> int:
    """The sign of t = vdot(dr, x) along the polygon's cut as it leaves
    its corner i = c, on the other's plane, when c's neighbours u and w lie
    strictly on opposite sides of that plane; else 0.  `side` is the
    corners' (distances, signs) from `_plane_sides`.

    A convex polygon lies in the wedge of its two edge lines at c (a half
    plane at a straight angle), and the common line L, through c with u
    and w strictly on either side, meets that wedge in a ray from c: the
    cut is a segment on it that starts at c.  Edge uw crosses the plane at
    x = (|d_w| u + |d_u| w) / (|d_u| + |d_w|), a point of the polygon on L,
    so t(x) - t(c) has the sign of |d_w| (t(u) - t(c)) + |d_u| (t(w) - t(c)).
    That sum is 0 exactly when x = c, that is when c is a straight angle
    on segment uw, and when u and w both lie on the plane; the direction is
    then not read (0).
    """
    dist, sign = side
    j = (i + 1) % len(corners)
    if sign[i - 1] != -sign[j]:
        return 0
    tc = vdot(dr, corners[i])
    s = (abs(dist[j]) * (vdot(dr, corners[i - 1]) - tc)
         + abs(dist[i - 1]) * (vdot(dr, corners[j]) - tc))
    return (s > 0) - (s < 0)


def classify_pair(p: Polygon3, q: Polygon3,
                  fp: Optional[PolygonProperties] = None,
                  fq: Optional[PolygonProperties] = None) -> PairClassification:
    """Classify how two convex polygons meet in 3D.

    Returns a `PairClassification` whose kind is one of Disjoint,
    CornerContact, BoundaryTouch (tolerated) or Violation.  Violations carry
    (reason, witness) pairs with reasons 'interior-overlap', 'corner-inside'
    or 'corner-on-boundary'.  `fp`/`fq` are the polygons'
    `polygon_properties` records, computed here when omitted.  A polygon
    without a plane (fewer than 3 corners, or all collinear) raises
    `GeometryError`.

    This is the only place that decides a kind.  The shared corners are p's,
    in p's order.  The violations come in one order: p's unshared corners
    on q, in p's order, then q's on p, then an interior overlap.  The kind
    is Violation if there are violations, else CornerContact if a corner is
    shared, else BoundaryTouch if there are touch points, else Disjoint.  A
    shared corner thus fixes the kind without touch points, so the polygons
    seek them only when no corner is shared, and `touch_witnesses` is empty
    except on BoundaryTouch.

    The polygons are separated first, before any corner is compared:
    1. each corner's distance to the other's plane is computed once, with
       its sign; the pair is Disjoint when either polygon lies strictly on
       one side of the other's plane, and CornerContact when either has
       exactly one corner on that plane, shared, and every other corner
       strictly on one side (such a polygon meets the other only at that
       corner); q's distances are not computed when p's already say so;
       the pair is Disjoint when the planes are distinct and parallel;
    2. crossing planes are tried for a shared corner c that is their only
       common point, before any interval is built: c is p's first corner
       on q's plane that is also q's, and each polygon's cut with the
       other's plane on the common line L leaves c in a direction read
       from c's two neighbours when they lie strictly on opposite sides
       of that plane (`_leaves`); opposite directions make the pair
       CornerContact with c shared;
    3. otherwise both `_cut` intervals on L are built, and the pair is
       Disjoint when they miss; CornerContact when p's high end and q's
       low end, or q's high end and p's low end, are corners at equal t,
       one point c; otherwise `_on_common_line` decides it there,
       locating no point;
    4. one plane gets the separating-axis test (`_separation`), and a
       strict separation makes the pair Disjoint.  Otherwise each
       polygon's unshared corners are located on the other, and an
       overlap on the separating axes adds the interior overlap.

    Both corner exits of steps 2 and 3 give what `_on_common_line` would:
    the cuts meet only at c, so the polygons, whose common points lie on
    L, meet only there.  Then c is the only shared corner, every
    unshared corner on L falls outside the other's interval (it is on L
    at another t than c's), and the common interval is the point c, not
    open, so there is no violation and, with c shared, no touch point.
    """
    fp = fp or polygon_properties(p)
    fq = fq or polygon_properties(q)
    if fp.plane is None or fq.plane is None:
        raise GeometryError("classify_pair needs two polygons with a plane")
    sp = _plane_sides(fq.plane, p.corners)  # p's corners against q's plane
    if _one_side(sp[1]):
        return PairClassification(kind=DISJOINT)
    c = _lone_corner(sp[1], p.corners, q.corners)
    if c is not None:
        return PairClassification(kind=CORNER_CONTACT, shared_corners=[c])
    sq = _plane_sides(fp.plane, q.corners)
    if _one_side(sq[1]):
        return PairClassification(kind=DISJOINT)
    c = _lone_corner(sq[1], q.corners, p.corners)
    if c is not None:
        return PairClassification(kind=CORNER_CONTACT,
                                  shared_corners=[x for x in p.corners if x == c])
    dr = vcross(fp.plane[0], fq.plane[0])
    cuts = None
    if not is_zero_vec(dr):
        c = _corner_meet(p.corners, q.corners, sp, sq, dr)
        if c is not None:
            return PairClassification(kind=CORNER_CONTACT, shared_corners=[c])
        cuts = _cut(p.corners, sp, dr), _cut(q.corners, sq, dr)
        (lp, hp), (lq, hq) = cuts
        if _earlier(hp, lq) or _earlier(hq, lp):
            return PairClassification(kind=DISJOINT)
        for e, f in ((hp, lq), (lp, hq)):  # p's end, q's end; a corner's den is 1
            if e[4] is None and f[4] is None and e[0] == f[0]:
                return PairClassification(kind=CORNER_CONTACT, shared_corners=[e[2]])
    elif sq[1][0]:
        return PairClassification(kind=DISJOINT)  # distinct parallel planes
    else:
        sep = _separation(fp.flat, fq.flat)
        if sep > 0:
            return PairClassification(kind=DISJOINT)
    match = [c in q.corners for c in p.corners], [c in p.corners for c in q.corners]
    res = PairClassification(kind=DISJOINT, shared_corners=[
        c for c, shared in zip(p.corners, match[0]) if shared])
    out = res.violations
    if cuts is not None:
        touch = _on_common_line(p.corners, q.corners, sp[1], sq[1], dr, cuts, match,
                                out, not res.shared_corners)
    else:
        # Closures of two coplanar convex polygons meet only where edges
        # cross (an interior overlap) or a corner lies on the other
        # polygon (an incursion), so a coplanar pair has no touch point.
        _corner_incursions(p, fq, out, match[0])
        _corner_incursions(q, fp, out, match[1])
        if sep < 0:
            out.append(("interior-overlap", p.corners[0]))
        touch = []

    if res.violations:
        res.kind = VIOLATION
    elif res.shared_corners:
        res.kind = CORNER_CONTACT
    elif touch:
        res.kind = BOUNDARY_TOUCH
        res.touch_witnesses = touch
    return res


def _separation(a, b) -> int:
    """Two convex flat corner lists on one plane, by separating axes (the
    edge normals of both): 1 when an axis separates them strictly, else 0
    when on some axis their projections only touch, else -1 (their
    interiors overlap)."""
    touching_axis = False
    for flat in (a, b):
        for u, v in zip(flat, flat[1:] + flat[:1]):
            ax, ay = u[1] - v[1], v[0] - u[0]
            a_vals = [ax * x + ay * y for x, y in a]
            b_vals = [ax * x + ay * y for x, y in b]
            gaps = min(b_vals) - max(a_vals), min(a_vals) - max(b_vals)
            if gaps[0] > 0 or gaps[1] > 0:
                return 1
            touching_axis = touching_axis or 0 in gaps
    return 0 if touching_axis else -1


def _on_common_line(pc, qc, p_sign, q_sign, dr, cuts, match, out, seek_touch) -> list:
    """Two polygons in crossing planes whose `_cut` intervals
    `cuts` meet, decided on the planes' common line L with no point located.

    A convex polygon meets L in exactly its closed `_cut` interval; if it
    straddles the other's plane (has corners strictly on both sides), L
    meets its interior and the open interval lies in that interior, and
    otherwise it meets L on its boundary only.  An unshared corner on the
    other's plane, at t = dr.c, is thus outside the other polygon off its
    interval, in its interior strictly inside the interval of a straddling
    polygon, and on its boundary otherwise.  The interiors overlap when the
    common interval is open and both straddle, witnessed by its midpoint;
    its ends (one when it is a point) are the touch points.
    """
    (lp, hp), (lq, hq) = cuts
    p_across, q_across = (1 in sign and -1 in sign for sign in (p_sign, q_sign))
    for corners, sign, shared, (lo, hi), across in (
            (pc, p_sign, match[0], cuts[1], q_across),
            (qc, q_sign, match[1], cuts[0], p_across)):
        for c, side, m in zip(corners, sign, shared):
            if side or m:
                continue
            t = (vdot(dr, c), 1)
            if _earlier(t, lo) or _earlier(hi, t):
                continue
            inside = across and _earlier(lo, t) and _earlier(t, hi)
            out.append(("corner-inside" if inside else "corner-on-boundary", c))
    lo = lq if _earlier(lp, lq) else lp
    hi = hq if _earlier(hq, hp) else hp
    is_open = _earlier(lo, hi)
    overlap = is_open and p_across and q_across
    if not (seek_touch or overlap):
        return []
    ends = [_end_point(lo), _end_point(hi)]
    if overlap:
        out.append(("interior-overlap", tuple(Fraction(x + y, 2) for x, y in zip(*ends))))
    return ends if is_open else ends[:1]


def _cut(corners, side, dr):
    """A polygon's cut with the other polygon's plane, as the least and
    greatest t = vdot(dr, x) over its corners on that plane and its edges'
    sign-changing crossings of it; None when it misses the plane.

    `side` is the corners' (distances, signs) from `_plane_sides`.  An end
    is (num, den, a, da, b, db): t = num/den with den > 0, compared by
    cross-multiplication, at corner a when b is None and else where edge
    ab, at distances da and db, crosses the plane.
    """
    dist, sign = side
    n = len(corners)
    lo = hi = None
    for i in range(n):
        j = (i + 1) % n
        a, da = corners[i], dist[i]
        if sign[i] == 0:
            end = (vdot(dr, a), 1, a, da, None, None)
        elif sign[i] == -sign[j]:
            b, db = corners[j], dist[j]
            num, den = da * vdot(dr, b) - db * vdot(dr, a), da - db
            if sign[i] < 0:
                num, den = -num, -den
            end = (num, den, a, da, b, db)
        else:
            continue
        if lo is None or _earlier(end, lo):
            lo = end
        if hi is None or _earlier(hi, end):
            hi = end
    return None if lo is None else (lo, hi)


def _earlier(e, f) -> bool:
    """End e's t is below end f's: num/den pairs with den > 0."""
    return e[0] * f[1] < f[0] * e[1]


def _end_point(end) -> Point3:
    """The point of a `_cut` end: its corner, or its edge's crossing
    (da*b - db*a) / (da - db)."""
    _, _, a, da, b, db = end
    if b is None:
        return a
    return tuple(Fraction(da * y - db * x, da - db) for x, y in zip(a, b))
