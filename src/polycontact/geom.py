"""Exact (rational) 3D geometry for touching-polygon scenes.

Coordinates are ints or `fractions.Fraction`s; `verify.KernelScene` reads
a scene's coordinates (a float as the binary rational it is) and scales
them to ints.  Every predicate is a sign test, x > 0 and x < 0, written out
inline in the hot loops; NaN counts as zero.

On int coordinates the polygon checks, the plane tests and the interval
test of crossing pairs are division-free.  Plane normals are divided by
the gcd of their entries.  For two proper polygons `classify_pair` computes
each corner's signed distance to the other polygon's plane once, and the
one-side exit, the lone-corner exit, the corner checks and the interval
test all read those ints.  Each polygon meets the other's plane in an
interval of t = dr.x along the planes' common line (dr the cross product
of the normals); its ends come from the corners on that plane and the
edges whose corners lie on opposite sides, as int (num, den) pairs
compared by cross-multiplication.  A pair whose intervals meet is decided
on that line, with no point located (`_on_common_line`); `Fraction`s are
built only for its overlap and touch witnesses, and by the point/segment
cases.

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

* interiors (relative interiors for segments) must be disjoint,
* a corner of one polygon may lie on another polygon only if it coincides
  with one of that polygon's corners,
* any other closed-set intersection (edge crossing an edge, or an edge
  running through the other polygon, e.g. along the diagonal between two
  shared corners) is tolerated and reported as a boundary touch.

`classify_pair` is the one place that applies this model and decides a
pair's kind.  It first tries to separate two proper polygons; then it finds
the shared corners.  Polygons in crossing planes are decided on their
common line; any other pair gets the corner checks of both polygons and
then one geometric case (coplanar, degenerate against a polygon, two
degenerate), which only adds interior-overlap violations and returns touch
points.

Only convex polygons (plus single points and degenerate corner lists, taken
as the segment between their extreme corners) are supported by
`classify_pair`; that covers every construction in this package and keeps
the interval and chord logic exact and simple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import itemgetter
from typing import Optional, Sequence

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


def is_zero_vec(v) -> bool:
    x, y, z = v
    return not (x > 0 or x < 0 or y > 0 or y < 0 or z > 0 or z < 0)


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
    """One polygon's validity flags and the frame the pair classifier
    reads: its supporting plane (None for points and collinear corner
    lists), the axis dropped for 2D work, and `flat`, the corners projected
    along that axis in ccw order."""

    planar: bool = False
    simple: bool = False
    convex: bool = False
    strictly_convex: bool = False
    degenerate: bool = False
    issues: list = field(default_factory=list)
    plane: Optional[tuple] = None
    axis: Optional[int] = None
    flat: Optional[tuple] = None


def _plane_of(corners: Sequence[Point3]):
    """Supporting plane (normal, offset) from the first non-collinear triple.

    Returns None when all corners are collinear (degenerate).  An all-int
    normal is divided by the gcd of its entries: a positive factor keeps
    every sign, the drop axis and the ccw orientation.
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
    """Planarity, simplicity, convexity and degeneracy flags for a polygon,
    and its frame.

    The plane comes from the first non-collinear corner triple, so a list
    with duplicate or non-coplanar corners has a frame too.  A non-coplanar
    corner list yields planar=False and leaves the other flags False.
    Convexity allows straight angles; strict convexity does not.

    An O(k) walk (`_winds_once`) certifies most polygons simple and convex
    from their turn signs; only a polygon it cannot certify goes through the
    O(k^2) scan of non-adjacent edge pairs, which finds and names the fault.
    A fold back at a corner puts a neighbour on a non-adjacent edge, so the
    scan needs no separate spike test.  Duplicate corners are equal tuples.
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

    props.issues += [f"duplicate corners {i} and {j}" for i in range(n)
                     for j in range(i + 1, n) if cs[i] == cs[j]]
    if props.issues:
        props.planar = True
        return props

    if n < 3:
        props.planar = props.simple = props.convex = True
        props.degenerate = True
        return props

    if plane is None:
        # >= 3 collinear corners
        props.planar = True
        props.degenerate = True
        props.issues.append("all corners collinear")
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


@dataclass
class PairClassification:
    kind: str
    shared_corners: list = field(default_factory=list)
    touch_witnesses: list = field(default_factory=list)
    violations: list = field(default_factory=list)  # (reason, witness point)


def _segment_ends(corners):
    """The two extreme corners of a plane-less list of two or more corners.

    A segment's corners come in list order.  A longer (collinear) list is
    ordered along the axis on which its corners spread most.
    """
    if len(corners) == 2:
        return corners
    spread = [max(xs) - min(xs) for xs in zip(*corners)]
    k = spread.index(max(spread))
    return min(corners, key=lambda c: c[k]), max(corners, key=lambda c: c[k])


def _locate_point(poly: Polygon3, f: Optional[PolygonProperties], q: Point3,
                  is_corner: Optional[bool] = None) -> str:
    """Classify q against a polygon of any degeneracy, in 3D.

    `f` is poly's `polygon_properties` record (None for a plane-less poly).
    Without a plane, poly is a point or a collinear corner list, whose
    relative interior is the open segment between its extreme corners.
    `is_corner` says whether q equals a corner of poly when the caller
    knows it; otherwise q is compared with every corner.
    """
    if is_corner is None:
        is_corner = tuple(q) in poly.corners
    if is_corner:
        return "corner"
    if f is not None and f.plane is not None:
        n, d = f.plane
        h = vdot(n, q) - d
        if h > 0 or h < 0:
            return "outside"
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
    if len(poly.corners) == 1:
        return "outside"
    a, b = _segment_ends(poly.corners)
    d = vsub(b, a)
    w = vsub(q, a)
    if not is_zero_vec(vcross(d, w)):
        return "outside"
    t = vdot(w, d)
    if t < 0 or t > vdot(d, d):
        return "outside"
    return "boundary"


def _chord(f: PolygonProperties, p0: Point3, dr: Point3):
    """Clip the line p0 + t*dr (known to lie in f's plane) against f's polygon.

    Returns (t_lo, t_hi) or None when the line misses.  Each bound is kept
    as a (num, den) pair with den > 0, compared by cross-multiplication;
    only the two winning bounds become Fractions.  Only a segment lying in
    a polygon's plane is clipped this way; two proper polygons in crossing
    planes use `_cut` instead.
    """
    a0 = project2d(p0, f.axis)
    d2 = project2d(dr, f.axis)
    pts = f.flat
    lo, hi = None, None  # None = unbounded
    for a, b in zip(pts, pts[1:] + pts[:1]):
        ex, ey = b[0] - a[0], b[1] - a[1]
        # inward halfplane for ccw polygon: cross(edge, x - a) >= 0
        num = ex * (a0[1] - a[1]) - ey * (a0[0] - a[0])
        den = ex * d2[1] - ey * d2[0]
        if den > 0:
            if lo is None or -num * lo[1] > lo[0] * den:
                lo = (-num, den)
        elif den < 0:
            if hi is None or num * hi[1] < hi[0] * -den:
                hi = (num, -den)
        elif num < 0:
            return None
    if lo is None or hi is None:
        raise GeometryError("unbounded chord; polygon not convex?")
    if hi[0] * lo[1] < lo[0] * hi[1]:
        return None
    return Fraction(*lo), Fraction(*hi)


def _line_point(p0, dr, t):
    return vadd(p0, vscale(dr, t))


def _corner_incursions(p: Polygon3, q: Polygon3, fq, out, p_shared, p_sign=None):
    """Corners of p lying on q but not at q's corners are violations.

    `p_sign`, when given, holds the sign of each corner's distance to q's
    plane; a corner off that plane is outside q and is skipped.
    """
    for c, shared, side in zip(p.corners, p_shared, p_sign or repeat(0)):
        if shared or side:
            continue
        loc = _locate_point(q, fq, c, False)
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
    """A proper polygon's one corner on the other's plane when the others
    lie strictly on one side (`sign`, from `_plane_sides`) and it is a
    corner of `others`; else None."""
    if sign.count(0) != 1 or len(set(sign)) != 2:
        return None
    c = corners[sign.index(0)]
    return c if c in others else None


def classify_pair(p: Polygon3, q: Polygon3,
                  fp: Optional[PolygonProperties] = None,
                  fq: Optional[PolygonProperties] = None) -> PairClassification:
    """Classify how two convex (or degenerate) polygons meet in 3D.

    Returns a `PairClassification` whose kind is one of Disjoint,
    CornerContact, BoundaryTouch (tolerated) or Violation.  Violations carry
    (reason, witness) pairs with reasons 'interior-overlap', 'corner-inside'
    or 'corner-on-boundary'.  `fp`/`fq` are the polygons'
    `polygon_properties` records, computed here when omitted.

    This is the only place that decides a kind.  The shared corners are p's,
    in p's order.  The violations come in one order: p's unshared corners
    on q, in p's order, then q's on p, then an interior overlap.  The kind
    is Violation if there are violations, else CornerContact if a corner is
    shared, else BoundaryTouch if there are touch points, else Disjoint.  A
    shared corner thus fixes the kind without touch points, so proper
    polygons seek them only when no corner is shared, and `touch_witnesses`
    is empty except on BoundaryTouch.

    Two proper polygons are separated first, before any corner is compared:
    1. each corner's distance to the other's plane is computed once, with
       its sign; the pair is Disjoint when either polygon lies strictly on
       one side of the other's plane, and CornerContact when either has
       exactly one corner on that plane, shared, and every other corner
       strictly on one side (such a polygon meets the other only at that
       corner); q's distances are not computed when p's already say so;
       the pair is Disjoint when the planes are distinct and parallel;
    2. crossing planes get both `_cut` intervals on the planes' common
       line, and the pair is Disjoint when they miss; otherwise
       `_on_common_line` decides it there, locating no point;
    3. one plane gets the separating-axis test (`_separation`), and a
       strict separation makes the pair Disjoint.
    Every other pair has each polygon's unshared corners on the other's
    plane (or, for a point or collinear list, anywhere) located on the
    other (a point or collinear list first); then its geometric case adds
    the interior overlap and returns the touch points.
    """
    fp = fp or polygon_properties(p)
    fq = fq or polygon_properties(q)
    sp = sq = None  # p's corners against q's plane, and q's against p's
    cuts = sep = None  # crossing planes' `_cut`s; coplanar `_separation`
    if fp.plane is not None and fq.plane is not None:
        sp = _plane_sides(fq.plane, p.corners)
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
        if not is_zero_vec(dr):
            cuts = _cut(p.corners, sp, dr), _cut(q.corners, sq, dr)
            (lp, hp), (lq, hq) = cuts
            if _earlier(hp, lq) or _earlier(hq, lp):
                return PairClassification(kind=DISJOINT)
        elif sq[1][0]:
            return PairClassification(kind=DISJOINT)  # distinct parallel planes
        else:
            sep = _separation(fp.flat, fq.flat)
            if sep > 0:
                return PairClassification(kind=DISJOINT)
    match = [c in q.corners for c in p.corners], [c in p.corners for c in q.corners]
    res = PairClassification(kind=DISJOINT, shared_corners=[
        c for c, shared in zip(p.corners, match[0]) if shared])
    # A missing plane means a point or collinear corner list; it goes first.
    if fp.plane is not None and fq.plane is None:
        p, q, fp, fq, match = q, p, fq, fp, match[::-1]
    out = res.violations
    if cuts is not None:
        touch = _on_common_line(p.corners, q.corners, sp[1], sq[1], dr, cuts, match,
                                out, not res.shared_corners)
    else:
        _corner_incursions(p, q, fq, out, match[0], sp and sp[1])
        _corner_incursions(q, p, fp, out, match[1], sq and sq[1])
        if fp.plane is None and fq.plane is None:
            touch = _degenerate_pair(p, q, out)
        elif fp.plane is None:
            touch = _degenerate_vs_polygon(p, q, fq, out)
        else:
            # Closures of two coplanar convex polygons meet only where edges
            # cross (an interior overlap) or a corner lies on the other
            # polygon (an incursion), so a coplanar pair has no touch point.
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
    """Two proper polygons in crossing planes whose `_cut` intervals
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


def _degenerate_vs_polygon(seg: Polygon3, poly: Polygon3, fpoly, out) -> list:
    """A point or collinear corner list against a proper polygon.  A lone
    point adds nothing to its corner checks."""
    if len(seg.corners) == 1:
        return []
    a, b = _segment_ends(seg.corners)
    dr = vsub(b, a)
    n, d = fpoly.plane
    da = vdot(n, a) - d
    db = vdot(n, b) - d
    if da == 0 and db == 0:
        # coplanar segment: clip against the polygon
        chord = _chord(fpoly, a, dr)
        if chord is None:
            return []
        lo = max(chord[0], Fraction(0))
        hi = min(chord[1], Fraction(1))
        if hi < lo:
            return []
        if lo < hi:
            mid = _line_point(a, dr, (lo + hi) / 2)
            if _locate_point(poly, fpoly, mid) == "interior":
                out.append(("interior-overlap", mid))
        return [_line_point(a, dr, t) for t in ((lo,) if lo == hi else (lo, hi))]
    denom = vdot(n, dr)
    if (da > 0 and db > 0) or (da < 0 and db < 0) or denom == 0:
        return []
    x = _line_point(a, dr, Fraction(-da, denom))
    loc = _locate_point(poly, fpoly, x)
    if loc == "outside":
        return []
    if loc == "interior" and _locate_point(seg, None, x) == "boundary":
        out.append(("interior-overlap", x))
    return [x]


def _degenerate_pair(p: Polygon3, q: Polygon3, out) -> list:
    """Two points or collinear corner lists (possibly skew).  A lone point
    adds nothing to its corner checks."""
    if len(p.corners) == 1 or len(q.corners) == 1:
        return []
    a, b = _segment_ends(p.corners)
    c, d = _segment_ends(q.corners)
    u, v, w = vsub(b, a), vsub(d, c), vsub(c, a)
    n = vcross(u, v)
    if is_zero_vec(n):
        # parallel: collinear overlap?
        if not is_zero_vec(vcross(u, w)):
            return []
        uu = vdot(u, u)
        t0 = vdot(w, u)
        t1 = vdot(vsub(d, a), u)
        lo = max(min(t0, t1), 0 * uu)
        hi = min(max(t0, t1), uu)
        if hi > lo:
            x = _line_point(a, u, Fraction(lo + hi, 2 * uu))
            out.append(("interior-overlap", x))
        elif hi == lo:
            return [_line_point(a, u, Fraction(lo, uu))]
        return []
    if vdot(w, n) != 0:
        return []
    # coplanar, non-parallel: solve intersection params
    nn = vdot(n, n)
    t = vdot(vcross(w, v), n)
    s = vdot(vcross(w, u), n)
    t, s = Fraction(t, nn), Fraction(s, nn)
    if not (0 <= t <= 1 and 0 <= s <= 1):
        return []
    x = _line_point(a, u, t)
    p_loc = _locate_point(p, None, x)
    q_loc = _locate_point(q, None, x)
    if p_loc == "boundary" and q_loc == "boundary":
        out.append(("interior-overlap", x))
    elif p_loc != "outside" and q_loc != "outside":
        return [x]
    return []
