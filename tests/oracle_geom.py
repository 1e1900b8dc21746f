"""Brute-force pair-classification oracle, independent of geom.classify_pair.

Builds the closed intersection of two convex polygons as the convex hull
of elementary witnesses (corners inside the other polygon, edge-edge and
edge-triangle hits from fan decompositions), then classifies:

* 2D hull (coplanar overlap) or an interior midpoint shared by both open
  polygons -> interior overlap,
* a corner of one on the other but matching no corner -> corner violation,
* otherwise corner contact / boundary touch / disjoint.
"""

from fractions import Fraction
from itertools import combinations


def sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def fan(poly):
    """Triangles from the first corner, less the zero-area ones a straight
    angle makes: their zero normal would pass every containment test."""
    cs = poly.corners
    return [(cs[0], cs[i], cs[i + 1]) for i in range(1, len(cs) - 1)
            if cross(sub(cs[i], cs[0]), sub(cs[i + 1], cs[0])) != (0, 0, 0)]


def seg_triangle_points(p0, p1, tri):
    """All intersection points of segment [p0,p1] with a closed triangle."""
    a, b, c = tri
    n = cross(sub(b, a), sub(c, a))
    d0 = dot(n, sub(p0, a))
    d1 = dot(n, sub(p1, a))
    pts = []
    if d0 == 0 and d1 == 0:
        # coplanar: clip the segment against the triangle's edges in 2D
        return coplanar_seg_triangle(p0, p1, tri, n)
    if d0 == d1:
        return []
    if (d0 > 0 and d1 > 0) or (d0 < 0 and d1 < 0):
        return []
    t = Fraction(d0, d0 - d1)
    x = tuple(p0[k] + t * (p1[k] - p0[k]) for k in range(3))
    if point_in_triangle(x, tri, n):
        pts.append(x)
    return pts


def point_in_triangle(x, tri, n=None):
    a, b, c = tri
    if n is None:
        n = cross(sub(b, a), sub(c, a))
    if dot(n, sub(x, a)) != 0:
        return False
    for p, q in ((a, b), (b, c), (c, a)):
        if dot(cross(sub(q, p), sub(x, p)), n) < 0:
            return False
    return True


def coplanar_seg_triangle(p0, p1, tri, n):
    lo, hi = Fraction(0), Fraction(1)
    d = sub(p1, p0)
    a, b, c = tri
    for p, q in ((a, b), (b, c), (c, a)):
        inward = cross(sub(q, p), n)  # points outward or inward; fix by c
        third = [v for v in (a, b, c) if v not in (p, q)][0]
        if dot(inward, sub(third, p)) < 0:
            inward = tuple(-w for w in inward)
        f0 = dot(inward, sub(p0, p))
        fd = dot(inward, d)
        if fd == 0:
            if f0 < 0:
                return []
            continue
        t = Fraction(-f0, fd)
        if fd > 0:
            lo = max(lo, t)
        else:
            hi = min(hi, t)
    if lo > hi:
        return []
    out = []
    for t in {lo, hi}:
        out.append(tuple(p0[k] + t * d[k] for k in range(3)))
    return out


def closed_intersection_points(p, q):
    """Witness points spanning the closed intersection of two convex polys."""
    pts = set()
    p_tris, q_tris = fan(p), fan(q)

    def corners_in(poly, tris, other_corners):
        out = []
        for c in other_corners:
            if any(point_in_triangle(c, t) for t in tris):
                out.append(c)
        return out

    pts.update(corners_in(p, p_tris, q.corners))
    pts.update(corners_in(q, q_tris, p.corners))

    def edges(poly):
        cs = poly.corners
        return [(cs[i], cs[(i + 1) % len(cs)]) for i in range(len(cs))]

    for e0, e1 in edges(p):
        for t in q_tris:
            pts.update(seg_triangle_points(e0, e1, t))
    for e0, e1 in edges(q):
        for t in p_tris:
            pts.update(seg_triangle_points(e0, e1, t))
    return pts


def strictly_inside(x, poly):
    """x in the relative interior of a convex polygon."""
    cs = poly.corners
    a = cs[0]
    n = None
    for i in range(1, len(cs) - 1):
        cand = cross(sub(cs[i], a), sub(cs[i + 1], a))
        if cand != (0, 0, 0):
            n = cand
            break
    if n is None or dot(n, sub(x, a)) != 0:
        return False
    for i in range(len(cs)):
        p, q = cs[i], cs[(i + 1) % len(cs)]
        if dot(cross(sub(q, p), sub(x, p)), n) <= 0:
            return False
    return True


def oracle_classify(p, q):
    """Kind string, computed the slow way."""
    pts = closed_intersection_points(p, q)
    if not pts:
        return "Disjoint"
    # corner rule
    p_corners = set(map(tuple, p.corners))
    q_corners = set(map(tuple, q.corners))
    shared = p_corners & q_corners

    def on_poly(x, poly):
        return any(point_in_triangle(x, t) for t in fan(poly))

    for c in p_corners:
        if c not in q_corners and on_poly(c, q):
            return "Violation"
    for c in q_corners:
        if c not in p_corners and on_poly(c, p):
            return "Violation"

    # interior-interior: candidate = centroid of the witness hull
    pl = sorted(pts)
    denom = len(pl)
    # Fractions, so that int corners give no float round-off
    centroid = tuple(Fraction(sum(x[k] for x in pl), denom) for k in range(3))
    if strictly_inside(centroid, p) and strictly_inside(centroid, q):
        return "Violation"
    if len(pl) >= 2:
        for a, b in combinations(pl, 2):
            mid = tuple(Fraction(a[k] + b[k], 2) for k in range(3))
            if strictly_inside(mid, p) and strictly_inside(mid, q):
                return "Violation"
    if shared:
        return "CornerContact"
    return "BoundaryTouch"
