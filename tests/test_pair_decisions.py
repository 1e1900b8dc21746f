"""Exact proper pairs: `classify_pair` against the point-locating classifier.

`classify_pair` decides two exact proper polygons in crossing planes on
their common line, drops strictly separated coplanar pairs before any
corner is located, and calls a pair a corner contact from the plane-side
signs alone when one polygon meets the other's plane only at a shared
corner.  A crossing pair whose one common point is a shared corner skips
`_cut` when the chords of both polygons on the common line leave that
corner in opposite directions, read from its neighbours, and skips
`_on_common_line` when the cuts meet only at a corner of both.
`reference_classify` below is the earlier path, which
locates every unshared corner on the other's plane in the other polygon,
and the common interval's midpoint and ends in both.  The two must agree
on everything: kind, shared corners, violations with their witnesses in
order, and touch witnesses.

The reference's locator differs from the earlier one in one test: a point
on an edge's line but beyond that edge's ends counts as on the boundary
when no edge has it outside, as it is when it lies on the next edge of a
straight angle; the earlier locator called it outside (see
`TestClassifyPair.test_corner_on_a_straight_angle_edge` in test_geom.py).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from polycontact import (complete_bipartite, geom, represent_bipartite_grid,
                         represent_bipartite_toroidal, represent_complete,
                         represent_cycle_square, represent_s239)
from polycontact.geom import (BOUNDARY_TOUCH, CORNER_CONTACT, DISJOINT, VIOLATION,
                              PairClassification, Polygon3, _cut, _earlier,
                              _end_point, _one_side, _plane_sides, classify_pair,
                              cross2, polygon_properties, project2d, vcross, vdot)
from polycontact.verify import KernelScene, _box_overlaps

from oracle_geom import oracle_classify
from test_geom import _hull2d, convex_polygon_pairs

F = Fraction


def _locate(poly, f, x, is_corner=None):
    """"corner", "interior", "boundary" or "outside" for x against a proper
    convex polygon with properties f."""
    if x in poly.corners if is_corner is None else is_corner:
        return "corner"
    n, d = f.plane
    if vdot(n, x) != d:
        return "outside"
    x2, on_edge = project2d(x, f.axis), False
    for a, b in zip(f.flat, f.flat[1:] + f.flat[:1]):
        s = cross2(a, b, x2)
        if s < 0:
            return "outside"
        on_edge = on_edge or s == 0
    return "boundary" if on_edge else "interior"


def _transversal(p, q, fp, fq, sp, sq, dr, out, seek_touch):
    (lp, hp), (lq, hq) = _cut(p.corners, sp, dr), _cut(q.corners, sq, dr)
    lo = lq if _earlier(lp, lq) else lp
    hi = hq if _earlier(hq, hp) else hp
    if _earlier(hi, lo):
        return []
    is_open = _earlier(lo, hi)
    ends = [_end_point(lo), _end_point(hi)]
    if is_open:
        mid = tuple(F(x + y, 2) for x, y in zip(*ends))
        if _locate(p, fp, mid) == "interior" and _locate(q, fq, mid) == "interior":
            out.append(("interior-overlap", mid))
    if not seek_touch:
        return []
    touch = []
    for x in ends if is_open else ends[:1]:
        locs = _locate(p, fp, x), _locate(q, fq, x)
        if "outside" not in locs and locs != ("corner", "corner"):
            touch.append(x)
    return touch


def _coplanar_overlap(fp, fq):
    """No edge normal of either polygon separates or touches them."""
    for flat in (fp.flat, fq.flat):
        for u, v in zip(flat, flat[1:] + flat[:1]):
            ax = (u[1] - v[1], v[0] - u[0])
            ps = [ax[0] * x + ax[1] * y for x, y in fp.flat]
            qs = [ax[0] * x + ax[1] * y for x, y in fq.flat]
            if min(qs) >= max(ps) or min(ps) >= max(qs):
                return False
    return True


def reference_classify(p, q):
    """`classify_pair(p, q)` for two exact proper convex polygons, by point
    location."""
    fp, fq = polygon_properties(p), polygon_properties(q)
    sp = _plane_sides(fq.plane, p.corners)
    if _one_side(sp[1]):
        return PairClassification(kind=DISJOINT)
    sq = _plane_sides(fp.plane, q.corners)
    if _one_side(sq[1]):
        return PairClassification(kind=DISJOINT)
    dr = vcross(fp.plane[0], fq.plane[0])
    if not any(dr) and sq[1][0]:
        return PairClassification(kind=DISJOINT)
    res = PairClassification(kind=DISJOINT,
                             shared_corners=[c for c in p.corners if c in q.corners])
    out = res.violations
    for a, b, fb, side in ((p, q, fq, sp[1]), (q, p, fp, sq[1])):
        for c, s in zip(a.corners, side):
            if s == 0 and c not in b.corners:
                loc = _locate(b, fb, c, False)
                if loc in ("interior", "boundary"):
                    out.append(("corner-inside" if loc == "interior"
                                else "corner-on-boundary", c))
    seek_touch = not res.shared_corners
    touch = []
    if any(dr):
        touch = _transversal(p, q, fp, fq, sp, sq, dr, out, seek_touch)
    elif _coplanar_overlap(fp, fq):
        out.append(("interior-overlap", p.corners[0]))
    if out:
        res.kind = VIOLATION
    elif res.shared_corners:
        res.kind = CORNER_CONTACT
    elif touch:
        res.kind, res.touch_witnesses = BOUNDARY_TOUCH, touch
    return res


# ---------------------------------------------------------------------------
# Convex k-gon pairs, k = 3..8
# ---------------------------------------------------------------------------

grid = st.integers(-3, 3)
small = st.integers(-2, 2)


def _edges(hull):
    return list(zip(hull, hull[1:] + hull[:1]))


@st.composite
def _kgon(draw, extra=()):
    """A strictly convex ccw hull of random grid points and `extra`, its
    coordinates doubled, and in half of the draws some edges' midpoints
    added as straight angles; at most 8 corners."""
    pts = draw(st.lists(st.tuples(grid, grid), min_size=3, max_size=6))
    hull = _hull2d([(2 * x, 2 * y) for x, y in pts] + list(extra))
    assume(hull is not None)
    out, room = [], draw(st.sampled_from((0, 8 - len(hull))))
    for a, b in _edges(hull):
        out.append(a)
        mid = (a[0] + b[0], a[1] + b[1])
        if room and mid[0] % 2 == mid[1] % 2 == 0 and draw(st.booleans()):
            out.append((mid[0] // 2, mid[1] // 2))
            room -= 1
    return out


def _lift(pts, z):
    return [(x, y, z(x, y)) for x, y in pts]


@st.composite
def kgon_pairs(draw):
    """Two convex k-gons (k = 3..8), as ints or Fractions, in one of these
    relations: independent planes; a corner or an edge of b on a's plane
    (the edge then lies along the planes' common line); one or two corners
    of a shared by b; a grid point inside an edge of a on b, likely a
    corner of b; one plane; or one plane with b on the outer side of an
    edge line of a, touching that line (a separating axis that only
    touches)."""
    ha = draw(_kgon())
    ax, ay, a0 = draw(small), draw(small), draw(small)

    def za(x, y):
        return ax * x + ay * y + a0

    case = draw(st.sampled_from(("tilted", "corner", "edge", "shared", "on-edge",
                                 "coplanar", "touching")))
    if case == "touching":
        (vx, vy), (wx, wy) = draw(st.sampled_from(_edges(ha)))
        halves = (wx - vx) % 2 == (wy - vy) % 2 == 0
        on_line = [(vx + t * (wx - vx) // 2, vy + t * (wy - vy) // 2)
                   for t in draw(st.lists(st.integers(-2, 4), min_size=1, max_size=3))
                   if halves or t % 2 == 0]
        pts = [(2 * x, 2 * y) for x, y in draw(st.lists(st.tuples(grid, grid),
                                                        min_size=1, max_size=5))]
        outer = [pt for pt in pts if cross2((vx, vy), (wx, wy), pt) < 0]
        hb = _hull2d(on_line + outer)
        assume(hb is not None)
        b = _lift(hb, za)
    elif case in ("shared", "on-edge"):
        if case == "shared":
            shared = draw(st.lists(st.sampled_from(ha), min_size=1, max_size=2,
                                   unique=True))
        else:
            (vx, vy), (wx, wy) = draw(st.sampled_from(_edges(ha)))
            g = math.gcd(wx - vx, wy - vy)
            assume(g > 1)
            i = draw(st.integers(1, g - 1))
            shared = [(vx + i * (wx - vx) // g, vy + i * (wy - vy) // g)]
        hb = draw(_kgon(extra=shared))
        (vx, vy) = shared[0]
        if len(shared) == 2:
            ux, uy = shared[1][1] - vy, vx - shared[1][0]
        else:
            ux, uy = draw(small), draw(small)
        k = draw(st.sampled_from((-2, -1, 1, 2)))
        b = _lift(hb, lambda x, y: za(x, y) + k * (ux * (x - vx) + uy * (y - vy)))
    elif case in ("corner", "edge"):
        hb = draw(_kgon())
        (vx, vy), (wx, wy) = draw(st.sampled_from(_edges(hb)))
        ux, uy = (draw(small), draw(small)) if case == "corner" else (wy - vy, vx - wx)
        k = draw(st.sampled_from((-2, -1, 1, 2)))
        b = _lift(hb, lambda x, y: za(x, y) + k * (ux * (x - vx) + uy * (y - vy)))
    elif case == "coplanar":
        b = _lift(draw(_kgon()), za)
    else:
        bx, by, b0 = draw(small), draw(small), draw(small)
        b = _lift(draw(_kgon()), lambda x, y: bx * x + by * y + b0)
    a = _lift(ha, za)
    place = _placer(draw)
    return place(a), place(b)


def _placer(draw):
    """A map of a pair's polygons to `Polygon3`s: one drawn axis order and
    denominator (None for ints) for both, and for each its own drawn
    orientation and first corner."""
    order = draw(st.permutations((0, 1, 2)))
    den = draw(st.sampled_from((None, 1, 3)))

    def place(corners):
        corners = [tuple(c[k] if den is None else F(c[k], den) for k in order)
                   for c in corners]
        if draw(st.booleans()):
            corners.reverse()
        start = draw(st.integers(0, len(corners) - 1))
        return Polygon3(tuple(corners[start:] + corners[:start]))
    return place


def _same_as_reference(pair):
    if pair is None:
        return
    a, b = pair
    for p, q in ((a, b), (b, a)):
        ref = reference_classify(p, q)
        assert classify_pair(p, q) == ref, (p.corners, q.corners)


@given(convex_polygon_pairs())
def test_decisions_match_point_location(pair):
    _same_as_reference(pair)


@given(kgon_pairs())
def test_kgon_decisions_match_point_location(pair):
    _same_as_reference(pair)


@given(kgon_pairs())
def test_kinds_match_the_oracle(pair):
    a, b = pair
    assert classify_pair(a, b).kind == oracle_classify(a, b), (a.corners, b.corners)


# ---------------------------------------------------------------------------
# Pairs that share exactly one corner, in crossing planes
# ---------------------------------------------------------------------------


@st.composite
def _at_origin(draw):
    """A convex ccw polygon (`_kgon`, coordinates doubled) translated so
    that one of its corners is (0, 0), listed first: a hull corner or, in
    half of the draws, a straight angle added at an edge's midpoint."""
    pts = [(2 * x, 2 * y) for x, y in draw(_kgon())]
    i = draw(st.integers(0, len(pts) - 1))
    if draw(st.booleans()):
        (ax, ay), (bx, by) = pts[i], pts[(i + 1) % len(pts)]
        i += 1
        pts.insert(i, ((ax + bx) // 2, (ay + by) // 2))
    cx, cy = pts[i]
    pts = [(x - cx, y - cy) for x, y in pts]
    return pts[i:] + pts[:i]


@st.composite
def corner_meet_pairs(draw):
    """Two convex polygons in crossing planes with exactly one common
    corner c, which is a hull corner or a straight angle of each.

    Both are drawn around c = (0, 0) (`_at_origin`), and q is turned a half
    turn about c in half of the draws, so that their chords on the common
    line L leave c in the same or in opposite directions.  p is lifted to
    z = ax x + ay y and q to z + k (x dy - y dx), so L lies over the line
    through c along (dx, dy), which runs into p (the sum of p's corners)
    or into q, along an edge at c of p or of q (a neighbour of c on the
    other's plane), or anywhere.  The pair is then translated and placed
    as by `kgon_pairs`."""
    hp, hq = draw(_at_origin()), draw(_at_origin())
    if draw(st.booleans()):
        hq = [(-x, -y) for x, y in hq]
    along = draw(st.sampled_from(("into p", "into q", "edge of p", "edge of q",
                                  "any")))
    if along == "any":
        dx, dy = draw(small), draw(small)
    elif along.startswith("into"):
        dx, dy = map(sum, zip(*(hp if along == "into p" else hq)))
    else:
        h = hp if along == "edge of p" else hq
        dx, dy = h[draw(st.sampled_from((1, -1)))]
    assume((dx, dy) != (0, 0))
    ax, ay, k = draw(small), draw(small), draw(st.sampled_from((-2, -1, 1, 2)))
    ox, oy, oz = draw(grid), draw(grid), draw(grid)

    def lift(pts, k):
        return [(x + ox, y + oy, ax * x + ay * y + k * (x * dy - y * dx) + oz)
                for x, y in pts]
    a, b = lift(hp, 0), lift(hq, k)
    assume(len(set(a) & set(b)) == 1)
    place = _placer(draw)
    return place(a), place(b)


@given(corner_meet_pairs())
def test_corner_meet_decisions_match_point_location(pair):
    _same_as_reference(pair)


# ---------------------------------------------------------------------------
# A lone corner on the other's plane
# ---------------------------------------------------------------------------

Q = Polygon3(((0, 0, 0), (4, 0, 0), (0, 4, 0)))  # on the plane z = 0


def _decided(p, q, monkeypatch):
    """`classify_pair(p, q)`, checked against the reference; also the set
    of the passes it ran of `_cut` and `_on_common_line`.  A crossing pair
    past the plane-side exits runs `_cut` unless its one common point is a
    shared corner that both polygons' chords on the common line leave in
    opposite directions, and then `_on_common_line` unless the cuts meet
    only at a corner of both."""
    called = set()
    for name in ("_cut", "_on_common_line"):
        def counted(*args, name=name, real=getattr(geom, name)):
            called.add(name)
            return real(*args)
        monkeypatch.setattr(geom, name, counted)
    ref = reference_classify(p, q)
    res = classify_pair(p, q)
    assert res == ref, (p.corners, q.corners)
    return res, called


def test_lone_shared_corner_of_the_first_polygon(monkeypatch):
    # p meets Q's plane only at Q's corner (0, 0, 0), and lies above it
    p = Polygon3(((-1, 0, 1), (0, 0, 0), (0, -1, 1)))
    res, called = _decided(p, Q, monkeypatch)
    assert res.kind == CORNER_CONTACT and res.shared_corners == [(0, 0, 0)]
    assert not res.violations and not res.touch_witnesses and not called


def test_lone_shared_corner_of_the_second_polygon(monkeypatch):
    # p, a square on z = 0, straddles q's plane x = y and has two corners
    # on it; q meets p's plane only at p's corner (2, 2, 0)
    p = Polygon3(((-2, -2, 0), (2, -2, 0), (2, 2, 0), (-2, 2, 0)))
    q = Polygon3(((0, 0, 2), (2, 2, 0), (3, 3, 2)))
    res, called = _decided(p, q, monkeypatch)
    assert res.kind == CORNER_CONTACT and res.shared_corners == [(2, 2, 0)]
    assert not called
    res, called = _decided(q, p, monkeypatch)
    assert res.kind == CORNER_CONTACT and res.shared_corners == [(2, 2, 0)]
    assert not called


@pytest.mark.parametrize("p, reason", [
    (Polygon3(((1, 1, 0), (2, 1, 1), (1, 2, 1))), "corner-inside"),
    (Polygon3(((2, 0, 0), (2, 1, 1), (3, -1, 1))), "corner-on-boundary"),
    (Polygon3(((2, 2, 0), (2, 3, 1), (3, 2, 1))), "corner-on-boundary"),
])
def test_lone_unshared_corner_on_the_other(p, reason, monkeypatch):
    # p's one corner on Q's plane is no corner of Q but lies on Q
    for a, b in ((p, Q), (Q, p)):
        res, called = _decided(a, b, monkeypatch)
        assert res.kind == VIOLATION and res.violations == [(reason, p.corners[0])]
        assert not res.shared_corners and "_cut" in called


def test_lone_unshared_corner_off_the_other(monkeypatch):
    p = Polygon3(((5, 1, 0), (6, 1, 1), (5, 2, 1)))
    for a, b in ((p, Q), (Q, p)):
        res, _ = _decided(a, b, monkeypatch)
        assert res.kind == DISJOINT


def test_two_shared_corners_take_the_full_path(monkeypatch):
    # p shares Q's edge from (0, 0, 0) to (4, 0, 0)
    p = Polygon3(((0, 0, 0), (4, 0, 0), (2, -1, 1)))
    for a, b in ((p, Q), (Q, p)):
        res, called = _decided(a, b, monkeypatch)
        assert res.kind == CORNER_CONTACT and res.shared_corners == list(a.corners[:2])
        assert called == {"_cut", "_on_common_line"}


# ---------------------------------------------------------------------------
# A shared corner as the one common point of crossing planes
# ---------------------------------------------------------------------------


def test_toroidal_corner_contact_is_decided_before_the_cuts(monkeypatch):
    # a2 and b1 of the toroidal K4,4 straddle each other's planes and
    # share one corner, which their chords leave in opposite directions
    polygons = represent_bipartite_toroidal(complete_bipartite(4, 4)).polygons
    p, q = polygons["a2"], polygons["b1"]
    for a, b in ((p, q), (q, p)):
        _, sign = _plane_sides(polygon_properties(b).plane, a.corners)
        assert 1 in sign and -1 in sign
        res, called = _decided(a, b, monkeypatch)
        assert res.kind == CORNER_CONTACT and len(res.shared_corners) == 1
        assert not called


def test_straight_angle_corner_is_decided_at_the_cuts(monkeypatch):
    # p, on z = 0, has a straight angle at c = (0, 0, 0) across q's plane
    # x = 0, so its chord's direction is not read from c's neighbours; the
    # cuts [0, 2] and [-2, 0] along y meet at c, a corner of both
    p = Polygon3(((-2, 0, 0), (0, 0, 0), (2, 0, 0), (0, 2, 0)))
    q = Polygon3(((0, 0, 0), (0, -2, 1), (0, -2, -1)))
    for a, b in ((p, q), (q, p)):
        res, called = _decided(a, b, monkeypatch)
        assert res.kind == CORNER_CONTACT and res.shared_corners == [(0, 0, 0)]
        assert called == {"_cut"}


def test_cuts_meeting_at_a_corner_of_one_polygon(monkeypatch):
    # p's corner c = (0, 0, 0) ends its cut where q's edge crosses z = 0,
    # so c lies on q's boundary, no corner of q
    p = Polygon3(((0, 0, 0), (2, 2, 0), (-2, 2, 0)))
    q = Polygon3(((0, 0, 1), (0, 0, -1), (0, -2, 0)))
    for a, b in ((p, q), (q, p)):
        res, called = _decided(a, b, monkeypatch)
        assert res.kind == VIOLATION
        assert res.violations == [("corner-on-boundary", (0, 0, 0))]
        assert called == {"_cut", "_on_common_line"}


def test_chords_leaving_a_shared_corner_together(monkeypatch):
    # both chords run from c = (0, 0, 0) to (0, 2, 0) through both interiors
    p = Polygon3(((0, 0, 0), (2, 2, 0), (-2, 2, 0)))
    q = Polygon3(((0, 0, 0), (0, 2, 1), (0, 2, -1)))
    for a, b in ((p, q), (q, p)):
        res, called = _decided(a, b, monkeypatch)
        assert res.kind == VIOLATION and res.shared_corners == [(0, 0, 0)]
        assert [reason for reason, _ in res.violations] == ["interior-overlap"]
        assert called == {"_cut", "_on_common_line"}


# ---------------------------------------------------------------------------
# Every pair of real scenes whose boxes meet
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("build", [
    lambda: represent_bipartite_toroidal(complete_bipartite(14, 14)),
    lambda: represent_complete(12),
    lambda: represent_bipartite_grid(complete_bipartite(8, 8)),
    lambda: represent_cycle_square(7),
    represent_s239,
], ids=["toroidal-14x14", "complete-12", "grid-8x8", "cycle-square-7", "s239"])
def test_scene_pairs_match_point_location(build):
    kernel = KernelScene(build())
    polygons = kernel.polygons
    for a, b in sorted(_box_overlaps(kernel, sorted(polygons))):
        p, q = polygons[a], polygons[b]
        assert classify_pair(p, q) == reference_classify(p, q), (a, b)
