"""Polygon properties and pair classification."""

import random
from fractions import Fraction

from hypothesis import given, strategies as st

from polycontact.geom import (ArithmeticContext, Polygon3, _one_side,
                              classify_pair, polygon_properties,
                              CORNER_CONTACT, DISJOINT, VIOLATION, BOUNDARY_TOUCH)

from oracle_geom import oracle_classify

F = Fraction
EX = ArithmeticContext(exact=True)


def P(*corners):
    return Polygon3(corners=tuple(tuple(map(F, c)) for c in corners))


class TestPolygonProperties:
    def test_unit_square(self):
        props = polygon_properties(P((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)))
        assert props.planar and props.simple and props.convex
        assert props.strictly_convex and not props.degenerate

    def test_midpoint_corner_not_strict(self):
        # a square with an edge midpoint inserted stays convex, not strictly
        sq = P((0, 0, 0), (1, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0))
        props = polygon_properties(sq)
        assert props.convex and not props.strictly_convex

    def test_bowtie_not_simple(self):
        bow = P((0, 0, 0), (1, 1, 0), (1, 0, 0), (0, 1, 0))
        assert not polygon_properties(bow).simple

    def test_nonplanar(self):
        warp = P((0, 0, 0), (1, 0, 0), (1, 1, 1), (0, 1, 0))
        props = polygon_properties(warp)
        assert not props.planar

    def test_degenerate_segment(self):
        seg = P((0, 0, 0), (1, 1, 1))
        props = polygon_properties(seg)
        assert props.degenerate and props.planar
        assert props.plane is props.axis is props.flat is None

    def test_frame_from_first_noncollinear_triple(self):
        # a clockwise square, a warped one and one with a duplicate corner
        # all get the z = 0 frame of their first non-collinear triple,
        # with the projected corners turned ccw
        cw = P((0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0))
        warp = P((0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 1))
        dup = P((0, 0, 0), (0, 1, 0), (0, 1, 0), (1, 0, 0))
        for poly in (cw, warp, dup):
            props = polygon_properties(poly)
            assert props.axis == 2 and props.plane == ((0, 0, -1), 0)
            assert props.flat == tuple(c[:2] for c in reversed(poly.corners))
        assert polygon_properties(P((0, 0, 0), (1, 1, 1), (2, 2, 2))).flat is None


class TestClassifyPair:
    def test_one_shared_corner(self):
        a = P((0, 0, 0), (2, 0, 0), (0, 2, 0))
        b = P((0, 0, 0), (-2, 0, 1), (0, -2, 1))
        res = classify_pair(a, b)
        assert res.kind == CORNER_CONTACT
        assert len(res.shared_corners) == 1

    def test_triangle_rectangle_diagonal_corners(self):
        # transversal planes sharing two diagonally opposite rectangle
        # corners: the rectangle's diagonal runs through the triangle's
        # edge, which the open-polygon model allows
        rect = P((0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0))
        tri = P((0, 0, 0), (2, 2, 0), (1, 1, 3))
        # triangle's edge (0,0,0)-(2,2,0) lies in the rectangle's plane
        res = classify_pair(tri, rect)
        assert res.kind == CORNER_CONTACT
        assert len(res.shared_corners) == 2

    def test_coplanar_overlap(self):
        a = P((0, 0, 0), (4, 0, 0), (0, 4, 0))
        b = P((1, 1, 0), (5, 1, 0), (1, 5, 0))
        res = classify_pair(a, b)
        assert res.kind == VIOLATION
        assert any(r == "interior-overlap" for r, _ in res.violations)

    def test_corner_on_edge(self):
        a = P((0, 0, 0), (4, 0, 0), (0, 4, 0))
        b = P((2, 0, 0), (3, -2, 2), (1, -2, 2))
        res = classify_pair(a, b)
        assert res.kind == VIOLATION
        assert any(r == "corner-on-boundary" for r, _ in res.violations)

    def test_corner_inside(self):
        a = P((0, 0, 0), (4, 0, 0), (0, 4, 0))
        b = P((1, 1, 0), (3, -2, 2), (1, -2, 2))
        res = classify_pair(a, b)
        assert res.kind == VIOLATION
        assert any(r == "corner-inside" for r, _ in res.violations)

    def test_plus_sign_interior_chord(self):
        a = P((-2, 0, -1), (2, 0, -1), (2, 0, 1), (-2, 0, 1))
        b = P((0, -2, -1), (0, 2, -1), (0, 2, 1), (0, -2, 1))
        res = classify_pair(a, b)
        assert res.kind == VIOLATION

    def test_disjoint_parallel(self):
        a = P((0, 0, 0), (1, 0, 0), (0, 1, 0))
        b = P((0, 0, 1), (1, 0, 1), (0, 1, 1))
        assert classify_pair(a, b).kind == DISJOINT

    def test_corner_touching_plane_inside(self):
        # b meets a's plane only at one corner, inside a
        a = P((0, 0, 0), (4, 0, 0), (0, 4, 0))
        b = P((1, 1, 0), (2, 1, 1), (1, 2, 1))
        res = classify_pair(a, b)
        assert res.kind == VIOLATION
        assert res.violations == [("corner-inside", b.corners[0])]

    def test_corner_touching_plane_outside(self):
        # b meets a's plane only at one corner, outside a; neither polygon
        # is strictly on one side of the other's plane, so the full
        # classification decides
        a = P((0, 0, 0), (4, 0, 0), (0, 4, 0))
        b = P((5, 1, 0), (6, 1, 1), (4, 1, 1))
        assert not _one_side(polygon_properties(a).plane, b.corners)
        assert not _one_side(polygon_properties(b).plane, a.corners)
        assert classify_pair(a, b).kind == DISJOINT
        assert classify_pair(b, a).kind == DISJOINT

    def test_nearly_parallel_float_planes(self):
        # normals differ by ~1e-8: |n1|^2 |n2|^2 - (n1.n2)^2 cancels to 0.0
        # in floats although n1 x n2 is still above eps
        ctx = ArithmeticContext(exact=False, eps=1e-9)
        a = Polygon3(corners=((0.0, 0.0, 0.0), (1.0, 0.0, 0.0),
                              (0.0, 1.0, 0.0)))
        b = Polygon3(corners=((0.2, 0.2, 0.5), (1.2, 0.2, 0.5 + 1e-8),
                              (0.2, 1.2, 0.5)))
        assert classify_pair(a, b, ctx).kind == DISJOINT
        assert classify_pair(b, a, ctx).kind == DISJOINT

    def test_edge_edge_touch_tolerated(self):
        # two lifted edges cross over the same floor segment at z = 1/2,
        # a non-corner point of both boundaries; interiors stay apart
        a = P((0, 0, 0), (2, 0, 1), (0, -2, 0))
        b = P((0, 0, 1), (2, 0, 0), (0, 2, 0))
        res = classify_pair(a, b)
        assert res.kind == BOUNDARY_TOUCH
        assert res.touch_witnesses == [(F(1), F(0), F(1, 2))]

    def test_corner_contact_carries_no_touch_witness(self):
        # b's edge from the shared corner runs through a and leaves it at
        # (2, 2, 0), a non-corner boundary point of both; the shared corner
        # already fixes the kind, so no touch point is sought
        a = P((0, 0, 0), (4, 0, 0), (0, 4, 0))
        b = P((0, 0, 0), (3, 3, 0), (0, 0, 1))
        for x, y in ((a, b), (b, a)):
            res = classify_pair(x, y)
            assert res.kind == CORNER_CONTACT
            assert res.shared_corners == [(0, 0, 0)]
            assert res.touch_witnesses == []

    def test_symmetry(self):
        a = P((0, 0, 0), (4, 0, 0), (0, 4, 0))
        b = P((1, 1, 0), (5, 1, 0), (1, 5, 0))
        assert classify_pair(a, b).kind == classify_pair(b, a).kind

    def test_segment_through_interior(self):
        a = P((0, 0, 0), (4, 0, 0), (4, 4, 0), (0, 4, 0))
        seg = P((2, 2, -1), (2, 2, 1))
        res = classify_pair(a, seg)
        assert res.kind == VIOLATION

    def test_segment_corner_contact(self):
        a = P((0, 0, 0), (4, 0, 0), (0, 4, 0))
        seg = P((0, 0, 0), (0, 0, 5))
        res = classify_pair(a, seg)
        assert res.kind == CORNER_CONTACT

    def test_point_polygon(self):
        a = P((0, 0, 0), (4, 0, 0), (0, 4, 0))
        pt = P((4, 0, 0))
        assert classify_pair(a, pt).kind == CORNER_CONTACT
        inside = P((1, 1, 0))
        assert classify_pair(a, inside).kind == VIOLATION

    def test_shared_corners_in_first_polygons_order(self):
        tri = P((0, 0, 0), (4, 0, 0), (0, 4, 0))
        seg = P((4, 0, 0), (0, 0, 0))
        assert classify_pair(tri, seg).shared_corners == list(tri.corners[:2])
        assert classify_pair(seg, tri).shared_corners == list(seg.corners)


# A collinear corner list is checked as the segment between its extreme
# corners, wherever those stand in the list.
COLLINEAR = P((0, 0, 0), (1, 0, 0), (2, 0, 0))


class TestCollinearList:
    def test_span_pierces_triangle(self):
        tri = P((F(3, 2), -1, -1), (F(3, 2), 1, -1), (F(3, 2), 0, 1))
        for a, b in ((COLLINEAR, tri), (tri, COLLINEAR)):
            res = classify_pair(a, b)
            assert res.kind == VIOLATION
            assert res.violations == [("interior-overlap", (F(3, 2), F(0), F(0)))]

    def test_corner_on_span(self):
        tri = P((F(3, 2), 0, 0), (3, 1, 1), (3, -1, 1))
        for a, b in ((COLLINEAR, tri), (tri, COLLINEAR)):
            res = classify_pair(a, b)
            assert res.kind == VIOLATION
            assert res.violations == [("corner-on-boundary", (F(3, 2), F(0), F(0)))]

    def test_point_on_span_of_unordered_list(self):
        unordered = P((1, 0, 0), (0, 0, 0), (2, 0, 0))
        assert classify_pair(unordered, P((F(3, 2), 0, 0))).kind == VIOLATION
        assert classify_pair(unordered, P((3, 0, 0))).kind == DISJOINT


def _random_other(rng):
    """A point, a segment or a non-degenerate triangle on a small grid."""
    while True:
        k = rng.choice((1, 2, 3))
        cs = [tuple(F(rng.randint(-1, 2)) for _ in range(3)) for _ in range(k)]
        if len(set(cs)) < k:
            continue
        if k == 3 and not polygon_properties(Polygon3(tuple(cs))).strictly_convex:
            continue
        return Polygon3(tuple(cs))


def test_collinear_list_no_weaker_than_its_span():
    """Where the segment between a collinear list's extreme corners is a
    violation against q, so is the list, unless a middle corner of the
    list is a corner of q."""
    rng = random.Random(11)
    violations = 0
    for _ in range(3000):
        a = tuple(F(rng.randint(-1, 1)) for _ in range(3))
        d = tuple(F(rng.randint(-1, 1)) for _ in range(3))
        if not any(d):
            continue
        ts = sorted(rng.sample(range(-1, 5), rng.choice((3, 4))))
        pts = [tuple(x + F(t, 2) * y for x, y in zip(a, d)) for t in ts]
        ends, middle = (pts[0], pts[-1]), pts[1:-1]
        rng.shuffle(pts)
        lst, q = Polygon3(tuple(pts)), _random_other(rng)
        if any(c in q.corners for c in middle):
            continue
        if classify_pair(Polygon3(ends), q).kind != VIOLATION:
            continue
        violations += 1
        assert classify_pair(lst, q).kind == VIOLATION, (lst.corners, q.corners)
        assert classify_pair(q, lst).kind == VIOLATION, (q.corners, lst.corners)
    assert violations >= 100


# ---------------------------------------------------------------------------
# Oracle agreement on random convex pairs
# ---------------------------------------------------------------------------

coord = st.integers(-4, 4)


def _hull2d(points):
    pts = sorted(set(points))
    if len(pts) < 3:
        return None

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(list(reversed(pts)))
    hull = lower[:-1] + upper[:-1]
    return hull if len(hull) >= 3 else None


@st.composite
def convex_polygon_pairs(draw):
    """Two random convex polygons; half the time forced coplanar."""
    def polygon(zmap):
        pts2 = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=7))
        hull = _hull2d(pts2)
        if hull is None:
            return None
        return Polygon3(corners=tuple((F(x), F(y), zmap(x, y)) for x, y in hull))

    coplanar = draw(st.booleans())
    a = polygon(lambda x, y: F(0))
    if coplanar:
        dz = draw(st.integers(0, 1))
        b = polygon(lambda x, y: F(dz))
    else:
        cx = draw(st.integers(-2, 2))
        cy = draw(st.integers(-2, 2))
        b = polygon(lambda x, y: F(x * cx + y * cy - 2))
    if a is None or b is None:
        return None
    return a, b


@given(convex_polygon_pairs())
def test_classify_matches_bruteforce_oracle(pair):
    if pair is None:
        return
    a, b = pair
    got = classify_pair(a, b, EX).kind
    want = oracle_classify(a, b)
    assert got == want, f"classify={got} oracle={want}\nA={a.corners}\nB={b.corners}"


@st.composite
def mixed_pairs(draw):
    """Two of: point, segment, collinear corner list, convex polygon."""
    def shape():
        kind = draw(st.sampled_from(("point", "segment", "collinear", "polygon")))
        if kind == "polygon":
            pts2 = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=6))
            hull = _hull2d(pts2)
            if hull is None:
                return None
            cx, cy = draw(st.integers(-1, 1)), draw(st.integers(-1, 1))
            return Polygon3(corners=tuple((F(x), F(y), F(x * cx + y * cy))
                                          for x, y in hull))
        if kind == "point":
            return Polygon3(corners=(tuple(F(draw(coord)) for _ in range(3)),))
        a = tuple(F(draw(coord)) for _ in range(3))
        d = tuple(F(draw(st.integers(-1, 1))) for _ in range(3))
        if not any(d):
            return None
        count = 2 if kind == "segment" else draw(st.integers(3, 4))
        ts = draw(st.lists(st.integers(-4, 4), min_size=count, max_size=count,
                           unique=True))
        return Polygon3(corners=tuple(tuple(x + F(t, 2) * y for x, y in zip(a, d))
                                      for t in ts))

    a, b = shape(), shape()
    if a is None or b is None:
        return None
    return a, b


@given(st.one_of(convex_polygon_pairs(), mixed_pairs()))
def test_classify_symmetric_property(pair):
    if pair is None:
        return
    a, b = pair
    assert classify_pair(a, b, EX).kind == classify_pair(b, a, EX).kind
