"""Polygon properties and pair classification."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polycontact import geom
from polycontact.geom import (ArithmeticContext, PairClassification, Polygon3,
                              _one_side, _plane_sides, classify_pair, polygon_properties,
                              CORNER_CONTACT, DISJOINT, VIOLATION, BOUNDARY_TOUCH)

from oracle_geom import oracle_classify

F = Fraction
EX = ArithmeticContext(exact=True)
FL = ArithmeticContext(exact=False, eps=1e-9)


def P(*corners):
    return Polygon3(corners=tuple(tuple(map(F, c)) for c in corners))


def _floats(poly):
    return Polygon3(tuple(tuple(float(x) for x in c) for c in poly.corners))


_EPS = FL.eps
_NAN, _INF = float("nan"), float("inf")
# (x, sign in exact mode, sign in float mode with eps 1e-9); NaN counts as
# zero in both, as does anything within eps in float mode
SIGNS = [
    (0, 0, 0),
    (-0.0, 0, 0),
    (_EPS, 1, 0),
    (-_EPS, -1, 0),
    (math.nextafter(_EPS, _INF), 1, 1),
    (math.nextafter(-_EPS, -_INF), -1, -1),
    (5e-324, 1, 0),
    (F(-1, 2 ** 200), -1, 0),
    (_NAN, 0, 0),
    (_INF, 1, 1),
    (-_INF, -1, -1),
    (F(1, 3), 1, 1),
    (F(-1, 10 ** 12), -1, 0),
    (2 ** 200 + 1, 1, 1),
    (-(2 ** 200), -1, -1),
]


class TestSignSemantics:
    """`sign`, `is_zero`, `is_zero_vec` and the coplanarity check agree on
    one threshold: |x| <= eps is zero, and so is NaN."""

    @pytest.mark.parametrize("x, exact, fl", SIGNS)
    def test_context_predicates(self, x, exact, fl):
        for ctx, want in ((EX, exact), (FL, fl)):
            assert ctx.sign(x) == want, (ctx, x)
            assert ctx.is_zero(x) is (want == 0), (ctx, x)
            for v in ((x, 0, 0), (0, x, 0), (0, 0, x)):
                assert geom.is_zero_vec(v, ctx) is (want == 0), (ctx, v)

    @pytest.mark.parametrize("x, exact, fl", SIGNS)
    def test_coplanarity(self, x, exact, fl):
        # the last corner is off the z = 0 plane of the first three by x
        poly = Polygon3(((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, x)))
        for ctx, want in ((EX, exact), (FL, fl)):
            props = polygon_properties(poly, ctx)
            assert props.planar is (want == 0), (ctx, x)
            assert ("corners not coplanar" in props.issues) is (want != 0)


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


def _flat(*corners):
    return P(*((x, y, 0) for x, y in corners))


def _scanned(poly):
    """`polygon_properties` with the exact walk switched off, so every
    polygon goes through the O(k^2) scan."""
    walk = geom._winds_once
    geom._winds_once = lambda pts, turns: False
    try:
        return polygon_properties(poly)
    finally:
        geom._winds_once = walk


def _with_scan_calls(poly, ctx=EX):
    """`polygon_properties(poly, ctx)` and the scan's segment tests it ran."""
    calls = []
    test = geom._segments_intersect2d
    geom._segments_intersect2d = lambda *args: calls.append(args) or test(*args)
    try:
        return polygon_properties(poly, ctx), calls
    finally:
        geom._segments_intersect2d = test


class TestExactCertificate:
    """The exact O(k) walk certifies simple convex polygons; anything else
    goes through the scan, whose findings stay as they were."""

    @pytest.mark.parametrize("corners, simple, convex, strict, issues", [
        # {5/2}: every turn has one sign, but the edges turn around twice
        (((0, 2), (-2, -1), (2, 1), (-2, 1), (2, -1)), False, False, False,
         ["edges 0 and 2 intersect"]),
        # left turns and one zero turn that folds back at (1, 1): the two
        # vertical edges there hide two of the x sign changes
        (((0, 0), (1, 0), (1, 1), (1, -1), (2, -1), (2, 1), (0, 1)),
         False, False, False, ["edges 0 and 2 intersect"]),
        # a straight angle at (1, 0)
        (((0, 0), (1, 0), (2, 0), (2, 2), (0, 2)), True, True, False, []),
        # a reflex corner at (1, 1)
        (((0, 0), (4, 0), (1, 1), (0, 4)), True, False, False, []),
        (((0, 0), (1, 1), (1, 0), (0, 1)), False, False, False,
         ["edges 0 and 2 intersect"]),
        # a spike on a triangle: the edge after the fold meets edge 0
        (((0, 0), (4, 0), (2, 0), (0, 3)), False, False, False,
         ["edges 0 and 2 intersect"]),
    ], ids=["pentagram", "folded-spike", "straight-angle", "reflex-quad",
            "bow-tie", "spike"])
    def test_named_cases(self, corners, simple, convex, strict, issues):
        for poly in (_flat(*corners), _flat(*reversed(corners))):
            props = polygon_properties(poly)
            assert (props.simple, props.convex, props.strictly_convex) == (
                simple, convex, strict)
            assert props == _scanned(poly)
        assert polygon_properties(_flat(*corners)).issues == issues

    def test_convex_polygon_never_scanned(self):
        hexagon = _flat((0, 0), (2, 0), (3, 1), (3, 2), (1, 2), (0, 1))
        props, calls = _with_scan_calls(hexagon)
        assert props.strictly_convex and calls == []
        _, calls = _with_scan_calls(_floats(hexagon), FL)
        assert calls  # float mode keeps the scan

    def test_float_keeps_the_thin_sliver_verdict(self):
        # opposite edges of this convex quadrilateral come within 1e-12,
        # which the float scan calls touching
        sliver = Polygon3(((0.0, 0.0, 0.0), (1.0, 0.0, 0.0),
                           (2.0, 1e-12, 0.0), (1.0, 2e-12, 0.0)))
        assert not polygon_properties(sliver, FL).simple
        assert polygon_properties(sliver, EX).convex


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
        assert not _one_side(_plane_sides(polygon_properties(a).plane, b.corners, EX)[1])
        assert not _one_side(_plane_sides(polygon_properties(b).plane, a.corners, EX)[1])
        assert classify_pair(a, b).kind == DISJOINT
        assert classify_pair(b, a).kind == DISJOINT

    def test_one_sided_first_polygon_needs_one_plane_pass(self, monkeypatch):
        # a lies strictly above b's plane: an exact pair is Disjoint before
        # b's corners are measured against a's plane
        a = P((0, 0, 1), (4, 0, 2), (0, 4, 1))
        b = P((0, 0, 0), (4, 0, 0), (0, 4, 0))
        calls = []
        real = geom._plane_sides

        def counted(*args):
            calls.append(1)
            return real(*args)
        monkeypatch.setattr(geom, "_plane_sides", counted)
        assert classify_pair(a, b).kind == DISJOINT
        assert len(calls) == 1
        # in float mode both passes run, and the kind is the same
        calls.clear()
        assert classify_pair(_floats(a), _floats(b), FL).kind == DISJOINT
        assert len(calls) == 2

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

    def test_coplanar_edge_on_edge_is_a_corner_violation(self, monkeypatch):
        # b's edge runs along a's edge between two corners of b, and no
        # corner is shared: b's corners on a's boundary make the pair a
        # violation, not a boundary touch
        a = P((0, 0, 0), (4, 0, 0), (0, 4, 0))
        b = P((1, 0, 0), (3, 0, 0), (2, -2, 0))

        def check(x, y, ctx):
            for p, q in ((x, y), (y, x)):
                res = classify_pair(p, q, ctx)
                assert res.kind == VIOLATION
                assert [r for r, _ in res.violations] == ["corner-on-boundary"] * 2

        check(_floats(a), _floats(b), FL)
        # an exact pair is decided without the coplanar touch search
        monkeypatch.setattr(geom, "_boundary_touch_points", None)
        check(a, b, EX)

    def test_segment_along_a_float_edge_is_a_touch(self):
        # within eps 1e-9 the segment runs along the triangle's edge y = 0,
        # so its clipped chord is on the boundary (`_chord`'s
        # through_interior is False) and is not located; its midpoint,
        # 1.3e-9 off the edge, would be located in the interior
        seg = Polygon3(((-0.1, 0.9e-9, 0.0), (1.2, 1.8e-9, 0.0)))
        tri = _floats(P((0, 0, 0), (1, 0, 0), (0, 1, 0)))
        for p, q in ((seg, tri), (tri, seg)):
            res = classify_pair(p, q, FL)
            assert res.kind == BOUNDARY_TOUCH
            assert res.violations == []

    # b's plane y = 1 crosses a's interior: a's chord on it runs from
    # (0, 1, 0) to (3, 1, 0); b straddles a's plane and meets it in one
    # corner, at one end of that chord or the other
    @pytest.mark.parametrize("b", [
        P((3, 1, 0), (5, 1, 2), (5, 1, -2)),
        P((0, 1, 0), (-2, 1, 2), (-2, 1, -2)),
    ], ids=["high-end", "low-end"])
    def test_corner_at_a_chord_end_is_on_the_boundary(self, b):
        a = P((0, 0, 0), (4, 0, 0), (0, 4, 0))
        for x, y in ((a, b), (b, a)):
            res = classify_pair(x, y)
            assert res.kind == VIOLATION
            assert res.violations == [("corner-on-boundary", b.corners[0])]

    def test_chord_along_an_edge_is_on_the_boundary(self):
        # b's plane y = 0 meets a along its edge from (0, 0, 0) to (4, 0, 0):
        # b's corner strictly inside that chord is on a's boundary, since a
        # does not straddle b's plane
        a = P((0, 0, 0), (4, 0, 0), (0, 4, 0))
        b = P((2, 0, 0), (3, 0, 2), (1, 0, 2))
        for x, y in ((a, b), (b, a)):
            res = classify_pair(x, y)
            assert res.violations == [("corner-on-boundary", (2, 0, 0))]

    def test_overlap_witness_is_the_common_intervals_midpoint(self):
        # on the common line y = 1, z = 0 a spans x in [0, 4] and b spans
        # [1, 11/2]; both straddle, so the midpoint of [1, 4] is interior
        # to both
        a = P((0, 0, 0), (4, 0, 0), (4, 4, 0), (0, 4, 0))
        b = P((1, 1, -1), (7, 1, -1), (1, 1, 3))
        for x, y in ((a, b), (b, a)):
            res = classify_pair(x, y)
            assert res.violations == [("interior-overlap", (F(5, 2), F(1), F(0)))]

    def test_touch_witnesses_in_order(self):
        # b straddles a's plane and meets it in [3/2, 5/2] on a's edge
        # y = 0: an open common interval, but a does not straddle b's
        # plane, so both ends are touch points, in the order of t along the
        # common line, which the swapped pair runs the other way
        a = P((0, 0, 0), (4, 0, 0), (0, 4, 0))
        b = P((1, 0, -1), (3, 0, -1), (2, 0, 1))
        ends = [(F(3, 2), F(0), F(0)), (F(5, 2), F(0), F(0))]
        assert classify_pair(a, b) == PairClassification(BOUNDARY_TOUCH, touch_witnesses=ends)
        assert classify_pair(b, a).touch_witnesses == ends[::-1]
        # a common interval that is one point gives one witness
        a = P((0, 0, 0), (2, 0, 1), (0, -2, 0))
        b = P((0, 0, 1), (2, 0, 0), (0, 2, 0))
        for x, y in ((a, b), (b, a)):
            assert classify_pair(x, y).touch_witnesses == [(F(1), F(0), F(1, 2))]

    def test_coplanar_touch_on_an_axis_is_not_disjoint(self):
        # b lies below a's edge line y = 0 and touches it at a corner on
        # a's edge: no axis separates them strictly
        a = P((0, 0, 0), (4, 0, 0), (0, 4, 0))
        b = P((2, 0, 0), (3, -2, 0), (1, -2, 0))
        for x, y in ((a, b), (b, a)):
            res = classify_pair(x, y)
            assert res.violations == [("corner-on-boundary", (2, 0, 0))]
        # moved down by one, an axis separates them
        b = P((2, -1, 0), (3, -3, 0), (1, -3, 0))
        assert classify_pair(a, b) == PairClassification(DISJOINT)

    @pytest.mark.parametrize("b", [
        P((3, 0, 0), (3, -2, 1), (3, -2, -1)),
        P((3, 0, 0), (5, -2, 0), (3, -2, 0)),
    ], ids=["crossing", "coplanar"])
    def test_corner_on_a_straight_angle_edge(self, b):
        # b's corner (3, 0, 0) lies on a's edge from (2, 0, 0) to (4, 0, 0),
        # beyond the end of the edge before it, which runs on the same line
        a = P((0, 0, 0), (2, 0, 0), (4, 0, 0), (4, 4, 0), (0, 4, 0))
        for x, y in ((a, b), (b, a)):
            assert classify_pair(x, y).violations == [("corner-on-boundary", (3, 0, 0))]

    @pytest.mark.parametrize("b", [
        P((3, 0, 0), (3, -2, 1), (3, -2, -1)),
        P((3, 0, 0), (5, -2, 0), (3, -2, 0)),
    ], ids=["crossing", "coplanar"])
    def test_float_corner_on_a_straight_angle_edge(self, b):
        # with eps > 0, (3, 0, 0) is beyond the first straight-angle edge's
        # box; the next edge still puts it on a's boundary
        a = _floats(P((0, 0, 0), (2, 0, 0), (4, 0, 0), (4, 4, 0), (0, 4, 0)))
        for x, y in ((a, _floats(b)), (_floats(b), a)):
            assert classify_pair(x, y, FL).violations == [
                ("corner-on-boundary", (3.0, 0.0, 0.0))]

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
    """Two random convex polygons, each lifted to its own small-integer
    plane.  b's plane is a's or one parallel to it, an independent one, or
    a's plane tilted about a line through a corner of b or along an edge of
    b, which puts that corner or edge exactly on a's plane."""
    def hull():
        return _hull2d(draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=7)))

    def lift(pts, zmap):
        return Polygon3(corners=tuple((F(x), F(y), F(zmap(x, y))) for x, y in pts))

    tilt = st.integers(-2, 2)
    ha, hb = hull(), hull()
    if ha is None or hb is None:
        return None
    ax, ay = draw(tilt), draw(tilt)

    def za(x, y):
        return ax * x + ay * y

    case = draw(st.sampled_from(("coplanar", "tilted", "corner", "edge")))
    if case == "coplanar":
        dz = draw(st.integers(0, 1))
        return lift(ha, za), lift(hb, lambda x, y: za(x, y) + dz)
    if case == "tilted":
        bx, by, b0 = draw(tilt), draw(tilt), draw(tilt)
        return lift(ha, za), lift(hb, lambda x, y: bx * x + by * y + b0)
    i = draw(st.integers(0, len(hb) - 1))
    (vx, vy), (wx, wy) = hb[i], hb[(i + 1) % len(hb)]
    # the tilt vanishes along (ux, uy)'s normal line through corner v
    ux, uy = (draw(tilt), draw(tilt)) if case == "corner" else (wy - vy, vx - wx)
    k = draw(st.sampled_from((-2, -1, 1, 2)))
    return lift(ha, za), lift(hb, lambda x, y: za(x, y) + k * (ux * (x - vx) + uy * (y - vy)))


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


@given(st.one_of(convex_polygon_pairs(), mixed_pairs()))
def test_float_kind_matches_exact_on_small_integers(pair):
    """Small integers and halves are exact floats, and every nonzero
    quantity they give is far above eps, so the float classification
    agrees with the exact one."""
    if pair is None:
        return
    a, b = pair
    want = classify_pair(a, b, EX).kind
    assert classify_pair(_floats(a), _floats(b), FL).kind == want


# ---------------------------------------------------------------------------
# Exact certificate against the scan on random polygons
# ---------------------------------------------------------------------------


def _with_edge_points(hull):
    """A convex hull with every lattice point of its edges as a corner, so
    straight angles occur."""
    out = []
    for (ax, ay), (bx, by) in zip(hull, hull[1:] + hull[:1]):
        g = math.gcd(bx - ax, by - ay)
        out += [(ax + (bx - ax) * t // g, ay + (by - ay) * t // g) for t in range(g)]
    return out


@st.composite
def exact_polygons(draw):
    """Random int corner lists, or convex ones with straight angles from a
    grid of radius 2 or 3, on a tilted plane with any axis dropped, in
    either orientation from any start corner, as ints or Fractions."""
    radius = draw(st.sampled_from((2, 3, 20)))
    grid = st.integers(-radius, radius)
    pts = draw(st.lists(st.tuples(grid, grid), min_size=3, max_size=9))
    shape = draw(st.sampled_from(("random", "hull", "edge-points")))
    if shape != "random":
        pts = _hull2d(pts)
        if pts is None:
            return None
        if shape == "edge-points":
            pts = _with_edge_points(pts)
    tilt = st.integers(-3, 3)
    a, b, c = draw(tilt), draw(tilt), draw(tilt)
    corners = [(x, y, a * x + b * y + c) for x, y in pts]
    order = draw(st.permutations((0, 1, 2)))
    corners = [tuple(p[k] for k in order) for p in corners]
    if draw(st.booleans()):
        corners.reverse()
    start = draw(st.integers(0, len(corners) - 1))
    corners = corners[start:] + corners[:start]
    den = draw(st.sampled_from((1, 3)))
    if den != 1:
        corners = [tuple(F(x, den) for x in p) for p in corners]
    return Polygon3(tuple(corners))


@given(exact_polygons())
def test_exact_certificate_matches_scan(poly):
    """Every field equals the scan's, and a convex polygon is never
    scanned."""
    if poly is None:
        return
    props, calls = _with_scan_calls(poly)
    assert props == _scanned(poly), poly.corners
    if props.convex:
        assert calls == []
