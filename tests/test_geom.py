"""Polygon properties and pair classification."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polycontact import Graph, geom, graph_scene, verify_scene
from polycontact.geom import (GeometryError, PairClassification, Polygon3,
                              _one_side, _plane_sides, classify_pair, polygon_properties,
                              CORNER_CONTACT, DISJOINT, VIOLATION, BOUNDARY_TOUCH)

from oracle_geom import oracle_classify

F = Fraction


def P(*corners):
    return Polygon3(corners=tuple(tuple(map(F, c)) for c in corners))


def _floats(poly):
    return Polygon3(tuple(tuple(float(x) for x in c) for c in poly.corners))


def _verified_pair(a, b):
    """The kind `verify_scene` gives polygons a and b, and its findings as
    (code, witness): a scene's float coordinates are read exactly."""
    scene = graph_scene(Graph.from_edges([], vertices=["a", "b"]), {"a": a, "b": b}, {},
                        {"construction": "test", "arithmetic": "exact"})
    report = verify_scene(scene)
    return (report.pair_kinds[("a", "b")],
            [(f.code, f.witness) for f in report.violations])


def _plane_less(a, b):
    """b has no plane: `classify_pair` raises on either order, and
    `verify_scene` reports b as a degenerate polygon and classifies no
    pair."""
    for x, y in ((a, b), (b, a)):
        with pytest.raises(GeometryError, match="plane"):
            classify_pair(x, y)
    scene = graph_scene(Graph.from_edges([], vertices=["a", "b"]), {"a": a, "b": b}, {},
                        {"construction": "test", "arithmetic": "exact"})
    report = verify_scene(scene)
    assert [(f.code, f.where) for f in report.violations] == [("degenerate-polygon", "b")]
    assert report.pair_kinds == {}


_EPS = 1e-9
_NAN, _INF = float("nan"), float("inf")
# (x, its exact sign, the sign a threshold of eps = 1e-9 would give); NaN
# counts as zero, and a float is the binary rational it is, however small
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
    """`_sign`, `is_zero_vec`, the plane sides and the coplanarity check
    take the exact sign: only 0 (and NaN) is zero, also where a threshold
    of eps = 1e-9 would have made x zero (the rows whose third column is 0
    and second is not)."""

    @pytest.mark.parametrize("x, exact, fl", SIGNS)
    def test_context_predicates(self, x, exact, fl):
        assert fl in (0, exact)
        assert geom._sign(x) == exact, x
        assert _plane_sides(((1, 0, 0), 0), [(x, 0, 0)])[1] == [exact], x
        for v in ((x, 0, 0), (0, x, 0), (0, 0, x)):
            assert geom.is_zero_vec(v) is (exact == 0), v

    @pytest.mark.parametrize("x, exact, fl", SIGNS)
    def test_coplanarity(self, x, exact, fl):
        # the last corner is off the z = 0 plane of the first three by x
        poly = Polygon3(((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, x)))
        props = polygon_properties(poly)
        assert props.planar is (exact == 0), x
        assert ("corners not coplanar" in props.issues) is (exact != 0)


class TestPolygonProperties:
    def test_unit_square(self):
        props = polygon_properties(P((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)))
        assert props.planar and props.simple and props.convex
        assert props.strictly_convex

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
        # a segment has no plane; every flag is False and the issue says why
        props = polygon_properties(P((0, 0, 0), (1, 1, 1)))
        assert not (props.planar or props.simple or props.convex)
        assert props.plane is props.axis is props.flat is None
        assert props.issues == ["fewer than 3 corners"]
        line = polygon_properties(P((0, 0, 0), (1, 1, 1), (2, 2, 2)))
        assert line.plane is None and line.issues == ["all corners collinear"]

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


def _with_scan_calls(poly):
    """`polygon_properties(poly)` and the scan's segment tests it ran."""
    calls = []
    test = geom._segments_intersect2d
    geom._segments_intersect2d = lambda *args: calls.append(args) or test(*args)
    try:
        return polygon_properties(poly), calls
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
        assert not _one_side(_plane_sides(polygon_properties(a).plane, b.corners)[1])
        assert not _one_side(_plane_sides(polygon_properties(b).plane, a.corners)[1])
        assert classify_pair(a, b).kind == DISJOINT
        assert classify_pair(b, a).kind == DISJOINT

    def test_one_sided_first_polygon_needs_one_plane_pass(self, monkeypatch):
        # a lies strictly above b's plane: the pair is Disjoint before b's
        # corners are measured against a's plane
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

    def test_nearly_parallel_float_planes(self):
        # normals differ by ~1e-8: |n1|^2 |n2|^2 - (n1.n2)^2 cancels to 0.0
        # in floats; read exactly, b lies strictly above a's plane
        a = Polygon3(corners=((0.0, 0.0, 0.0), (1.0, 0.0, 0.0),
                              (0.0, 1.0, 0.0)))
        b = Polygon3(corners=((0.2, 0.2, 0.5), (1.2, 0.2, 0.5 + 1e-8),
                              (0.2, 1.2, 0.5)))
        assert _verified_pair(a, b) == _verified_pair(b, a) == (DISJOINT, [])

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

    def test_coplanar_edge_on_edge_is_a_corner_violation(self):
        # b's edge runs along a's edge between two corners of b, and no
        # corner is shared: b's corners on a's boundary make the pair a
        # violation, not a boundary touch
        a = P((0, 0, 0), (4, 0, 0), (0, 4, 0))
        b = P((1, 0, 0), (3, 0, 0), (2, -2, 0))
        for p, q in ((a, b), (b, a)):
            res = classify_pair(p, q)
            assert res.kind == VIOLATION
            assert [r for r, _ in res.violations] == ["corner-on-boundary"] * 2

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
        # float corners are read exactly, so (3.0, 0.0, 0.0) is on a's
        # boundary as (3, 0, 0) is
        a = _floats(P((0, 0, 0), (2, 0, 0), (4, 0, 0), (4, 4, 0), (0, 4, 0)))
        for x, y in ((a, _floats(b)), (_floats(b), a)):
            assert _verified_pair(x, y) == (VIOLATION, [
                ("corner-on-boundary", (3.0, 0.0, 0.0))])

    def test_symmetry(self):
        a = P((0, 0, 0), (4, 0, 0), (0, 4, 0))
        b = P((1, 1, 0), (5, 1, 0), (1, 5, 0))
        assert classify_pair(a, b).kind == classify_pair(b, a).kind

    def test_segment_through_interior(self):
        _plane_less(P((0, 0, 0), (4, 0, 0), (4, 4, 0), (0, 4, 0)),
                    P((2, 2, -1), (2, 2, 1)))

    def test_segment_corner_contact(self):
        _plane_less(P((0, 0, 0), (4, 0, 0), (0, 4, 0)), P((0, 0, 0), (0, 0, 5)))

    def test_point_polygon(self):
        tri = P((0, 0, 0), (4, 0, 0), (0, 4, 0))
        for pt in (P((4, 0, 0)), P((1, 1, 0))):
            _plane_less(tri, pt)

    def test_shared_corners_in_first_polygons_order(self):
        tri = P((0, 0, 0), (4, 0, 0), (0, 4, 0))
        wall = P((4, 0, 0), (0, 0, 0), (0, 0, 4))
        assert classify_pair(tri, wall).shared_corners == list(tri.corners[:2])
        assert classify_pair(wall, tri).shared_corners == list(wall.corners[:2])


# A collinear corner list has no plane, wherever its extreme corners stand
# in the list and whatever it meets.
COLLINEAR = P((0, 0, 0), (1, 0, 0), (2, 0, 0))


class TestCollinearList:
    def test_span_pierces_triangle(self):
        _plane_less(P((F(3, 2), -1, -1), (F(3, 2), 1, -1), (F(3, 2), 0, 1)), COLLINEAR)

    def test_corner_on_span(self):
        _plane_less(P((F(3, 2), 0, 0), (3, 1, 1), (3, -1, 1)), COLLINEAR)

    def test_point_on_span_of_unordered_list(self):
        _plane_less(P((0, 0, 5), (1, 0, 5), (0, 1, 5)), P((1, 0, 0), (0, 0, 0), (2, 0, 0)))


def _random_triangle(rng):
    """A strictly convex triangle on a small grid."""
    while True:
        tri = Polygon3(tuple(tuple(F(rng.randint(-1, 2)) for _ in range(3))
                             for _ in range(3)))
        if polygon_properties(tri).strictly_convex:
            return tri


def test_collinear_list_no_weaker_than_its_span():
    """A collinear corner list, like the segment between its extreme
    corners, is a degenerate polygon whatever triangle it meets."""
    rng = random.Random(11)
    checked = 0
    while checked < 200:
        a = tuple(F(rng.randint(-1, 1)) for _ in range(3))
        d = tuple(F(rng.randint(-1, 1)) for _ in range(3))
        if not any(d):
            continue
        ts = sorted(rng.sample(range(-1, 5), rng.choice((3, 4))))
        pts = [tuple(x + F(t, 2) * y for x, y in zip(a, d)) for t in ts]
        ends = (pts[0], pts[-1])
        rng.shuffle(pts)
        q = _random_triangle(rng)
        _plane_less(q, Polygon3(tuple(pts)))
        _plane_less(q, Polygon3(ends))
        checked += 1


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
    got = classify_pair(a, b).kind
    want = oracle_classify(a, b)
    assert got == want, f"classify={got} oracle={want}\nA={a.corners}\nB={b.corners}"


@st.composite
def plane_less_pairs(draw):
    """A point, a segment or a collinear corner list, and a convex polygon."""
    kind = draw(st.sampled_from(("point", "segment", "collinear")))
    if kind == "point":
        shape = Polygon3(corners=(tuple(F(draw(coord)) for _ in range(3)),))
    else:
        a = tuple(F(draw(coord)) for _ in range(3))
        d = tuple(F(draw(st.integers(-1, 1))) for _ in range(3))
        if not any(d):
            return None
        count = 2 if kind == "segment" else draw(st.integers(3, 4))
        ts = draw(st.lists(st.integers(-4, 4), min_size=count, max_size=count,
                           unique=True))
        shape = Polygon3(corners=tuple(tuple(x + F(t, 2) * y for x, y in zip(a, d))
                                       for t in ts))
    hull = _hull2d(draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=6)))
    if hull is None:
        return None
    cx, cy = draw(st.integers(-1, 1)), draw(st.integers(-1, 1))
    return Polygon3(corners=tuple((F(x), F(y), F(x * cx + y * cy)) for x, y in hull)), shape


@given(plane_less_pairs())
def test_plane_less_polygon_raises(pair):
    if pair is None:
        return
    _plane_less(*pair)


@given(convex_polygon_pairs())
def test_classify_symmetric_property(pair):
    if pair is None:
        return
    a, b = pair
    assert classify_pair(a, b).kind == classify_pair(b, a).kind


@given(convex_polygon_pairs())
def test_float_kind_matches_exact_on_small_integers(pair):
    """Small integers and halves are exact floats, and `verify_scene` reads
    float corners as the binary rationals they are, so the pair's float
    copy gets the kind of its `Fraction` one."""
    if pair is None:
        return
    a, b = pair
    assert _verified_pair(_floats(a), _floats(b))[0] == classify_pair(a, b).kind


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


# ---------------------------------------------------------------------------
# Triangles certified by their plane, against the walk
# ---------------------------------------------------------------------------


def _walked(poly):
    """`polygon_properties` with no triangle certificate: the coplanarity
    loop, the turn list and `_winds_once`, then the turn count (a triangle
    has no non-adjacent edges, so the scan finds nothing)."""
    props = geom.PolygonProperties()
    cs = poly.corners
    n = len(cs)
    props.plane = plane = geom._plane_of(cs)
    if plane is not None:
        props.axis = geom._drop_axis(plane[0])
        pts = [geom.project2d(c, props.axis) for c in cs]
        area2 = sum(geom.cross2(pts[0], a, b) for a, b in zip(pts[1:-1], pts[2:]))
        props.flat = tuple(pts) if area2 > 0 else tuple(reversed(pts))
    props.issues += [f"duplicate corners {i} and {j}" for i in range(n)
                     for j in range(i + 1, n) if cs[i] == cs[j]]
    if props.issues:
        props.planar = True
        return props
    if plane is None:
        props.issues.append("fewer than 3 corners" if n < 3 else "all corners collinear")
        return props
    normal, d = plane
    if any(geom.vdot(normal, c) != d for c in cs):
        props.issues.append("corners not coplanar")
        return props
    props.planar = True
    turns = [geom._sign(geom.cross2(pts[i - 1], pts[i], pts[(i + 1) % n])) for i in range(n)]
    if geom._winds_once(pts, turns):
        props.simple = props.convex = True
        props.strictly_convex = 0 not in turns
        return props
    props.simple = True
    props.convex = not (1 in turns and -1 in turns)
    props.strictly_convex = props.convex and 0 not in turns
    return props


@st.composite
def triangles(draw):
    """Three corners from a small grid: general, with a corner repeated, or
    collinear, in any order, as ints or as Fractions over 1, 2 or 3."""
    point = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
    kind = draw(st.sampled_from(("general", "repeated", "collinear")))
    a, b = draw(point), draw(point)
    if kind == "general":
        c = draw(point)
    elif kind == "repeated":
        c = draw(st.sampled_from((a, b)))
    else:
        t = draw(st.integers(-2, 3))
        c = tuple(x + t * (y - x) for x, y in zip(a, b))
    corners = draw(st.permutations((a, b, c)))
    den = draw(st.sampled_from((None, 1, 2, 3)))
    if den is not None:
        corners = [tuple(F(x, den) for x in p) for p in corners]
    return Polygon3(tuple(corners))


@given(triangles())
def test_triangle_certificate_matches_the_walk(poly):
    """Every field of a triangle's record (flags, issues, plane, axis and
    flat) equals the walk's.  This fails if the certificate runs before the
    duplicate or plane checks, or leaves any flag False."""
    assert polygon_properties(poly) == _walked(poly), poly.corners
