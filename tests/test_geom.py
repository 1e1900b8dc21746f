"""Polygon properties and pair classification."""

from fractions import Fraction

from hypothesis import given, strategies as st

from polycontact.geom import (ArithmeticContext, Polygon3, classify_pair,
                              polygon_properties, CORNER_CONTACT, DISJOINT,
                              VIOLATION, BOUNDARY_TOUCH)

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


@given(convex_polygon_pairs())
def test_classify_symmetric_property(pair):
    if pair is None:
        return
    a, b = pair
    assert classify_pair(a, b, EX).kind == classify_pair(b, a, EX).kind
