"""Line arrangement and the lifted complete-graph construction."""

from fractions import Fraction as F

import pytest

from polycontact import (Arrangement, ConstructionError, Polygon3,
                         arrangement_ok, build_line_arrangement, edge_key,
                         graph_from_edge_list, polygon_properties,
                         represent_complete, represent_min_degree3, strictify,
                         verify_scene)
from polycontact.arrangement import audit_arrangement


def full_recompute_arrangement(n):
    """Reference build: recompute every intersection for each candidate tilt
    and accept the first one whose whole prefix passes `arrangement_ok`."""
    anchors = {1: (F(0), F(0)), 2: (F(0), F(0)), 3: (F(1), F(0))}
    directions = {1: (F(1), F(0)), 2: (F(0), F(-1)), 3: (F(-1), F(-1))}

    def intersect(a1, d1, a2, d2):
        det = d1[0] * (-d2[1]) - (-d2[0]) * d1[1]
        if det == 0:
            return None
        rx, ry = a2[0] - a1[0], a2[1] - a1[1]
        s = (rx * (-d2[1]) - (-d2[0]) * ry) / det
        return (a1[0] + s * d1[0], a1[1] + s * d1[1])

    def all_points(k):
        pts = {}
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                p = intersect(anchors[i], directions[i], anchors[j], directions[j])
                if p is None:
                    return None
                pts[frozenset((i, j))] = p
        return pts

    for i in range(4, n + 1):
        prev = i - 1
        pts = all_points(prev)
        p2 = pts[frozenset((prev, i - 2))]
        p3 = pts[frozenset((prev, i - 3))]
        pivot = (p2[0] + (p2[0] - p3[0]) / 2, p2[1] + (p2[1] - p3[1]) / 2)
        d = directions[prev]
        t = F(1, 2)
        while True:
            anchors[i] = pivot
            directions[i] = (d[0] + t * d[1], d[1] - t * d[0])
            pts_i = all_points(i)
            if pts_i is not None and arrangement_ok(Arrangement(
                    n=i, anchors=dict(anchors), directions=dict(directions),
                    points=pts_i)):
                break
            t /= 2
    return anchors, directions, all_points(n)


class TestArrangement:
    def test_seed_lines_fixed_points(self):
        arr = build_line_arrangement(3)
        assert arr.point(1, 3) == (F(1), F(0))
        assert arr.point(2, 3) == (F(0), F(-1))
        assert arr.point(1, 2) == (F(0), F(0))

    @pytest.mark.parametrize("n", [3, 4, 5, 7])
    def test_audit_passes(self, n):
        arr = build_line_arrangement(n)
        assert audit_arrangement(arr) == []

    def test_too_small(self):
        with pytest.raises(ConstructionError):
            build_line_arrangement(2)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_matches_full_recompute(self, n):
        arr = build_line_arrangement(n)
        anchors, directions, points = full_recompute_arrangement(n)
        assert arr.anchors == anchors
        assert arr.directions == directions
        assert arr.points == points

    def test_failed_certificate_raises(self, monkeypatch):
        import polycontact.arrangement as arrangement
        monkeypatch.setattr(arrangement, "arrangement_ok", lambda arr: False)
        with pytest.raises(ConstructionError):
            build_line_arrangement(5)


class TestComplete:
    def test_k4_verifies(self):
        scene = represent_complete(4)
        report = verify_scene(scene)
        assert report.passed
        assert len(report.reconstructed) == 6

    def test_k5_corner_counts(self):
        scene = represent_complete(5)
        assert all(len(p.corners) == 4 for p in scene.polygons.values())

    def test_k3_degenerate(self):
        scene = represent_complete(3)
        assert scene.meta["degenerate"]
        assert all(p.kind == "segment" for p in scene.polygons.values())
        assert verify_scene(scene).passed

    def test_too_small(self):
        with pytest.raises(ConstructionError):
            represent_complete(2)

    def test_vertical_planes(self):
        # every polygon's corners project onto its arrangement line
        scene = represent_complete(6)
        for poly in scene.polygons.values():
            cs = poly.corners
            a, b = cs[0], cs[1]
            for c in cs[2:]:
                lhs = (b[0] - a[0]) * (c[1] - a[1])
                rhs = (b[1] - a[1]) * (c[0] - a[0])
                assert lhs == rhs

    def test_unperturbed_heights(self):
        scene = represent_complete(5)
        order = scene.meta["order"]
        idx = {v: i + 1 for i, v in enumerate(order)}
        for e, p in scene.contacts.items():
            u, v = tuple(e)
            lo = min(idx[u], idx[v])
            if {idx[u], idx[v]} == {1, 2}:
                assert p[2] < lo
            else:
                assert p[2] == lo


class TestMinDegree3:
    def test_petersen(self, petersen):
        scene = represent_min_degree3(petersen)
        report = verify_scene(scene)
        assert report.passed
        assert len(report.reconstructed) == 15

    def test_k4_matches_complete(self):
        from polycontact import Graph
        g = Graph.from_edges([(str(i), str(j)) for i in range(1, 5)
                              for j in range(i + 1, 5)])
        scene = represent_min_degree3(g)
        full = represent_complete(4)
        assert scene.contacts == full.contacts
        for v in g.vertices:
            assert scene.polygons[v].corners == full.polygons[v].corners

    def test_low_degree_rejected(self):
        c5 = graph_from_edge_list("1 2\n2 3\n3 4\n4 5\n5 1")
        with pytest.raises(ConstructionError, match="degree"):
            represent_min_degree3(c5)


class TestStrictify:
    def test_strictifies_k6(self):
        scene = strictify(represent_complete(6))
        ctx = scene.context()
        for poly in scene.polygons.values():
            assert polygon_properties(poly, ctx).strictly_convex
        assert verify_scene(scene).passed
        assert scene.certificate.to_text() == verify_scene(scene).to_text()

    def test_contact_map_preserved(self):
        base = represent_complete(5)
        out = strictify(base)
        assert set(out.contacts) == set(base.contacts)
        for e in base.contacts:
            bx, by, _ = base.contacts[e]
            ox, oy, _ = out.contacts[e]
            assert (bx, by) == (ox, oy)

    def test_idempotent_combinatorics(self):
        once = strictify(represent_complete(5))
        twice = strictify(once)
        assert set(once.contacts) == set(twice.contacts)
        for label in once.polygons:
            assert len(once.polygons[label].corners) == \
                len(twice.polygons[label].corners)


class TestCertificate:
    def test_backs_off_past_defect_away_from_lowered_polygons(self, monkeypatch):
        # only polygons 1 and 2 are lowered; at delta = 1/2 the declared
        # contact of edge 3-4 is moved, so that scene must not be returned
        import polycontact.arrangement as arrangement
        lift = arrangement._lift_scene

        def lift_with_defect(g, arr, delta):
            scene = lift(g, arr, delta)
            if delta == F(1, 2):
                x, y, z = scene.contacts[edge_key("3", "4")]
                scene.contacts[edge_key("3", "4")] = (x, y, z + 1)
            return scene

        monkeypatch.setattr(arrangement, "_lift_scene", lift_with_defect)
        scene = represent_complete(5)
        assert scene.meta["delta"] == "1/4"
        assert scene.certificate.passed
        assert scene.certificate.to_text() == verify_scene(scene).to_text()

    def test_mutated_scene_fails_whatever_its_certificate(self):
        scene = represent_complete(5)
        poly = scene.polygons["3"]
        x, y, z = poly.corners[0]
        scene.polygons["3"] = Polygon3(corners=((x, y, z + 1),) + poly.corners[1:])
        assert scene.certificate.passed
        assert not verify_scene(scene).passed
