"""Line arrangement and the lifted complete-graph construction."""

from fractions import Fraction as F

import pytest

from polycontact import (ConstructionError, Polygon3, arrangement_ok,
                         build_line_arrangement, edge_key,
                         graph_from_edge_list, polygon_properties,
                         represent_complete, represent_min_degree3, strictify,
                         verify_scene)
from polycontact.arrangement import audit_arrangement


class TestArrangement:
    def test_seed_lines_fixed_points(self):
        # tangents to y = x**2 at s = 0, 1/4, 5/16 meet at ((s_i + s_j)/2, s_i s_j)
        arr = build_line_arrangement(3)
        assert arr.point(1, 2) == (F(1, 8), F(0))
        assert arr.point(1, 3) == (F(5, 32), F(0))
        assert arr.point(2, 3) == (F(9, 32), F(5, 64))

    @pytest.mark.parametrize("n", range(3, 41))
    def test_audit_passes(self, n):
        arr = build_line_arrangement(n)
        assert arrangement_ok(arr)
        assert audit_arrangement(arr) == []
        # at most 4n bits per coordinate, which rules out quadratic growth
        assert all(max(c.numerator.bit_length(), c.denominator.bit_length()) <= 4 * n
                   for p in arr.points.values() for c in p)

    def test_too_small(self):
        with pytest.raises(ConstructionError):
            build_line_arrangement(2)

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
