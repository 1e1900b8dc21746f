"""Bipartite constructions: toroidal, integer grid, unit-triangle K33."""

import math

import pytest

from polycontact import (ConstructionError, Graph, complete_bipartite,
                         core_polygon, edge_key, grid_extent,
                         represent_bipartite_grid, represent_bipartite_toroidal,
                         represent_k33_unit_triangles)


class TestToroidal:
    def test_k88_toroidal_positions(self):
        scene = represent_bipartite_toroidal(complete_bipartite(8, 8))
        assert scene.certificate.passed
        assert scene.meta["toroidal_grid"] == (8, 14)
        # every corner is rotation step x half-circle step
        radius, dist = 1.0, 2.0
        lead = []
        for k in range(8):
            phi = math.pi * k / 7
            lead.append((dist - math.sin(phi), -math.cos(phi)))
        corners = {tuple(c) for p in scene.polygons.values() for c in p.corners}
        for c in corners:
            ok = False
            for m in range(8):
                th = 2 * math.pi * m / 8
                for x, z in lead:
                    cand = (x * math.cos(th), x * math.sin(th), z)
                    if math.dist(c, cand) < 1e-9:
                        ok = True
            assert ok, c

    def test_k23_degenerate(self):
        # part A is padded to 3 and the scene retracted: each B-polygon,
        # once a segment, keeps its two contacts and pulls a third corner in
        scene = represent_bipartite_toroidal(complete_bipartite(2, 3))
        assert "degenerate" not in scene.meta
        assert scene.meta["toroidal_grid"] == (3, 4)
        assert all(len(p.corners) == 3 for p in scene.polygons.values())
        assert scene.certificate.passed

    def test_k44_minus_matching(self):
        g = complete_bipartite(4, 4)
        edges = [tuple(sorted(e)) for e in g.edges
                 if e not in {edge_key(f"a{i}", f"b{i}") for i in range(1, 5)}]
        g2 = Graph.from_edges(edges, vertices=g.vertices)
        scene = represent_bipartite_toroidal(g2, parts=scene_parts(g2))
        report = scene.certificate
        assert report.passed
        assert len(report.reconstructed) == 12

    def test_non_bipartite_rejected(self):
        tri = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "a")])
        with pytest.raises(ConstructionError, match="bipartite"):
            represent_bipartite_toroidal(tri)

    def test_b_polygons_congruent(self):
        scene = represent_bipartite_toroidal(complete_bipartite(5, 6))
        _, b_part = scene.meta["parts"]

        def side_lengths(label):
            cs = scene.polygons[label].corners
            return [round(math.dist(cs[i], cs[(i + 1) % len(cs)]), 9)
                    for i in range(len(cs))]

        reference = side_lengths(b_part[0])
        for v in b_part[1:]:
            assert side_lengths(v) == reference

    def test_a_polygons_distinct_heights(self):
        scene = represent_bipartite_toroidal(complete_bipartite(4, 5))
        a_part, _ = scene.meta["parts"]
        heights = []
        for v in a_part:
            zs = {c[2] for c in scene.polygons[v].corners}
            assert len(zs) == 1
            heights.append(zs.pop())
        assert len(set(heights)) == len(a_part)

    def test_edge_removal_keeps_planes(self):
        g = complete_bipartite(4, 5)
        full = represent_bipartite_toroidal(g)
        edges = [tuple(sorted(e)) for e in g.edges if e != edge_key("a2", "b3")]
        g2 = Graph.from_edges(edges, vertices=g.vertices)
        partial = represent_bipartite_toroidal(g2, parts=scene_parts(g2))
        for v in g.vertices:
            kept = set(map(tuple, partial.polygons[v].corners))
            assert kept <= set(map(tuple, full.polygons[v].corners))


def scene_parts(g):
    a = [v for v in g.vertices if v.startswith("a")]
    b = [v for v in g.vertices if v.startswith("b")]
    return a, b


class TestIntegerGrid:
    def test_k816_extent_formula(self):
        scene = represent_bipartite_grid(complete_bipartite(8, 16))
        assert scene.certificate.passed
        ext = grid_extent(scene)
        # span from the proof's formula: 4*3 (stack) + 4*3+2 (core) = 26
        assert ext.gx <= 26
        assert all(got <= cap for got, cap in zip(ext[:3], (32, 8, 8)))

    def test_k44_exact_integers(self):
        scene = represent_bipartite_grid(complete_bipartite(4, 4))
        assert scene.certificate.passed
        for p in scene.polygons.values():
            for c in p.corners:
                assert all(x.denominator == 1 for x in c)

    def test_missing_edge_contact_count(self):
        g = complete_bipartite(3, 5)
        edges = [tuple(sorted(e)) for e in g.edges if e != edge_key("a1", "b1")]
        g2 = Graph.from_edges(edges, vertices=g.vertices)
        scene = represent_bipartite_grid(g2, parts=scene_parts(g2))
        report = scene.certificate
        assert report.passed
        assert len(report.reconstructed) == 14

    def test_repeated_part_label_rejected(self):
        # a repeated label would count twice in the padded part sizes
        parts = (["a1", "a1", "a2", "a3"], ["b1", "b2", "b3"])
        with pytest.raises(ConstructionError, match="repeats a label"):
            represent_bipartite_grid(complete_bipartite(3, 3), parts=parts)

    def test_core_polygon_budgets(self):
        for b in range(3, 17):
            corners, sides = core_polygon(b)
            assert len(corners) == b
            xs = {x for x, _ in corners}
            ys = {y for _, y in corners}
            cb4 = -(-b // 4)
            assert max(xs) - min(xs) + 1 <= ((b + 1) // 2) // 2 * (cb4 - 1) + 2
            assert max(ys) - min(ys) + 1 <= 2 * cb4

    def test_plane_structure(self):
        # B-polygons lie in planes parallel to the xz-plane
        scene = represent_bipartite_grid(complete_bipartite(5, 6))
        a_part, b_part = scene.meta["parts"]
        for v in b_part:
            ys = {c[1] for c in scene.polygons[v].corners}
            assert len(ys) == 1
        for v in a_part:
            zs = {c[2] for c in scene.polygons[v].corners}
            assert len(zs) == 1


class TestK33:
    def test_unit_sides(self):
        scene = represent_k33_unit_triangles()
        for p in scene.polygons.values():
            cs = p.corners
            for i in range(3):
                assert abs(math.dist(cs[i], cs[(i + 1) % 3]) - 1.0) <= 1e-9

    def test_beta(self):
        scene = represent_k33_unit_triangles()
        expect = 120.0 - math.degrees(math.acos(-1.0 / 8.0))
        assert abs(scene.meta["beta_degrees"] - expect) <= 1e-6
        assert abs(scene.meta["beta_degrees"] - 22.819) <= 1e-2

    def test_projection_circle(self):
        scene = represent_k33_unit_triangles()
        r = math.tan(math.radians(30.0))
        for v in ("a1", "a2", "a3"):
            for c in scene.polygons[v].corners:
                assert abs(math.hypot(c[0], c[1]) - r) <= 1e-9

    def test_nine_contacts_and_heights(self):
        scene = represent_k33_unit_triangles()
        report = scene.certificate
        assert report.passed
        assert len(report.reconstructed) == 9
        zs = sorted({round(c[2], 9) for p in scene.polygons.values()
                     for c in p.corners})
        assert zs == [0.0, 0.5, 1.0]
