"""Verifier behavior, especially the designed-violation negative suite."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations

import pytest

from polycontact import (Graph, Polygon3, Scene, classify_pair,
                         complete_bipartite, edge_key, graph_scene,
                         grid_extent, polygon_properties,
                         represent_2ec_cubic, represent_bipartite_grid,
                         represent_bipartite_toroidal, represent_complete,
                         represent_cubic, represent_fano,
                         represent_min_degree3, represent_oneplanar_cubic,
                         scene_from_json, verify_scene)
from polycontact.geom import _plane_of, vcross, vdot, vsub
from polycontact.scene import GRAPH
from polycontact.verify import KernelScene

from conftest import gadget_chain, prism_embedding
from oracle_geom import oracle_classify


def _translate(poly, dz):
    return Polygon3(corners=tuple((x, y, z + dz) for x, y, z in poly.corners))


def _two_triangle_scene(tri_a, tri_b, adjacent=True):
    """Tiny scene over an edge or non-edge between two polygons."""
    edges = [("a", "b")] if adjacent else [("a", "c"), ("b", "c"),
                                           ("a", "d"), ("b", "d")]
    g = Graph.from_edges([("a", "b")]) if adjacent else None
    assert adjacent
    polygons = {"a": tri_a, "b": tri_b}
    shared = set(map(tuple, tri_a.corners)) & set(map(tuple, tri_b.corners))
    contacts = {edge_key("a", "b"): next(iter(shared))} if shared else {}
    return graph_scene(g, polygons, contacts,
                       {"construction": "test", "arithmetic": "exact"})


def T(*cs):
    return Polygon3(corners=tuple(tuple(map(F, c)) for c in cs))


class TestNegativeSuite:
    """Each mutation fails with its designed violation category."""

    def test_translated_polygon_missing_contact(self):
        scene = represent_complete(4)
        victim = sorted(scene.polygons)[0]
        scene.polygons[victim] = _translate(scene.polygons[victim], F(10))
        report = verify_scene(scene)
        assert not report.passed
        assert "missing-contact" in report.violation_codes()

    def test_merged_contacts(self):
        scene = represent_complete(4)
        # rebuild two polygons so two different edges land on one point
        keys = sorted(scene.contacts, key=lambda e: sorted(e))
        e1, e2 = keys[0], keys[1]
        p1, p2 = scene.contacts[e1], scene.contacts[e2]
        for label, poly in scene.polygons.items():
            corners = tuple(p1 if tuple(c) == tuple(p2) else c
                            for c in poly.corners)
            scene.polygons[label] = Polygon3(corners=corners)
        scene.contacts[e2] = p1
        report = verify_scene(scene)
        assert not report.passed
        assert ("merged-contacts" in report.violation_codes()
                or "contact-count" in report.violation_codes())

    def test_interior_overlap_coplanar(self):
        scene = _two_triangle_scene(T((0, 0, 0), (4, 0, 0), (0, 4, 0)),
                                    T((0, 0, 0), (4, 1, 0), (1, 4, 0)))
        report = verify_scene(scene)
        assert "interior-overlap" in report.violation_codes()

    def test_corner_on_edge(self):
        scene = _two_triangle_scene(T((0, 0, 0), (4, 0, 0), (0, 4, 0)),
                                    T((0, 0, 0), (2, 0, 0), (1, -3, 2)))
        report = verify_scene(scene)
        assert "corner-on-boundary" in report.violation_codes()

    def test_corner_inside(self):
        scene = _two_triangle_scene(T((0, 0, 0), (4, 0, 0), (0, 4, 0)),
                                    T((0, 0, 0), (1, 1, 0), (1, -3, 2)))
        report = verify_scene(scene)
        assert "corner-inside" in report.violation_codes()

    def test_transversal_piercing(self):
        scene = _two_triangle_scene(T((0, 0, 0), (4, 0, 0), (0, 4, 0)),
                                    T((0, 0, 0), (3, 3, -1), (3, 3, 1)))
        report = verify_scene(scene)
        assert "interior-overlap" in report.violation_codes()

    def test_warped_corner_breaks_polygon(self):
        # the complete-graph polygons live in vertical planes, so a z-push
        # keeps them planar but folds the corner order over itself
        scene = represent_complete(5)
        victim = sorted(scene.polygons)[0]
        poly = scene.polygons[victim]
        cs = list(poly.corners)
        cs[0] = (cs[0][0], cs[0][1], cs[0][2] + F(1, 7))
        scene.polygons[victim] = Polygon3(corners=tuple(cs))
        report = verify_scene(scene)
        assert not report.passed
        assert "not-simple" in report.violation_codes()

    def test_nonplanar_polygon(self):
        warped = T((0, 0, 0), (4, 0, 0), (4, 4, 1), (0, 4, 0))
        far = T((10, 0, 0), (11, 0, 0), (10, 1, 0))
        g = Graph.from_edges([("a", "b")])
        scene = graph_scene(g, {"a": warped, "b": far}, {},
                            {"construction": "test", "arithmetic": "exact"})
        report = verify_scene(scene)
        assert not report.passed
        assert "nonplanar" in report.violation_codes()

    def test_self_intersecting_polygon(self):
        bow = T((0, 0, 0), (2, 2, 0), (2, 0, 0), (0, 2, 0))
        sq = T((5, 0, 0), (6, 0, 0), (6, 1, 0), (5, 1, 0))
        g = Graph.from_edges([("a", "b")])
        scene = graph_scene(g, {"a": bow, "b": sq}, {},
                            {"construction": "test", "arithmetic": "exact"})
        report = verify_scene(scene)
        assert "not-simple" in report.violation_codes()

    def test_convexity_claim_broken(self):
        dart = T((0, 0, 0), (4, 0, 0), (1, 1, 0), (0, 4, 0))
        far = T((10, 0, 0), (11, 0, 0), (10, 1, 0))
        g = Graph.from_edges([("a", "b")])
        scene = graph_scene(g, {"a": dart, "b": far}, {},
                            {"construction": "test", "arithmetic": "exact"})
        report = verify_scene(scene)
        assert "not-convex" in report.violation_codes()

    def test_duplicate_corner(self):
        bad = T((0, 0, 0), (4, 0, 0), (4, 0, 0), (0, 4, 0))
        far = T((10, 0, 0), (11, 0, 0), (10, 1, 0))
        g = Graph.from_edges([("a", "b")])
        scene = graph_scene(g, {"a": bad, "b": far}, {},
                            {"construction": "test", "arithmetic": "exact"})
        report = verify_scene(scene)
        assert not report.passed

    def test_shared_corner_without_edge(self):
        scene = represent_complete(4)
        g = scene.structure
        # drop one edge from the structure but keep the geometry touching
        edges = sorted(g.edges, key=sorted)
        removed = edges[0]
        g2 = Graph.from_edges([tuple(sorted(e)) for e in edges[1:]],
                              vertices=g.vertices)
        contacts = {e: p for e, p in scene.contacts.items() if e != removed}
        scene2 = graph_scene(g2, scene.polygons, contacts, scene.meta)
        report = verify_scene(scene2)
        assert not report.passed
        assert "shared-corner-without-edge" in report.violation_codes()

    def test_declared_mismatch(self):
        scene = represent_complete(4)
        key = sorted(scene.contacts, key=lambda e: sorted(e))[0]
        scene.contacts[key] = (F(99), F(99), F(99))
        report = verify_scene(scene)
        assert not report.passed
        assert "declared-mismatch" in report.violation_codes()

    def test_missing_declared_contact(self):
        scene = represent_complete(4)
        key = sorted(scene.contacts, key=lambda e: sorted(e))[0]
        del scene.contacts[key]
        report = verify_scene(scene)
        assert not report.passed
        assert "declared-mismatch" in report.violation_codes()

    def test_non_convex_polygon(self):
        # an L-shaped hexagon whose upper arm holds a corner of a vertical
        # triangle; a file's "convex": false is ignored
        L = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
        tri = [("1/2", "3/2", "0"), ("1/2", "3/2", "1"), ("3/2", "3/2", "1")]
        pts = [(f"{x}/1", f"{y}/1", "0/1") for x, y in L]
        pts += [tuple(c if "/" in c else f"{c}/1" for c in p) for p in tri]
        doc = {"kind": "graph", "structure": {"vertices": ["L", "t"], "edges": []},
               "points": [{"id": f"p{i}", "x": x, "y": y, "z": z}
                          for i, (x, y, z) in enumerate(pts)],
               "polygons": [{"label": "L", "corners": [f"p{i}" for i in range(6)],
                             "convex": False},
                            {"label": "t", "corners": ["p6", "p7", "p8"]}],
               "contacts": [], "meta": {"construction": "test", "arithmetic": "exact"}}
        report = verify_scene(scene_from_json(doc))
        assert not report.passed
        assert [(f.code, f.where) for f in report.violations] == [("not-convex", "L")]


def _unrelated_pair_scene(a, b):
    """Exact scene of two polygons whose vertices share no edge."""
    return graph_scene(Graph.from_edges([], vertices=["a", "b"]), {"a": a, "b": b}, {},
                       {"construction": "test", "arithmetic": "exact"})


class TestDegenerateCorners:
    def test_collinear_list_through_triangle_fails(self):
        # the list's extreme corners span (0,0,0)-(2,0,0), which pierces
        # the triangle's interior
        line = T((0, 0, 0), (1, 0, 0), (2, 0, 0))
        tri = T(("3/2", -1, -1), ("3/2", 1, -1), ("3/2", 0, 1))
        report = verify_scene(_unrelated_pair_scene(line, tri))
        assert not report.passed
        assert [(f.code, f.witness) for f in report.violations] == [
            ("interior-overlap", (F(3, 2), F(0), F(0)))]

    def test_shared_corner_witness_is_first_polygons_corner(self):
        tri = T((0, 0, 0), (4, 0, 0), (0, 4, 0))
        seg = T((4, 0, 0), (0, 0, 0))
        report = verify_scene(_unrelated_pair_scene(tri, seg))
        assert [(f.code, f.where, f.witness) for f in report.violations] == [
            ("shared-corner-without-edge", "a / b", (F(0), F(0), F(0)))]


def _counting_classify_pair(monkeypatch):
    """Count `verify_scene`'s calls of `classify_pair`."""
    import polycontact.verify as verify
    calls = []
    original = verify.classify_pair

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(verify, "classify_pair", counted)
    return calls


class TestBroadPhase:
    """Exact scenes classify only pairs whose closed boxes meet; boxes that
    touch in a face or a single point still count as meeting."""

    def test_boxes_meeting_in_one_shared_corner(self):
        # box [-1, 0]^3 against box [0, 1]^3: they share only the origin
        scene = _two_triangle_scene(T((0, 0, 0), (-1, 0, -1), (0, -1, -1)),
                                    T((0, 0, 0), (1, 0, 1), (0, 1, 1)))
        report = verify_scene(scene)
        assert report.passed
        assert report.pair_kinds == {("a", "b"): "CornerContact"}

    @pytest.mark.parametrize("q", [
        T((2, 0, 0), (3, -2, 2), (1, -2, -2)),  # on the face y = 0
        T((0, 2, 0), (-2, 3, 2), (-2, 1, -2)),  # on the face x = 0, the sweep axis
    ], ids=["y-face", "x-face"])
    def test_corner_on_edge_at_a_box_face(self, q):
        report = verify_scene(_unrelated_pair_scene(T((0, 0, 0), (4, 0, 0), (0, 4, 0)), q))
        assert report.pair_kinds == {("a", "b"): "Violation"}
        assert [(f.code, f.witness) for f in report.violations] == [
            ("corner-on-boundary", q.corners[0])]

    def test_gadget_chain_skips_box_disjoint_pairs(self, monkeypatch):
        scene = represent_cubic(gadget_chain(4))
        calls = _counting_classify_pair(monkeypatch)
        report = verify_scene(scene)
        assert report.passed
        pairs = list(combinations(sorted(scene.polygons), 2))
        assert list(report.pair_kinds) == pairs
        assert len(calls) < len(pairs)

    def test_toroidal_scene_skips_box_disjoint_pairs(self, monkeypatch):
        # every scene is exact and gets the box sweep: the horizontal
        # A-polygons at distinct heights have disjoint boxes
        scene = represent_bipartite_toroidal(complete_bipartite(4, 4))
        calls = _counting_classify_pair(monkeypatch)
        report = verify_scene(scene)
        assert report.passed
        pairs = list(combinations(sorted(scene.polygons), 2))
        assert list(report.pair_kinds) == pairs
        assert len(calls) < len(pairs)


class TestGridExtent:
    def test_planar_scene_depth_one(self):
        tri_a = T((0, 0, 0), (2, 0, 0), (0, 2, 0))
        tri_b = T((2, 0, 0), (4, 0, 0), (4, 2, 0))
        g = Graph.from_edges([("a", "b")])
        scene = graph_scene(g, {"a": tri_a, "b": tri_b},
                            {edge_key("a", "b"): (F(2), F(0), F(0))},
                            {"construction": "test", "arithmetic": "exact"})
        ext = grid_extent(scene)
        assert ext.gz == 1

    def test_report_deterministic(self):
        scene = represent_complete(5)
        r1 = verify_scene(scene)
        r2 = verify_scene(scene)
        assert r1.reconstructed == r2.reconstructed
        assert r1.passed and r2.passed

    def test_mixed_exact_coordinate_types(self):
        # int, Fraction and float values in one exact scene: equal values
        # are one point and one grid line, whatever their types
        a = Polygon3(corners=((0, 0, 0), (F(1, 2), 0, 0), (0, 2, F(1, 3))))
        b = Polygon3(corners=((0.5, 0.0, 0.0), (F(3, 2), 0, 0), (1, 1.25, 0)))
        key = edge_key("a", "b")
        scene = graph_scene(Graph.from_edges([("a", "b")]), {"a": a, "b": b},
                            {key: (F(1, 2), F(0), 0.0)},
                            {"construction": "test", "arithmetic": "exact"})
        kernel = KernelScene(scene)
        assert kernel.scale == 12
        assert kernel.ids == {"a": (0, 1, 2), "b": (1, 3, 4)}
        assert kernel.contact_ids == {key: 1}
        assert kernel.polygons["a"].corners == ((0, 0, 0), (6, 0, 0), (0, 24, 4))
        assert kernel.polygons["b"].corners == ((6, 0, 0), (18, 0, 0), (12, 15, 0))
        assert kernel.contacts == {key: (6, 0, 0)}
        ext = grid_extent(scene)
        assert ext == (4, 3, 2)
        assert ext[:3] == tuple(len({F(p[i]) for p in scene.all_points()}) for i in range(3))
        report = verify_scene(scene)
        assert report.passed, report.to_text()
        assert report.reconstructed == {key: (F(1, 2), F(0), F(0))}

    def test_nan_in_exact_scene_with_grid_claim(self):
        # the grid claim is still measured, and the nan corner still fails
        scene = represent_complete(4)
        scene.meta["claimed_grid"] = {"x": 100, "y": 100, "z": 100}
        label = sorted(scene.polygons)[0]
        corners = list(scene.polygons[label].corners)
        corners[0] = (math.nan,) + tuple(corners[0][1:])
        scene.polygons[label] = Polygon3(corners=tuple(corners))
        report = verify_scene(scene)
        assert ("non-finite", label) in {(f.code, f.where) for f in report.violations}
        assert report.grid_extent is not None



class TestGridClaim:
    """`verify_scene` certifies `meta["claimed_grid"]` axis by axis."""

    @pytest.fixture(scope="class")
    def chain(self):
        return represent_cubic(gadget_chain(2))

    @staticmethod
    def _claiming(scene, claim):
        return Scene(scene.kind, scene.structure, scene.polygons, scene.contacts,
                     {**scene.meta, "claimed_grid": claim})

    def test_constructions_within_claim(self, chain):
        for scene in (chain, represent_2ec_cubic(Graph.from_edges(
                [(i, j) for i in "abcd" for j in "abcd" if i < j])),
                      represent_oneplanar_cubic(prism_embedding()),
                      represent_bipartite_grid(complete_bipartite(3, 4))):
            assert "claimed_grid" in scene.meta
            assert verify_scene(scene).passed

    def test_tight_claim_passes(self, chain):
        ext = grid_extent(chain)
        tight = {"x": ext.gx, "y": ext.gy, "z": ext.gz}
        assert verify_scene(self._claiming(chain, tight)).passed

    @pytest.mark.parametrize("axis", "xyz")
    def test_one_line_short_fails(self, chain, axis):
        ext = grid_extent(chain)
        claim = {"x": ext.gx, "y": ext.gy, "z": ext.gz}
        claim[axis] -= 1
        report = verify_scene(self._claiming(chain, claim))
        assert not report.passed
        (finding,) = report.violations
        assert finding.code == "grid-claim-exceeded"
        assert finding.where == f"axis {axis}"
        assert f"extent {claim[axis] + 1} exceeds the claimed {claim[axis]}" in finding.detail

    @pytest.mark.parametrize("claim", [
        {"x": 20, "y": 20}, {"x": 20, "y": 20, "z": 20, "w": 1},
        {"x": 20, "y": -1, "z": 20}, {"x": 20, "y": 20, "z": "20"},
        {"x": 20.0, "y": 20, "z": 20}, {"x": True, "y": 20, "z": 20},
        [20, 20, 20], None])
    def test_malformed_claim_fails(self, chain, claim):
        report = verify_scene(self._claiming(chain, claim))
        assert report.violation_codes() == {"grid-claim-malformed"}

    def test_no_claim_skipped(self):
        scene = represent_complete(4)
        assert "claimed_grid" not in scene.meta
        assert verify_scene(scene).passed

    def test_cli_exit_one(self, chain, tmp_path, capsys):
        from polycontact.cli import main
        from polycontact.sceneio import write_scene
        ext = grid_extent(chain)
        out = tmp_path / "short.json"
        write_scene(str(out), self._claiming(chain, {"x": ext.gx, "y": ext.gy - 1,
                                                     "z": ext.gz}))
        assert main(["verify", str(out), "--json"]) == 1
        assert "[grid-claim-exceeded] axis y" in capsys.readouterr().out

class TestIntegerKernel:
    """Exact scenes are verified in integer coordinates; nothing of that shows."""

    def test_witnesses_in_scene_coordinates(self):
        # denominators 3, 5 and 7: the verifier scales by their lcm inside
        a = T((0, 0, 0), (F(2, 3), 0, 0), (0, F(5, 7), 0))
        b = T((F(2, 3), 0, 0), (F(2, 3), F(1, 7), F(1, 3)),
              (F(2, 3), F(-1, 7), F(1, 3)))
        # c rests one corner inside a; d cuts through a's interior
        c = T((F(1, 7), F(1, 3), 0), (F(1, 7), F(1, 3), F(2, 3)),
              (F(2, 7), F(1, 3), F(1, 2)))
        d = T((F(1, 7), F(2, 7), F(-1, 3)), (F(1, 7), F(2, 7), F(1, 3)),
              (F(3, 7), F(2, 7), 0))
        g = Graph.from_edges([("a", "b")], vertices=["a", "b", "c", "d"])
        contact = (F(2, 3), F(0), F(0))
        scene = graph_scene(g, {"a": a, "b": b, "c": c, "d": d},
                            {edge_key("a", "b"): contact},
                            {"construction": "test", "arithmetic": "exact"})
        report = verify_scene(scene)
        found = {(f.code, f.where): f.witness for f in report.violations}
        assert found == {
            ("corner-inside", "a / c"): (F(1, 7), F(1, 3), F(0)),
            ("interior-overlap", "a / d"): (F(19, 70), F(2, 7), F(0)),
        }
        for w in found.values():
            assert all(type(x) is F for x in w)
        assert report.reconstructed == {edge_key("a", "b"): contact}
        assert all(type(x) is F for x in report.reconstructed[edge_key("a", "b")])

    def test_mixed_coordinate_types_unscale_to_fractions(self):
        # int, Fraction and finite float coordinates in one exact scene: a
        # and b share (3/4, 0, 0), written as a float in a; c rests a corner
        # inside a; d cuts through a's interior
        a = Polygon3(((0, 0, 0), (0.75, 0, 0), (0, F(5, 7), 0)))
        b = Polygon3(((F(3, 4), 0, 0), (F(3, 4), F(1, 7), F(1, 3)),
                      (0.75, -0.125, F(1, 3))))
        c = Polygon3(((F(1, 7), 0.25, 0), (F(1, 7), 0.25, F(2, 3)), (F(2, 7), 0.25, 0.5)))
        d = Polygon3(((F(1, 7), 0.375, -0.5), (F(1, 7), 0.375, 0.5), (F(3, 7), 0.375, 0)))
        polygons = {"a": a, "b": b, "c": c, "d": d}
        g = Graph.from_edges([("a", "b")], vertices=list(polygons))
        scene = graph_scene(g, polygons, {edge_key("a", "b"): (0.75, 0, 0)},
                            {"construction": "test", "arithmetic": "exact"})
        kernel = KernelScene(scene)
        assert kernel.scale > 1

        def unscaled(p):
            return tuple(F(x, kernel.scale) for x in p)

        report = verify_scene(scene)
        found = {(f.code, f.where): f.witness for f in report.violations}
        as_fractions = {k: Polygon3(tuple(tuple(map(F, p)) for p in poly.corners))
                        for k, poly in polygons.items()}
        (overlap, mid), = classify_pair(as_fractions["a"], as_fractions["d"]).violations
        assert overlap == "interior-overlap"
        assert found == {("corner-inside", "a / c"): unscaled(kernel.polygons["c"].corners[0]),
                         ("interior-overlap", "a / d"): mid}
        assert found["corner-inside", "a / c"] == (F(1, 7), F(1, 4), 0)
        assert report.reconstructed == {edge_key("a", "b"): unscaled(
            kernel.contacts[edge_key("a", "b")])}
        assert report.reconstructed[edge_key("a", "b")] == (F(3, 4), 0, 0)
        for p in [*found.values(), *report.reconstructed.values()]:
            assert all(type(x) is F for x in p), p

    def test_touch_witness_order_independent_of_scaling(self):
        # b's edge runs through a's interior: a boundary touch whose two
        # witnesses are the ends of a's chord along that edge
        a = T((F(-1, 2), -4, -1), (F(5, 2), 0, F(-3, 2)), (2, F(-3, 2), -3))
        b = T((F(29, 3), F(13, 2), F(-17, 2)), (F(-89, 12), F(-127, 12), F(31, 6)),
              (F(-7, 8), F(23, 24), F(-11, 3)))
        g = Graph.from_edges([], vertices=["a", "b"])
        scene = graph_scene(g, {"a": a, "b": b}, {},
                            {"construction": "test", "arithmetic": "exact"})
        ends = [(F(13, 6), F(-1), F(-5, 2)), (F(1, 2), F(-8, 3), F(-7, 6))]
        plain = classify_pair(a, b)
        assert plain.kind == "BoundaryTouch"
        assert plain.touch_witnesses == ends
        kernel = KernelScene(scene)
        scaled = classify_pair(kernel.polygons["a"], kernel.polygons["b"])
        assert [kernel.unscale(w) for w in scaled.touch_witnesses] == ends
        report = verify_scene(scene)
        assert [(f.code, f.witness) for f in report.warnings] == [("boundary-touch", ends[0])]

    @pytest.mark.parametrize("build", [
        lambda: represent_complete(5),
        lambda: represent_min_degree3(Graph.from_edges(
            [(f"a{i}", f"a{(i + 1) % 3}") for i in range(3)]
            + [(f"b{i}", f"b{(i + 1) % 3}") for i in range(3)]
            + [(f"a{i}", f"b{i}") for i in range(3)])),
        lambda: represent_bipartite_grid(complete_bipartite(3, 4)),
        lambda: represent_oneplanar_cubic(prism_embedding()),
        lambda: represent_2ec_cubic(Graph.from_edges(
            [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
            + [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
            + [(f"o{i}", f"i{i}") for i in range(5)])),
        lambda: represent_cubic(gadget_chain(2)),
    ], ids=["complete", "mindeg3", "bipartite-grid", "oneplanar-cubic",
            "cubic-2ec", "cubic"])
    def test_pair_kinds_match_plain_classifier(self, build):
        scene = build()
        assert scene.meta["arithmetic"] == "exact"
        report = verify_scene(scene)
        assert report.passed
        plain = {(a, b): classify_pair(scene.polygons[a], scene.polygons[b]).kind
                 for a, b in combinations(sorted(scene.polygons), 2)}
        assert report.pair_kinds == plain


class TestPolygonLabels:
    """A scene has one polygon per vertex (graph) or block (hypergraph)."""

    def test_partial_graph_scene_fails(self):
        g = Graph.from_edges([], vertices=["a", "b", "c"])
        scene = Scene(kind=GRAPH, structure=g,
                      polygons={"a": T((0, 0, 0), (1, 0, 0), (0, 1, 0))},
                      contacts={}, meta={"construction": "test",
                                         "arithmetic": "exact"})
        report = verify_scene(scene)
        assert not report.passed
        assert [(f.code, f.where) for f in report.violations] == [
            ("missing-polygon", "b"), ("missing-polygon", "c")]

    def test_foreign_polygon_fails(self):
        scene = represent_complete(4)
        scene.polygons["stray"] = T((10, 0, 0), (11, 0, 0), (10, 1, 0))
        report = verify_scene(scene)
        assert [(f.code, f.where) for f in report.violations] == [
            ("foreign-polygon", "stray")]

    def test_partial_hypergraph_scene_fails(self):
        scene = represent_fano()
        dropped = sorted(scene.polygons)[0]
        del scene.polygons[dropped]
        report = verify_scene(scene)
        assert ("missing-polygon", dropped) in {
            (f.code, f.where) for f in report.violations}


def _rand_point(rng):
    return tuple(F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(3))


def _affine(tri, s, t):
    a, b, c = tri.corners
    return tuple(a[k] + s * (b[k] - a[k]) + t * (c[k] - a[k]) for k in range(3))


def _random_pairs(seed, count):
    """Triangle pairs of every kind: random (mostly crossing or disjoint),
    sharing a corner, with an edge through the other's interior, and far
    apart."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        a = Polygon3(corners=tuple(_rand_point(rng) for _ in range(3)))
        if polygon_properties(a).degenerate:
            continue
        far = tuple(x + 100 for x in _rand_point(rng))
        s, t = F(rng.randint(1, 4), 12), F(rng.randint(1, 4), 12)
        u = F(rng.randint(-6, 6), 5), F(rng.randint(-6, 6), 5)
        mid, step = _affine(a, s, t), _affine(a, u[0], u[1])
        step = tuple(8 * (x - y) for x, y in zip(step, a.corners[0]))
        pairs += [
            (a, Polygon3(corners=tuple(_rand_point(rng) for _ in range(3)))),
            (a, Polygon3(corners=(a.corners[rng.randrange(3)],
                                  _rand_point(rng), _rand_point(rng)))),
            (a, Polygon3(corners=(tuple(m - d for m, d in zip(mid, step)),
                                  tuple(m + d for m, d in zip(mid, step)),
                                  _rand_point(rng)))),
            (a, Polygon3(corners=(far, _rand_point(rng), _rand_point(rng)))),
        ]
    return pairs


class TestDivisionFreeKernel:
    """The integer kernel (scaled points, primitive normals, int chord
    bounds) classifies every pair as plain Fraction input does, and both
    agree with the brute-force oracle."""

    @staticmethod
    def _assert_same_classification(scene):
        kernel = KernelScene(scene)
        kinds = []
        for a, b in combinations(sorted(scene.polygons), 2):
            plain = classify_pair(scene.polygons[a], scene.polygons[b])
            fast = classify_pair(kernel.polygons[a], kernel.polygons[b])
            assert fast.kind == plain.kind, (a, b)
            assert [kernel.unscale(c) for c in fast.shared_corners] == [
                tuple(c) for c in plain.shared_corners]
            assert [(r, kernel.unscale(w)) for r, w in fast.violations] == [
                (r, tuple(w)) for r, w in plain.violations]
            assert [kernel.unscale(w) for w in fast.touch_witnesses] == [
                tuple(w) for w in plain.touch_witnesses]
            kinds.append(plain.kind)
        return kinds

    def test_seeded_triangle_pairs(self):
        kinds = []
        for p, q in _random_pairs(seed=20191, count=60):
            g = Graph.from_edges([], vertices=["p", "q"])
            for first, second in ((p, q), (q, p)):
                scene = graph_scene(g, {"p": first, "q": second}, {},
                                    {"construction": "test",
                                     "arithmetic": "exact"})
                [kind] = self._assert_same_classification(scene)
                assert kind == oracle_classify(first, second)
                kinds.append(kind)
        assert set(kinds) == {"Disjoint", "CornerContact", "BoundaryTouch",
                              "Violation"}

    def test_k14_lift(self):
        kinds = self._assert_same_classification(represent_complete(14))
        assert kinds == ["CornerContact"] * 91

    def test_plane_of_int_normal_is_primitive(self):
        rng = random.Random(5)
        checked = 0
        while checked < 40:
            corners = [_rand_point(rng) for _ in range(3)]
            plane = _plane_of(corners)
            if plane is None:
                continue
            a, b, c = corners
            n, d = plane
            assert (n, d) == (vcross(vsub(b, a), vsub(c, a)),
                              vdot(vcross(vsub(b, a), vsub(c, a)), a))
            scale = math.lcm(*(x.denominator for p in corners for x in p))
            ints = [tuple(int(x * scale) for x in p) for p in corners]
            m, e = _plane_of(ints)
            assert all(type(x) is int for x in m) and math.gcd(*m) == 1
            ratio = next(F(mk, nk) for mk, nk in zip(m, n) if nk)
            assert ratio > 0
            assert m == tuple(ratio * nk for nk in n)
            assert e == vdot(m, ints[0])
            checked += 1


class TestDuplicateCorners:
    """`verify_scene` finds each polygon's duplicate corners on the
    kernel's int corners; the issues are those `polygon_properties` finds
    on the scene's own corners.  Corners are duplicates only when equal,
    however close they are."""

    @pytest.mark.parametrize("corners,pairs", [
        # corners 0.5e-9 apart
        (((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0 + 0.5e-9, 0.0, 0.0),
          (1.0, 1.0, 0.0), (0.0, 1.0, 0.0)), []),
        # a chain of corners 0.9e-9 apart; one corner repeated exactly
        (((0.0, 0.0, 0.0), (0.9e-9, 0.0, 0.0), (1.8e-9, 0.0, 0.0),
          (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (1.0, 1.0, 0.0)),
         [(4, 5)]),
        # exact repeats, not adjacent
        (((0, 0, 0), (4, 0, 0), (0, 4, 0), (4, 0, 0), (0, 0, 0)),
         [(0, 4), (1, 3)]),
    ], ids=["half-eps", "chain", "exact"])
    def test_same_issues_as_the_scan(self, corners, pairs):
        exact = isinstance(corners[0][0], int)
        poly = Polygon3(corners=tuple(tuple(map(F, c)) for c in corners)
                        if exact else corners)
        scene = graph_scene(Graph.from_edges([], vertices=["a"]), {"a": poly},
                            {}, {"construction": "test", "arithmetic": "exact"})
        issues = verify_scene(scene).polygon_properties["a"].issues
        scan = polygon_properties(poly).issues
        assert issues == scan == [f"duplicate corners {i} and {j}" for i, j in pairs]


def _pierced_float_scene(x):
    """b's edge at x = y = 1 runs through a's interior; b's third corner,
    outside a, has x coordinate `x`."""
    a = Polygon3(corners=((0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (0.0, 4.0, 0.0)))
    b = Polygon3(corners=((1.0, 1.0, -1.0), (1.0, 1.0, 1.0), (x, 5.0, 0.0)))
    return graph_scene(Graph.from_edges([], vertices=["a", "b"]), {"a": a, "b": b}, {},
                       {"construction": "test", "arithmetic": "exact"})


class TestNonFinite:
    """A nan or inf coordinate is a violation; it never reaches a predicate."""

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_corner_fails(self, x):
        report = verify_scene(_pierced_float_scene(x))
        assert not report.passed
        assert [(f.code, f.where) for f in report.violations] == [("non-finite", "b")]
        assert "b" not in report.polygon_properties and not report.pair_kinds

    def test_finite_twin_is_a_violation(self):
        report = verify_scene(_pierced_float_scene(1.0))
        assert report.violation_codes() == {"interior-overlap"}

    def test_non_finite_contact_fails(self):
        a = Polygon3(corners=((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))
        b = Polygon3(corners=((1.0, 0.0, 0.0), (2.0, 0.0, 0.0), (2.0, 1.0, 0.0)))
        scene = graph_scene(Graph.from_edges([("a", "b")]), {"a": a, "b": b},
                            {edge_key("a", "b"): (math.inf, 0.0, 0.0)},
                            {"construction": "test", "arithmetic": "exact"})
        report = verify_scene(scene)
        assert [(f.code, f.where) for f in report.violations] == [("non-finite", "a-b")]
        assert report.reconstructed == {edge_key("a", "b"): (1.0, 0.0, 0.0)}

    def test_non_finite_hypergraph_contact_fails(self):
        scene = represent_fano()
        v = sorted(scene.contacts)[0]
        scene.contacts[v] = (math.nan, 0.0, 0.0)
        report = verify_scene(scene)
        assert (report.violations[0].code, report.violations[0].where) == ("non-finite", v)
        assert v not in report.reconstructed

    def test_float_nan_in_exact_scene_fails(self):
        scene = represent_complete(4)
        label = sorted(scene.polygons)[0]
        corners = list(scene.polygons[label].corners)
        corners[0] = (math.nan,) + tuple(corners[0][1:])
        scene.polygons[label] = Polygon3(corners=tuple(corners))
        report = verify_scene(scene)
        assert ("non-finite", label) in {(f.code, f.where) for f in report.violations}

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -1e-9])
    def test_bad_epsilon_rejected(self, eps):
        # verification is exact: `verify_scene` takes no epsilon at all
        with pytest.raises(TypeError):
            verify_scene(represent_fano(), eps=eps)


_MERGED_FAN = """
from conftest import merged_fan
from polycontact import verify_scene

for f in verify_scene(merged_fan([("a", "z"), ("b", "c"), ("d", "m")])).violations:
    print(f)
"""


class TestHashSeed:
    def test_merged_contacts_independent_of_hash_seed(self):
        # three contacts on one point: findings are ordered by "a-z"-style
        # keys, not by how a frozenset happens to print
        tests = os.path.dirname(os.path.abspath(__file__))
        path = [os.path.join(os.path.dirname(tests), "src"), tests,
                os.environ.get("PYTHONPATH", "")]
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(path))
            run = subprocess.run([sys.executable, "-c", _MERGED_FAN], env=env,
                                 capture_output=True, text=True, check=True)
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]
        merged = [line for line in outputs[0].splitlines() if "merged-contacts" in line]
        assert [line.split("]")[1].split(":")[0].strip() for line in merged] == [
            "a-z / b-c", "a-z / d-m", "b-c / d-m"]
