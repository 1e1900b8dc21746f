"""Modified medial graphs and 1-plane cubic triangle scenes."""

from fractions import Fraction as F

import pytest

from polycontact import (ConstructionError, InputError, OnePlaneEmbedding,
                         build_modified_medial, embedding_from_json, grid_extent,
                         oneplanar, represent_oneplanar_cubic, verify_scene)

from conftest import (all_oneplanar_fixtures, ek, k4_bconfig_embedding,
                      k4_crossed_embedding, k4_graph, k4_planar_embedding)


class TestModifiedMedial:
    def test_k4_medial_is_octahedron(self):
        med = build_modified_medial(k4_planar_embedding())
        pg = med.plane
        assert len(pg.rotation) == 6
        assert all(pg.degree(v) == 4 for v in pg.vertices())
        assert len(pg.faces()) == 8

    def test_one_crossing_merges(self):
        med = build_modified_medial(k4_crossed_embedding())
        pg = med.plane
        assert len(pg.rotation) == 5
        merged = [v for v in pg.vertices() if v[0] == "c"]
        assert len(merged) == 1
        assert pg.degree(merged[0]) <= 8

    def test_disconnected_rejected(self):
        # two K4s: cubic, so the connectivity check is what rejects them
        from polycontact import Graph
        g = Graph.from_edges([(p + u, p + w) for p in "xy"
                              for u, w in ("ab", "ac", "ad", "bc", "bd", "cd")])
        rot = {v: [ek(v, w) for w in g.neighbors(v)] for v in g.vertices}
        emb = OnePlaneEmbedding(graph=g, rotation=rot, crossings=frozenset())
        with pytest.raises(ConstructionError, match="graph is not connected"):
            build_modified_medial(emb)

    def test_non_cubic_rejected(self):
        from polycontact import Graph
        g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "a")])
        rot = {v: [ek(v, w) for w in g.neighbors(v)] for v in g.vertices}
        emb = OnePlaneEmbedding(graph=g, rotation=rot, crossings=frozenset())
        with pytest.raises(ConstructionError, match="cubic"):
            build_modified_medial(emb)


class TestRepresent:
    @pytest.mark.parametrize("name", sorted(all_oneplanar_fixtures()))
    def test_fixture_verifies(self, name):
        emb = all_oneplanar_fixtures()[name]
        scene = represent_oneplanar_cubic(emb)
        report = scene.certificate
        assert report.passed, f"{name}: {report.to_text()}"
        for f in report.warnings:
            assert f.code in ("boundary-touch", "polygon-issues")
        n = emb.graph.n
        ext = grid_extent(scene)
        assert ext.gx <= 3 * n // 2 - 1
        assert ext.gy <= 3 * n // 2 - 1
        assert ext.gz <= 3

    def test_zero_crossing_flat(self):
        for name in ("k4-planar", "prism", "cube"):
            emb = all_oneplanar_fixtures()[name]
            scene = represent_oneplanar_cubic(emb)
            zs = {c[2] for p in scene.polygons.values() for c in p.corners}
            assert zs == {F(0)}

    def test_crossing_depth(self):
        scene = represent_oneplanar_cubic(k4_crossed_embedding())
        zs = {c[2] for p in scene.polygons.values() for c in p.corners}
        assert zs == {F(0), F(1)}

    def test_bconfig_goes_down(self):
        scene = represent_oneplanar_cubic(k4_bconfig_embedding())
        zs = {c[2] for p in scene.polygons.values() for c in p.corners}
        assert F(-1) in zs
        assert F(1) not in zs
        # the two triangles of the dipped edge share the low corner
        low = [label for label, p in scene.polygons.items()
               if any(c[2] == F(-1) for c in p.corners)]
        assert sorted(low) == ["1", "3"]

    def test_triangle_count_and_contacts(self):
        emb = all_oneplanar_fixtures()["k33-crossed"]
        scene = represent_oneplanar_cubic(emb)
        assert len(scene.polygons) == 6
        assert len(scene.contacts) == 9
        report = scene.certificate
        assert report.passed

    def test_bad_interleaving_rejected(self):
        g = k4_graph()
        rotation = {
            "1": [ek(1, 2), ek(1, 3), ek(1, 4)],
            "2": [ek(2, 3), ek(2, 4), ek(2, 1)],
            "3": [ek(3, 4), ek(3, 1), ek(3, 2)],
            "4": [ek(4, 3), ek(4, 1), ek(4, 2)],
        }
        # claiming adjacent edges cross is rejected at the embedding level
        with pytest.raises(InputError, match="adjacent"):
            OnePlaneEmbedding(graph=g, rotation=rotation,
                              crossings=frozenset([frozenset([ek(1, 2), ek(2, 3)])]))

    def test_impossible_drawing_rejected(self):
        # rotations describing a torus drawing admit no planarization
        g = k4_graph()
        rotation = {
            "1": [ek(1, 2), ek(1, 3), ek(1, 4)],
            "2": [ek(2, 1), ek(2, 3), ek(2, 4)],
            "3": [ek(3, 1), ek(3, 2), ek(3, 4)],
            "4": [ek(4, 1), ek(4, 2), ek(4, 3)],
        }
        with pytest.raises(InputError, match="1-plane"):
            represent_oneplanar_cubic(OnePlaneEmbedding(
                graph=g, rotation=rotation, crossings=frozenset()))


# A 1-plane drawing, 6 vertices and 2 crossings, whose scene fails
# verification under the default outer face (the longest face-face of the
# modified medial graph) and certifies under the face e3 e4 e5.
_REJECTED_DEFAULT_FACE = {
    "vertices": [{"id": "0", "rotation": ["e2", "e0", "e1"]},
                 {"id": "1", "rotation": ["e3", "e0", "e4"]},
                 {"id": "2", "rotation": ["e7", "e5", "e6"]},
                 {"id": "3", "rotation": ["e1", "e3", "e5"]},
                 {"id": "4", "rotation": ["e8", "e6", "e4"]},
                 {"id": "5", "rotation": ["e7", "e2", "e8"]}],
    "edges": [{"id": f"e{k}", "endpoints": list(ends)} for k, ends in enumerate(
        ["01", "03", "05", "13", "14", "23", "24", "25", "45"])],
    "crossings": [["e5", "e4"], ["e6", "e2"]],
}


class TestOuterFaceChoice:
    def test_next_face_certifies_where_the_default_fails(self, monkeypatch):
        # with no outer_face, the default face's scene is drawn first and
        # fails; a later face-face's scene is the one certified
        drawn = []
        monkeypatch.setattr(oneplanar, "_drawn_scene", lambda *a, draw=oneplanar._drawn_scene:
                            drawn.append(draw(*a)) or drawn[-1])
        scene = represent_oneplanar_cubic(embedding_from_json(_REJECTED_DEFAULT_FACE))
        assert scene.certificate.passed and verify_scene(scene).passed
        assert len(drawn) > 1 and scene is drawn[-1]
        assert verify_scene(drawn[0]).violations[0].code == "interior-overlap"

    def test_another_outer_face_certifies(self):
        emb = embedding_from_json(dict(_REJECTED_DEFAULT_FACE, outer_face=["e3", "e4", "e5"]))
        assert represent_oneplanar_cubic(emb).certificate.passed
