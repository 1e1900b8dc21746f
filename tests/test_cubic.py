"""Cubic constructions: decomposition, 2EC rectangles, bridges, max-deg-3."""

import os
import subprocess
import sys

import pytest

import polycontact
from polycontact import cubic
from polycontact import (ConstructionError, Graph, bridge_block_tree,
                         edge_key, find_bridges, graph_from_edge_list,
                         grid_extent, petersen_decompose, represent_2ec_cubic,
                         represent_cubic, represent_max_degree3, verify_scene)

from conftest import gadget_chain, gadget_star, k4_gadget


def brute_force_perfect_matching(g):
    """Backtracking matcher, independent of the blossom library."""
    vertices = sorted(g.vertices)

    def rec(free, used_edges):
        if not free:
            return used_edges
        v = free[0]
        for w in g.neighbors(v):
            if w in free[1:]:
                rest = [u for u in free if u not in (v, w)]
                got = rec(rest, used_edges | {edge_key(v, w)})
                if got is not None:
                    return got
        return None

    return rec(vertices, frozenset())


class TestDecomposition:
    def test_k4(self, k4):
        d = petersen_decompose(k4)
        assert len(d.matching) == 2
        assert [len(c) for c in d.cycles] == [4]

    def test_petersen_against_bruteforce(self, petersen):
        d = petersen_decompose(petersen)
        assert len(d.matching) == 5
        assert sum(len(c) for c in d.cycles) == 10
        for cyc in d.cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                assert petersen.adjacent(a, b)
        assert brute_force_perfect_matching(petersen) is not None
        covered = set()
        for e in d.matching:
            assert not (set(e) & covered)
            covered |= set(e)
        assert covered == set(petersen.vertices)

    def test_bridge_reported(self):
        g = graph_from_edge_list("a b\nb c\nc a\nd e\ne f\nf d\na d")
        with pytest.raises(ConstructionError, match="bridge a-d"):
            petersen_decompose(g)

    def test_not_cubic(self):
        c4 = graph_from_edge_list("1 2\n2 3\n3 4\n4 1")
        with pytest.raises(ConstructionError, match="cubic"):
            petersen_decompose(c4)

    def test_matching_cycles_partition_edges(self, prism):
        d = petersen_decompose(prism)
        cycle_edges = set()
        for cyc in d.cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                cycle_edges.add(edge_key(a, b))
        assert d.matching | cycle_edges == prism.edges
        assert not (d.matching & cycle_edges)


class TestBridgeBlockTree:
    def test_two_gadgets(self):
        # two K4-minus-an-edge gadgets joined by one bridge
        g = graph_from_edge_list(
            "a b\na c\na d\nb c\nb d\nx y\nx z\nx w\ny z\ny w\nc x")
        bbt = bridge_block_tree(g)
        assert len(bbt.components) == 2
        assert len(bbt.bridges) == 1

    def test_single_node_when_2ec(self, petersen):
        bbt = bridge_block_tree(petersen)
        assert len(bbt.components) == 1 and not bbt.bridges

    def test_path_of_three(self):
        base = ("{0}a {0}b\n{0}a {0}c\n{0}a {0}d\n{0}b {0}c\n{0}b {0}d\n")
        text = base.format("g1") + base.format("g2") + base.format("g3")
        text += "g1c g2c\ng2d g3c\n"
        g = graph_from_edge_list(text)
        bbt = bridge_block_tree(g)
        assert len(bbt.components) == 3
        assert len(bbt.bridges) == 2

    def test_oracle_edge_removal(self):
        g = gadget_chain(3)
        bridges = find_bridges(g)
        for e in g.edges:
            u, v = tuple(e)
            g2 = Graph.from_edges(
                [tuple(sorted(x)) for x in g.edges if x != e],
                vertices=g.vertices)
            disconnects = not g2.is_connected()
            assert disconnects == (e in bridges)


class TestRect2EC:
    def test_k4_small_grid(self, k4):
        scene = represent_2ec_cubic(k4)
        assert verify_scene(scene).passed
        ext = grid_extent(scene)
        assert (ext.gx, ext.gy, ext.gz) <= (3, 2, 2)

    def test_petersen(self, petersen):
        scene = represent_2ec_cubic(petersen)
        report = verify_scene(scene)
        assert report.passed
        assert len(report.reconstructed) == 15
        assert grid_extent(scene).gz <= 5

    def test_prism_contacts(self, prism):
        scene = represent_2ec_cubic(prism)
        report = verify_scene(scene)
        assert report.passed
        assert len(report.reconstructed) == 9

    def test_apex_levels(self, petersen):
        scene = represent_2ec_cubic(petersen)
        d = petersen_decompose(petersen)
        zs = sorted(scene.contacts[e][2] for e in d.matching)
        assert len(set(zs)) == 5  # one distinct level per matching edge

    def test_bridge_rejected(self):
        g = gadget_chain(2)
        with pytest.raises(ConstructionError, match="bridge"):
            represent_2ec_cubic(g)

    # Graphs whose hub is enclosed by one cycle, so that cycle's chord level
    # moves to z = -1: a labelled prism, and stub-pairing 2EC cubic graphs
    # (perfbench's random_cubic_edges(n, Random(seed), two_edge_connected=True)
    # for n, seed = 8, 1 / 10, 0 / 12, 0).
    @pytest.mark.parametrize("edges", [
        "0-2 0-3 0-5 1-3 1-4 1-5 2-3 2-4 4-5",
        "0-2 0-4 0-5 1-2 1-3 1-5 2-7 3-4 3-6 4-7 5-6 6-7",
        "0-6 0-8 0-9 1-2 1-8 1-9 2-3 2-7 3-4 3-5 4-5 4-6 5-7 6-9 7-8",
        "0-3 0-6 0-10 1-6 1-8 1-11 2-7 2-8 2-9 3-7 3-8 4-5 4-6 4-10 5-7 5-9 "
        "9-11 10-11",
    ], ids=["prism-6", "2ec-8", "2ec-10", "2ec-12"])
    def test_enclosing_cycle_drops_to_z_minus_1(self, edges):
        g = graph_from_edge_list(edges.replace(" ", "\n").replace("-", " "))
        scene = represent_2ec_cubic(g)
        report = verify_scene(scene)
        assert report.passed, report.to_text()
        claim = scene.meta["claimed_grid"]
        assert claim == {"x": 3, "y": g.n // 2, "z": g.n // 2}
        ext = grid_extent(scene)
        assert (ext.gx, ext.gy, ext.gz) == (3, g.n // 2, g.n // 2)
        assert min(c[2] for p in scene.polygons.values() for c in p.corners) == -1


class TestCubicBridges:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_gadget_chain(self, k):
        g = gadget_chain(k)
        assert g.is_regular(3)
        scene = represent_cubic(g)
        report = verify_scene(scene)
        assert report.passed, report.to_text()
        n = g.n
        ext = grid_extent(scene)
        assert ext.gx <= 3 * n // 2
        assert ext.gy <= 3 * n // 2
        assert ext.gz <= n // 2

    def test_vertical_bridge_triangles(self):
        g = gadget_chain(2)
        scene = represent_cubic(g)
        vertical = []
        for label, poly in scene.polygons.items():
            xy = {(c[0], c[1]) for c in poly.corners}
            if len(xy) == 2:
                vertical.append(label)
        # both cut vertices become vertical triangles over the one bridge
        assert sorted(vertical) == ["g01", "g11"]

    def test_star_single_vertex_component(self):
        g = gadget_star()
        scene = represent_cubic(g)
        report = verify_scene(scene)
        assert report.passed
        hub_poly = scene.polygons["hub"]
        assert len(hub_poly.corners) == 3
        zs = {c[2] for c in hub_poly.corners}
        assert zs == {0}

    def test_2ec_delegates(self, petersen):
        scene = represent_cubic(petersen)
        assert scene.meta["construction"] == "cubic-2ec"
        assert verify_scene(scene).passed

    def test_floorplan_injection_bound(self):
        for k in (2, 3):
            g = gadget_chain(k)
            scene = represent_cubic(g)
            assert scene.meta["floorplan_vertices"] <= len(g.edges)

    def test_cycle_component_ring_of_gadgets(self):
        # triangle whose vertices each bridge into a gadget: the middle
        # component is an all-bridge cycle drawn as flat triangles
        edges = [("t1", "t2"), ("t2", "t3"), ("t3", "t1")]
        for i, t in enumerate(["t1", "t2", "t3"]):
            e, s = k4_gadget(f"c{i}")
            edges += e
            edges.append((t, s[0]))
        g = Graph.from_edges(edges)
        scene = represent_cubic(g)
        report = verify_scene(scene)
        assert report.passed, report.to_text()
        for t in ("t1", "t2", "t3"):
            zs = {c[2] for c in scene.polygons[t].corners}
            assert zs == {0}

    def test_cycle_type_feet(self):
        # middle K4 with three cut vertices: its feet share endpoints, so
        # at most one joins the matching and the others split rim corners
        edges = [("Ma", "Md"), ("Mb", "Mc"), ("Mc", "Md"),
                 ("Ma", "M1"), ("Mc", "M1"), ("Mb", "M2"), ("Md", "M2"),
                 ("Ma", "M3"), ("Mb", "M3")]
        for i, s in enumerate(["M1", "M2", "M3"]):
            e, sl = k4_gadget(f"Y{i}")
            edges += e
            edges.append((s, sl[0]))
        g = Graph.from_edges(edges)
        assert g.is_regular(3)
        scene = represent_cubic(g)
        report = verify_scene(scene)
        assert report.passed, report.to_text()
        n = g.n
        ext = grid_extent(scene)
        assert (ext.gx, ext.gy, ext.gz) <= (3 * n // 2, 3 * n // 2, n // 2)

    def test_multicycle_component_with_foot(self):
        # Petersen with one subdivided spoke bridging a gadget: the big
        # component decomposes into two cycles with a drawn chord each
        edges = [(str(i), str((i + 1) % 5)) for i in range(5)]
        edges += [(str(i), str(i + 5)) for i in range(5) if i != 0]
        edges += [(str(i + 5), str((i + 2) % 5 + 5)) for i in range(5)]
        edges += [("0", "s0"), ("5", "s0")]
        e, sl = k4_gadget("P")
        edges += e
        edges.append(("s0", sl[0]))
        g = Graph.from_edges(edges)
        assert g.is_regular(3)
        scene = represent_cubic(g)
        report = verify_scene(scene)
        assert report.passed, report.to_text()

    def test_disconnected_rejected(self):
        g = graph_from_edge_list(
            "a b\na c\na d\nb c\nb d\nc d\nx y\nx z\nx w\ny z\ny w\nz w")
        with pytest.raises(ConstructionError, match="connected"):
            represent_cubic(g)


class TestMaxDegree3:
    def test_c5_segments(self):
        c5 = graph_from_edge_list("1 2\n2 3\n3 4\n4 5\n5 1")
        scene = represent_max_degree3(c5)
        report = verify_scene(scene)
        assert report.passed
        assert all(p.kind == "segment" for p in scene.polygons.values())
        assert len(report.reconstructed) == 5

    def test_cubic_passthrough(self, k4):
        scene = represent_max_degree3(k4)
        assert verify_scene(scene).passed
        assert all(p.kind == "polygon" for p in scene.polygons.values())

    def test_star_points(self):
        g = graph_from_edge_list("c l1\nc l2\nc l3")
        scene = represent_max_degree3(g)
        report = verify_scene(scene)
        assert report.passed
        assert scene.polygons["c"].kind == "polygon"
        for leaf in ("l1", "l2", "l3"):
            assert scene.polygons[leaf].kind == "point"

    def test_degree_cap(self, petersen):
        edges = [tuple(sorted(e)) for e in petersen.edges] + [("0", "2")]
        g = Graph.from_edges(edges)
        with pytest.raises(ConstructionError, match="degree > 3"):
            represent_max_degree3(g)

    def test_path(self):
        g = graph_from_edge_list("1 2\n2 3\n3 4")
        scene = represent_max_degree3(g)
        assert verify_scene(scene).passed
        kinds = sorted(p.kind for p in scene.polygons.values())
        assert kinds == ["point", "point", "segment", "segment"]


def _run_python(code, hash_seed="0"):
    """stdout of `code` in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(polycontact.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


class TestProcessIndependence:
    def test_2ec_scene_ignores_hash_seed(self):
        # a 16-rung prism has many perfect matchings to choose from
        code = (
            "import json\n"
            "from polycontact import Graph, represent_2ec_cubic, scene_to_json\n"
            "k = 16\n"
            "edges = [(f'a{i}', f'a{(i + 1) % k}') for i in range(k)]\n"
            "edges += [(f'b{i}', f'b{(i + 1) % k}') for i in range(k)]\n"
            "edges += [(f'a{i}', f'b{i}') for i in range(k)]\n"
            "scene = represent_2ec_cubic(Graph.from_edges(edges))\n"
            "print(json.dumps(scene_to_json(scene), sort_keys=True))\n")
        assert _run_python(code, "1") == _run_python(code, "2")

    def test_import_leaves_networkx_unloaded(self):
        code = "import sys, polycontact; print('networkx' in sys.modules)"
        assert _run_python(code).strip() == "False"


def test_oversized_floorplan_is_construction_error(monkeypatch):
    g = gadget_chain(2)

    class Floorplan:
        rotation = {f"x{i}": [] for i in range(len(g.edges) + 1)}

        def check_planar(self):
            pass

    monkeypatch.setattr(cubic, "_build_floorplan",
                        lambda g, bbt: (Floorplan(), [], {}))
    with pytest.raises(ConstructionError, match="floorplan has"):
        represent_cubic(g)
