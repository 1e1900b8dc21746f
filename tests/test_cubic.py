"""Cubic constructions: decomposition, 2EC rectangles, bridges, max-deg-3."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from random import Random
from types import SimpleNamespace

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


def all_perfect_matchings(vertices, edges, forced=frozenset()):
    """Every perfect matching containing `forced`, by exhaustive search."""
    covered = set().union(*forced) if forced else set()
    if len(covered) != 2 * len(forced):
        return set()
    out = set()

    def rec(free, chosen):
        if not free:
            out.add(frozenset(chosen))
            return
        v = free[0]
        for w in free[1:]:
            if edge_key(v, w) in edges:
                rec([u for u in free if u not in (v, w)],
                    chosen | {edge_key(v, w)})

    rec(sorted(v for v in vertices if v not in covered), frozenset(forced))
    return out


def _random_graph(rng, n, p):
    vs = [f"v{i}" for i in range(n)]
    return Graph.from_edges([(a, b) for a, b in combinations(vs, 2)
                             if rng.random() < p], vertices=vs)


class TestMatching:
    def test_against_brute_force(self):
        seen = set()
        for seed in range(400):
            rng = Random(seed)
            g = _random_graph(rng, rng.randint(0, 11), rng.random())
            edges = sorted(g.edges, key=sorted)
            forced = set(rng.sample(edges, min(len(edges), rng.randint(0, 2))))
            got = cubic._perfect_matching(g.vertices, g.edges, forced)
            used = [v for e in forced for v in e]
            if len(used) > len(set(used)):
                expect = None
                seen.add("conflicting forced edges")
            else:
                rest = [v for v in g.vertices if v not in used]
                expect = brute_force_perfect_matching(Graph.from_edges(
                    [tuple(e) for e in g.edges if not e & set(used)],
                    vertices=rest))
            assert (got is None) == (expect is None), seed
            if got is not None:
                assert forced <= got <= g.edges
                assert sorted(v for e in got for v in e) == sorted(g.vertices)
                seen.add("perfect")
            seen.add(f"n {'odd' if g.n % 2 else 'even'}")
            if g.n and not g.is_connected():
                seen.add("disconnected")
            if any(g.degree(v) == 0 for v in g.vertices):
                seen.add("isolated vertex")
            if forced and got is not None:
                seen.add("forced")
        assert seen == {"perfect", "n odd", "n even", "disconnected",
                        "isolated vertex", "forced", "conflicting forced edges"}

    def test_cardinality_matches_networkx(self):
        import networkx as nx

        for seed in range(500):
            rng = Random(seed)
            g = _random_graph(rng, rng.randint(1, 16), rng.random() ** 2)
            mate = cubic._max_matching(g.vertices, g.edges)
            for u, v in mate.items():
                assert mate[v] == u and edge_key(u, v) in g.edges
            gx = nx.Graph()
            gx.add_nodes_from(g.vertices)
            gx.add_edges_from(tuple(e) for e in g.edges)
            assert len(mate) == 2 * len(nx.max_weight_matching(
                gx, maxcardinality=True)), seed

    def test_matchings_are_distinct_and_capped(self, petersen, prism):
        # K4 has 3 perfect matchings, the prism 4, the Petersen graph 6 and
        # the cube 9, one more than the cap; every edge of these graphs lies
        # in one of them
        cube = graph_from_edge_list("".join(
            f"{a} {b}\n" for a, b in combinations(range(8), 2)
            if bin(a ^ b).count("1") == 1))
        k4 = graph_from_edge_list("a b\na c\na d\nb c\nb d\nc d")
        for g in (k4, prism, petersen, cube):
            for forced in [set()] + [{e} for e in sorted(g.edges, key=sorted)]:
                got = list(cubic._matchings(sorted(g.vertices), g.edges,
                                            forced))
                every = all_perfect_matchings(g.vertices, g.edges, forced)
                assert got[0] == cubic._perfect_matching(
                    sorted(g.vertices), g.edges, forced)
                assert len(set(map(frozenset, got))) == len(got) == min(
                    len(every), cubic._MATCHINGS_PER_SUBSET)
                assert set(map(frozenset, got)) <= every

    def test_matching_ignores_hash_seed(self):
        # edges arrive as a set of frozensets, whose order follows the hash
        code = (
            "from random import Random\n"
            "from polycontact import Graph\n"
            "from polycontact.cubic import _max_matching, _perfect_matching\n"
            "k = 12\n"
            "edges = [(f'a{i}', f'a{(i + 1) % k}') for i in range(k)]\n"
            "edges += [(f'b{i}', f'b{(i + 1) % k}') for i in range(k)]\n"
            "edges += [(f'a{i}', f'b{i}') for i in range(k)]\n"
            "g = Graph.from_edges(edges)\n"
            "print(sorted(map(sorted, _perfect_matching(g.vertices, g.edges))))\n"
            "rng = Random(5)\n"
            "vs = [f'v{i}' for i in range(15)]\n"
            "g = Graph.from_edges([(a, b) for a in vs for b in vs\n"
            "                      if a < b and rng.random() < 0.3])\n"
            "print(sorted(_max_matching(g.vertices, g.edges).items()))\n")
        assert _run_python(code, "1") == _run_python(code, "2")


def _old_subsets_order(items):
    """The foot-subset order of the eager search: every subset built by
    doubling, then a stable sort by decreasing size."""
    out = [[]]
    for x in items:
        out += [s + [x] for s in out]
    return sorted((set(s) for s in out), key=len, reverse=True)


def test_subsets_by_size_keeps_the_eager_order():
    for k in range(11):
        items = [f"f{i}" for i in range(k)]
        assert list(cubic._subsets_by_size(items)) == _old_subsets_order(items)


def test_subsets_by_size_is_lazy():
    items = list(range(64))  # 2^64 subsets: only a generator can start
    subsets = cubic._subsets_by_size(items)
    assert next(subsets) == set(items)
    assert next(subsets) == set(items) - {63}


def _point_in_polygon_by_fractions(pt, poly):
    """Strict containment with the crossing's x computed as a Fraction."""
    x, y = pt
    inside = False
    for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]):
        cr = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        if cr == 0 and min(x1, x2) <= x <= max(x1, x2) and min(y1, y2) <= y <= max(y1, y2):
            return False
        if (y1 > y) != (y2 > y) and x1 + Fraction((y - y1) * (x2 - x1), y2 - y1) > x:
            inside = not inside
    return inside


def test_point_in_polygon_matches_fraction_reference():
    rng = Random(3)
    for _ in range(20000):
        poly = [(rng.randint(0, 6), rng.randint(0, 6))
                for _ in range(rng.randint(3, 8))]
        pt = (rng.randint(-1, 7), rng.randint(-1, 7))
        assert cubic._point_in_polygon(pt, poly) == \
            _point_in_polygon_by_fractions(pt, poly), (pt, poly)


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
        assert all(got <= cap for got, cap in zip(ext[:3], (3, 2, 2)))

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
        assert all(got <= cap for got, cap in zip(ext[:3], (3 * n // 2, 3 * n // 2, n // 2)))

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


def random_2ec_cubic_edges(n, rng):
    """2-edge-connected cubic graph on 0..n-1 by stub pairing with rejection
    (the benchmark's generator, copied here so the seeds below stay put)."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = set()
        for u, v in zip(stubs[::2], stubs[1::2]):
            e = (min(u, v), max(u, v))
            if u == v or e in edges:
                break
            edges.add(e)
        else:
            g = Graph.from_edges([(str(u), str(v)) for u, v in edges],
                                 vertices=[str(v) for v in range(n)])
            if g.is_connected() and not find_bridges(g):
                return sorted(edges)


def bridged_cubic(seed):
    """A 2EC cubic core with 1-3 edges subdivided, each new vertex bridged
    to a K4 gadget."""
    rng = Random(seed)
    n = rng.choice([8, 10, 12, 14])
    core = random_2ec_cubic_edges(n, rng)
    picks = rng.sample(core, rng.randint(1, 3))
    edges = [(f"c{u}", f"c{v}") for u, v in core if (u, v) not in picks]
    for i, (u, v) in enumerate(picks):
        gadget, (slot,) = k4_gadget(f"g{i}_")
        edges += gadget + [(f"c{u}", f"s{i}"), (f"s{i}", f"c{v}"), (f"s{i}", slot)]
    return Graph.from_edges(edges)


# Seeds 0-119 were used while the matching search was developed; 120-179
# were held out.  A networkx matching with one plan per component rejected
# these seeds:
_REJECTED_ONE_PLAN = {2, 4, 10, 28, 34, 36, 61, 67, 70, 79, 83, 99, 102, 106,
                      107, 138, 141, 144, 152, 161, 166}
# and the search over foot subsets, matchings and chord-lift retries still
# rejects these (all "no workable matching for the bridge feet"):
_REJECTED = {2, 10, 70, 99, 107, 141, 161}


def test_rejected_bridged_seeds_only_shrink():
    assert _REJECTED <= _REJECTED_ONE_PLAN


@pytest.mark.parametrize("seed", range(180))
def test_bridged_cubic_family(seed):
    g = bridged_cubic(seed)
    assert g.is_regular(3) and find_bridges(g)
    try:
        scene = represent_cubic(g)
    except ConstructionError as exc:
        assert seed in _REJECTED, str(exc)
        assert "no workable matching for the bridge feet" in str(exc)
        return
    report = verify_scene(scene)
    assert report.passed, report.to_text()
    ext, claim = grid_extent(scene), scene.meta["claimed_grid"]
    assert ext.gx <= claim["x"] and ext.gy <= claim["y"] and ext.gz <= claim["z"]


def test_component_plans_have_distinct_matchings():
    # a matching drawn under several foot subsets makes one plan, not many
    for seed in (23, 81, 92):
        g = bridged_cubic(seed)
        bbt = bridge_block_tree(g)
        for i, comp in enumerate(bbt.components):
            plans = list(cubic._component_plans(g, i, comp, bbt.bridges))
            matchings = [frozenset(p.matching) for p in plans
                         if p.kind == "wheel"]
            assert len(set(matchings)) == len(matchings), (seed, i)


def test_chord_lift_retries_every_plan_then_raises(monkeypatch):
    # in this graph every plan lifts a chord; with verification failing,
    # each component's plans are drawn in turn before the error
    g = bridged_cubic(92)
    bbt = bridge_block_tree(g)
    plans = [len(list(cubic._component_plans(g, i, comp, bbt.bridges)))
             for i, comp in enumerate(bbt.components)]
    calls = []
    monkeypatch.setattr(cubic, "verify_scene",
                        lambda scene: calls.append(scene) or
                        SimpleNamespace(passed=False))
    with pytest.raises(ConstructionError, match="^chord lift backoff failed$"):
        represent_cubic(g)
    draws = 1 + sum(k - 1 for k in plans)
    assert draws > 2
    assert len(calls) == 24 * draws


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
