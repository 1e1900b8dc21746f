"""Steiner drawings, the obstruction pattern and counting certificates."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product

import pytest

from polycontact import (ConstructionError, FanoParams, InputError,
                         S239Params, SteinerDescriptor, builtin_system,
                         counting_certificate,
                         coplanar_polygon_pairs, find_obstruction_pattern,
                         max_coplanar_vertices, pattern_assignment_valid,
                         represent_fano, represent_s239, validate_steiner,
                         verify_scene)
from polycontact.core import Hypergraph
from polycontact.geom import _plane_of, vdot
from polycontact.steiner import (ANY_QUAD_OBSTRUCTION,
                                 CONVEX_QUAD_OBSTRUCTION, KNOWN_CASE_S348)


class TestFano:
    def test_default_verifies(self):
        scene = represent_fano()
        report = verify_scene(scene)
        assert report.passed
        assert len(report.reconstructed) == 7

    def test_vertex_one_position(self):
        scene = represent_fano()
        assert scene.contacts["1"] == (0.0, 0.0, 0.5)

    def test_heights(self):
        scene = represent_fano()
        for v in ("2", "4", "6"):
            assert scene.contacts[v][2] == 0.0
        for v in ("3", "5", "7"):
            assert scene.contacts[v][2] == 1.0

    def test_alpha_sixty_rejected(self):
        with pytest.raises(ConstructionError, match="60"):
            represent_fano(FanoParams(alpha=60.0))

    def test_alpha_range(self):
        with pytest.raises(ConstructionError):
            represent_fano(FanoParams(alpha=130.0))
        scene = represent_fano(FanoParams(alpha=30.0))
        assert verify_scene(scene).passed

    def test_vertex_degree_matches_corners(self):
        scene = represent_fano()
        h = scene.structure
        for v in h.vertices:
            p = scene.contacts[v]
            holders = [label for label, poly in scene.polygons.items()
                       if any(math.dist(p, c) <= 1e-9 for c in poly.corners)]
            assert len(holders) == h.degree(v) == 3


class TestS239:
    def test_default_verifies(self):
        scene = represent_s239()
        report = verify_scene(scene)
        assert report.passed
        assert len(report.reconstructed) == 9
        assert len(scene.polygons) == 12

    def test_axis_vertices(self):
        scene = represent_s239()
        assert scene.contacts["1"] == (0.0, 0.0, 0.75)
        assert scene.contacts["4"] == (0.0, 0.0, 0.25)

    def test_cut_point_matches_reference_figure(self):
        scene = represent_s239()
        p = scene.meta["cut_point"]
        ref = (-0.23259, -0.05196, 1.33629)
        assert max(abs(a - b) for a, b in zip(p, ref)) <= 1e-4

    def test_bounding_box(self):
        scene = represent_s239()
        pts = [c for poly in scene.polygons.values() for c in poly.corners]
        for axis, bound in ((0, 1.0), (1, 1.0), (2, 1.5)):
            vals = [p[axis] for p in pts]
            assert max(vals) - min(vals) <= bound + 1e-9

    def test_min_vertex_distance(self):
        scene = represent_s239()
        pts = list(scene.contacts.values())
        dmin = min(math.dist(a, b) for a, b in combinations(pts, 2))
        assert dmin >= 0.2 - 1e-9

    def test_beta_sixty_rejected(self):
        with pytest.raises(ConstructionError, match="beta"):
            represent_s239(S239Params(beta=60.0))


class TestObstructionPattern:
    def test_s3410_found(self):
        found = find_obstruction_pattern(builtin_system("S3410"))
        assert found is not None
        assert pattern_assignment_valid(builtin_system("S3410"), found)

    def test_reference_assignment_valid(self):
        paper = {"a": 1, "b": 4, "c": 2, "d": 5, "u": 7, "v": 9,
                 "w": 6, "x": 0, "y": 3, "z": 8}
        assert pattern_assignment_valid(builtin_system("S3410"), paper)

    def test_pattern_itself_found(self):
        blocks = ["a b c d", "a b u v", "c d u v", "a c w x",
                  "b d w x", "a d y z", "b c y z"]
        h = Hypergraph.from_blocks([b.split() for b in blocks])
        found = find_obstruction_pattern(h)
        assert found is not None
        assert pattern_assignment_valid(h, found)

    def test_single_block_none(self):
        h = Hypergraph.from_blocks([["1", "2", "3", "4"]])
        assert find_obstruction_pattern(h) is None

    def test_non_uniform_rejected(self):
        h = Hypergraph.from_blocks([["1", "2", "3"]])
        with pytest.raises(InputError, match="4-uniform"):
            find_obstruction_pattern(h)


def double_sqs(h: Hypergraph) -> Hypergraph:
    """SQS(2n) from SQS(n): copy blocks plus one-factor cross quadruples."""
    n = h.n
    assert n % 2 == 0
    verts = sorted(h.vertices)
    a = {v: f"A{v}" for v in verts}
    b = {v: f"B{v}" for v in verts}
    blocks = []
    for blk in h.blocks:
        blocks.append([a[v] for v in blk])
        blocks.append([b[v] for v in blk])
    # one-factorization of K_n by the circle method on 0..n-2 plus a hub
    idx = {v: i for i, v in enumerate(verts)}
    m = n - 1
    factors = []
    for r in range(m):
        pairs = [(verts[m], verts[r])]
        for i in range(1, n // 2):
            pairs.append((verts[(r + i) % m], verts[(r - i) % m]))
        factors.append(pairs)
    for pairs in factors:
        for (x, y) in pairs:
            for (u, v) in pairs:
                blocks.append(sorted([a[x], a[y], b[u], b[v]]))
    # cross blocks appear once per ordered pair of pairs; dedupe
    uniq = {frozenset(blk) for blk in blocks}
    return Hypergraph.from_blocks([sorted(blk) for blk in sorted(map(sorted, uniq))])


class TestCounting:
    def test_n10(self):
        cert = counting_certificate(builtin_system("S3410"),
                                    SteinerDescriptor(3, 4, 10))
        assert cert.kind == CONVEX_QUAD_OBSTRUCTION
        assert cert.convex_link_edges == 24 and cert.planar_bound == 21

    def test_n8(self):
        cert = counting_certificate(builtin_system("S348"),
                                    SteinerDescriptor(3, 4, 8))
        assert cert.kind == KNOWN_CASE_S348
        assert cert.convex_link_edges == 14 <= 15

    def test_n20_doubled(self):
        h20 = double_sqs(builtin_system("S3410"))
        ok, witness = validate_steiner(h20, SteinerDescriptor(3, 4, 20))
        assert ok, witness
        cert = counting_certificate(h20, SteinerDescriptor(3, 4, 20))
        assert cert.kind == ANY_QUAD_OBSTRUCTION
        assert cert.any_link_edges == 57 and cert.planar_bound == 51

    def test_monotone(self):
        # any-quad obstruction implies the convex one
        h20 = double_sqs(builtin_system("S3410"))
        cert = counting_certificate(h20, SteinerDescriptor(3, 4, 20))
        assert cert.convex_link_edges > cert.planar_bound

    def test_not_sqs_rejected(self):
        with pytest.raises(InputError, match="quadruple"):
            counting_certificate(builtin_system("S237"),
                                 SteinerDescriptor(2, 3, 7))


class TestCoplanarity:
    def test_square_corners(self):
        from polycontact import Graph, Polygon3, edge_key, graph_scene
        sq = Polygon3(corners=((0.0, 0.0, 0.0), (1.0, 0.0, 0.0),
                               (1.0, 1.0, 0.0), (0.0, 1.0, 0.0)))
        tri = Polygon3(corners=((1.0, 0.0, 0.0), (2.0, 0.0, 1.0),
                                (2.0, -1.0, 0.0)))
        g = Graph.from_edges([("a", "b")])
        scene = graph_scene(g, {"a": sq, "b": tri},
                            {edge_key("a", "b"): (1.0, 0.0, 0.0)},
                            {"construction": "t", "arithmetic": "exact"})
        # treat the four square corners as contact stand-ins
        scene.contacts = {f"p{i}": c for i, c in enumerate(sq.corners)}
        count, _, members = max_coplanar_vertices(scene)
        assert count == 4

    def test_fano_planes(self):
        scene = represent_fano()
        count, _, members = max_coplanar_vertices(scene)
        assert count == 3

    def test_tetrahedron_points(self):
        from polycontact import Graph, Polygon3, edge_key, graph_scene
        tri = Polygon3(corners=((0.0, 0.0, 0.0), (1.0, 0.0, 0.0),
                                (0.0, 1.0, 0.0)))
        far = Polygon3(corners=((5.0, 5.0, 5.0), (6.0, 5.0, 5.0),
                                (5.0, 6.0, 5.0)))
        g = Graph.from_edges([("a", "b")])
        scene = graph_scene(g, {"a": tri, "b": far}, {},
                            {"construction": "t", "arithmetic": "exact"})
        scene.contacts = {"1": (0.0, 0.0, 0.0), "2": (1.0, 0.0, 0.0),
                          "3": (0.0, 1.0, 0.0), "4": (0.0, 0.0, 1.0)}
        count, _, _ = max_coplanar_vertices(scene)
        assert count == 3

    def test_coplanar_pairs_found(self):
        from polycontact import Graph, Polygon3, edge_key, graph_scene
        t1 = Polygon3(corners=((0.0, 0.0, 0.0), (1.0, 0.0, 0.0),
                               (0.0, 1.0, 0.0)))
        t2 = Polygon3(corners=((1.0, 0.0, 0.0), (2.0, 0.0, 0.0),
                               (2.0, 1.0, 0.0)))
        g = Graph.from_edges([("a", "b")])
        scene = graph_scene(g, {"a": t1, "b": t2},
                            {edge_key("a", "b"): (1.0, 0.0, 0.0)},
                            {"construction": "t", "arithmetic": "exact"})
        assert coplanar_polygon_pairs(scene) == [("a", "b")]

    def test_fano_pairs(self):
        scene = represent_fano()
        pairs = coplanar_polygon_pairs(scene)
        # for the default angle no two block triangles share a plane
        assert pairs == []

    @pytest.mark.parametrize("arithmetic", ["exact", "float"])
    def test_straight_angle_first_corners(self, arithmetic):
        # the pentagon's first three corners are collinear; its plane comes
        # from later corners, and the triangle shares it
        from fractions import Fraction

        from polycontact import Graph, Polygon3, edge_key, graph_scene
        num = Fraction if arithmetic == "exact" else float

        def poly(*corners):
            return Polygon3(corners=tuple(tuple(map(num, c)) for c in corners))

        pent = poly((0, 0, 0), (1, 0, 0), (2, 0, 0), (2, 1, 0), (0, 1, 0))
        tri = poly((2, 0, 0), (3, 0, 0), (3, 1, 0))
        g = Graph.from_edges([("a", "b")])
        scene = graph_scene(g, {"a": pent, "b": tri},
                            {edge_key("a", "b"): tri.corners[0]},
                            {"construction": "t", "arithmetic": arithmetic})
        assert coplanar_polygon_pairs(scene) == [("a", "b")]


def _coplanar_by_every_triple(scene):
    """`max_coplanar_vertices` as it was: every contact against the plane
    of every contact triple, O(m^4)."""
    pts = sorted(((k if isinstance(k, str) else "-".join(sorted(k)), tuple(p))
                  for k, p in scene.contacts.items()), key=lambda np: np[0])
    best = (0, None, [])
    for (_, pa), (_, pb), (_, pc) in combinations(pts, 3):
        plane = _plane_of((pa, pb, pc))
        if plane is None:
            continue
        members = [name for name, p in pts if vdot(plane[0], p) == plane[1]]
        if len(members) > best[0]:
            best = (len(members), plane, members)
    return best


def _exact_points_scene(points):
    from polycontact import Graph, Polygon3, graph_scene
    tri = Polygon3(corners=tuple(tuple(map(Fraction, c))
                                 for c in ((0, 0, 0), (1, 0, 0), (0, 1, 0))))
    scene = graph_scene(Graph.from_edges([("a", "b")]), {"a": tri, "b": tri}, {},
                        {"construction": "t", "arithmetic": "exact"})
    scene.contacts = {f"p{i:02d}": tuple(map(Fraction, p)) for i, p in enumerate(points)}
    return scene


class TestCoplanarPointsExact:
    """The exact one-pass grouping against the every-triple scan."""

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_complete_graphs(self, n):
        from polycontact import represent_complete
        scene = represent_complete(n)
        assert max_coplanar_vertices(scene) == _coplanar_by_every_triple(scene)

    def test_two_contacts_on_one_point(self):
        # a cube's corners with the origin twice: the three faces through
        # the origin tie at five contacts, and the first triple wins
        cube = list(product((0, 1), repeat=3))
        scene = _exact_points_scene(cube + [(0, 0, 0)])
        got = max_coplanar_vertices(scene)
        assert got == _coplanar_by_every_triple(scene)
        assert got[0] == 5 and got[2] == ["p00", "p01", "p02", "p03", "p08"]

    def test_all_collinear(self):
        scene = _exact_points_scene([(i, 2 * i, 0) for i in range(4)])
        assert max_coplanar_vertices(scene) == (0, None, [])

    def test_random_grid_points(self):
        rng = random.Random(5)
        for _ in range(100):
            pts = [tuple(Fraction(rng.randint(0, 2), rng.choice((1, 2)))
                         for _ in range(3)) for _ in range(rng.randint(3, 9))]
            scene = _exact_points_scene(pts)
            assert max_coplanar_vertices(scene) == _coplanar_by_every_triple(scene)


@pytest.mark.parametrize("argv, expected", [
    (["--class", "complete", "--n", "6"], "5 (1-2, 1-3, 1-4, 1-5, 1-6)"),
    (["--class", "k33"], "4 (a1-b1, a1-b2, a3-b1, a3-b2)"),
], ids=["K6", "k33"])
def test_coplanar_points_independent_of_hash_seed(argv, expected, tmp_path):
    # graph contacts are keyed by frozensets, whose order follows the hash seed
    from polycontact.cli import main
    scene = tmp_path / "scene.json"
    assert main(["represent", *argv, "-o", str(scene)]) == 0
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outs = []
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "polycontact.cli", "analyze", "coplanar-points",
             "--file", str(scene)], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs == [f"max coplanar contact points: {expected}\n"] * 2
