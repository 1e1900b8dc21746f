"""Proper polygons only: pad-and-retract emitters, and the verifier's
rejection of points, segments and collinear corner lists."""

import json
from fractions import Fraction as F
from random import Random

import pytest

from polycontact import (Graph, Polygon3, represent_2ec_cubic,
                         represent_bipartite_grid, represent_bipartite_toroidal,
                         represent_complete, represent_cubic, represent_cycle_square,
                         represent_fano, represent_k33_unit_triangles,
                         represent_max_degree3, represent_min_degree3,
                         represent_oneplanar_cubic, represent_s239, verify_scene)
from polycontact.cli import CLASSES, main
from polycontact.scene import graph_scene, retract
from conftest import all_oneplanar_fixtures, gadget_chain


def _random_graph(rng, n, p):
    vs = [f"v{i}" for i in range(n)]
    return Graph.from_edges([(u, w) for i, u in enumerate(vs) for w in vs[i + 1:]
                             if rng.random() < p], vertices=vs)


def _random_subcubic(rng, n):
    """Up to 3n/2 random edges kept while both ends have degree < 3; often
    with isolated vertices and several components."""
    g = Graph.from_edges([], vertices=[f"v{i}" for i in range(n)])
    for _ in range(rng.randint(0, 3 * n // 2)):
        u, w = rng.sample(g.vertices, 2)
        if g.degree(u) < 3 and g.degree(w) < 3 and not g.adjacent(u, w):
            g = Graph(vertices=g.vertices, edges=g.edges | {frozenset((u, w))})
    return g


def _random_bipartite(rng):
    a, b = rng.randint(1, 6), rng.randint(1, 6)
    part_a, part_b = [f"a{i}" for i in range(a)], [f"b{j}" for j in range(b)]
    p = rng.choice((0.2, 0.4, 0.6, 0.9))
    g = Graph.from_edges([(u, w) for u in part_a for w in part_b if rng.random() < p],
                         vertices=part_a + part_b)
    return g, (part_a, part_b)


def _maxdeg3_scenes(rng):
    return [represent_max_degree3(_random_subcubic(rng, rng.randint(3, 9))) for _ in range(12)]


# one builder per CLI class: a seeded list of scenes
_BUILDERS = {
    "complete": lambda rng: [represent_complete(n) for n in range(1, 7)],
    "mindeg3": lambda rng: [represent_min_degree3(_random_graph(rng, n, p))
                            for n in range(1, 11) for p in (0.1, 0.3, 0.8)],
    "bipartite-toroidal": lambda rng: [represent_bipartite_toroidal(*_random_bipartite(rng))
                                       for _ in range(20)],
    "bipartite-grid": lambda rng: [represent_bipartite_grid(*_random_bipartite(rng))
                                   for _ in range(20)],
    "k33": lambda rng: [represent_k33_unit_triangles()],
    "oneplanar-cubic": lambda rng: [represent_oneplanar_cubic(emb)
                                    for emb in all_oneplanar_fixtures().values()],
    "cubic-2ec": lambda rng: [represent_2ec_cubic(Graph.from_edges(
        [(f"a{i}", f"a{(i + 1) % 5}") for i in range(5)]
        + [(f"b{i}", f"b{(i + 1) % 5}") for i in range(5)]
        + [(f"a{i}", f"b{i}") for i in range(5)]))],
    "cubic": lambda rng: [represent_cubic(gadget_chain(3))],
    "maxdeg3": _maxdeg3_scenes,
    "cycle-square": lambda rng: [represent_cycle_square(n) for n in (6, 7, 8)],
    "fano": lambda rng: [represent_fano()],
    "s239": lambda rng: [represent_s239()],
}


def test_every_cli_class_has_a_builder():
    assert set(_BUILDERS) == set(CLASSES)


@pytest.mark.parametrize("cls", sorted(_BUILDERS))
def test_no_polygon_has_fewer_than_three_corners(cls):
    for scene in _BUILDERS[cls](Random(7)):
        assert min(len(p.corners) for p in scene.polygons.values()) >= 3
        report = verify_scene(scene)
        assert report.passed, report.to_text()
        assert "degenerate-polygon" not in {f.code for f in report.warnings}


def test_retract_keeps_contacts_and_pulls_corners_in():
    # each triangle keeps its corner at its one real contact and pulls its
    # two other corners halfway to its centroid; the grid claim grows by 4
    tri = {"u": ((0, 0, 0), (6, 0, 0), (0, 6, 0)), "w": ((0, 0, 0), (0, 0, 6), (0, 6, 6)),
           "d": ((6, 0, 0), (0, 0, 6), (9, 9, 9))}
    padded = graph_scene(Graph.from_edges([("u", "w"), ("u", "d"), ("w", "d")]),
                         {v: Polygon3(cs) for v, cs in tri.items()},
                         {frozenset("uw"): (0, 0, 0), frozenset("ud"): (6, 0, 0),
                          frozenset("wd"): (0, 0, 6)}, {})
    g = Graph.from_edges([("u", "w")])
    scene = retract(g, padded, {"claimed_grid": {"x": 1, "y": 1, "z": 1}})
    assert set(scene.polygons) == {"u", "w"}
    assert scene.contacts == {frozenset("uw"): (0, 0, 0)}
    assert scene.polygons["u"].corners == ((0, 0, 0), (F(4), F(1), F(0)), (F(1), F(4), F(0)))
    assert scene.meta["claimed_grid"] == {"x": 5, "y": 5, "z": 5}


def test_retract_pulls_a_corner_off_a_collinear_run():
    # the A-polygon a0 keeps three corners on one straight edge of the
    # padded grid polygon, so it pulls one corner from off that edge
    g = Graph.from_edges([("a0", "b5"), ("a1", "b1"), ("a1", "b2"), ("a2", "b1"),
                          ("a2", "b3"), ("a0", "b0"), ("a0", "b4")])
    parts = ([f"a{i}" for i in range(3)], [f"b{j}" for j in range(6)])
    scene = represent_bipartite_grid(g, parts=parts)
    assert len(scene.polygons["a0"].corners) == 4
    assert verify_scene(scene).passed


def _beyond(a, b):
    """The point record 2b - a, on the line of a and b."""
    xs = {k: 2 * F(b[k]) - F(a[k]) for k in "xyz"}
    return dict({k: f"{x.numerator}/{x.denominator}" for k, x in xs.items()}, id="extra")


_MUTANTS = {
    "point": lambda cs: cs[:1],
    "segment": lambda cs: cs[:2],
    "collinear": lambda cs: [cs[0], cs[1], _beyond(cs[0], cs[1])],
}


@pytest.mark.parametrize("mutant", sorted(_MUTANTS))
def test_degenerate_polygon_fails_verify(mutant, tmp_path, capsys):
    path = tmp_path / "k3.json"
    assert main(["represent", "--class", "complete", "--n", "3", "-o", str(path)]) == 0
    assert main(["verify", str(path)]) == 0
    doc = json.loads(path.read_text())
    points = {p["id"]: p for p in doc["points"]}
    poly = doc["polygons"][0]
    cs = _MUTANTS[mutant]([points[c] for c in poly["corners"]])
    doc["points"] += [c for c in cs if c["id"] not in points]
    poly["corners"] = [c["id"] for c in cs]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(path), "--json"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert any(v.startswith(f"[degenerate-polygon] {poly['label']}:")
               for v in out["violations"])
