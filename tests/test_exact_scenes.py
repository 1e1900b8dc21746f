"""Every construction writes an exact scene: the formerly float classes
(toroidal bipartite, K33, cycle squares, Fano, S(2,3,9)) are built on
rationals and certified by the one exact verifier."""

import random
from fractions import Fraction

import pytest

from polycontact import (Graph, represent_bipartite_toroidal, scene_from_json,
                         scene_to_json, verify_scene)
from polycontact.cli import main


def _random_bipartite(rng):
    """A random bipartite graph on parts a1..aA, b1..bB without isolated
    vertices; sparse ones have vertices of degree 1 and 2."""
    a, b = rng.randint(2, 8), rng.randint(1, 8)
    p = rng.choice((0.2, 0.4, 0.7, 1.0))
    edges = {(i, j) for i in range(1, a + 1) for j in range(1, b + 1) if rng.random() < p}
    for i in range(1, a + 1):
        if not any(e[0] == i for e in edges):
            edges.add((i, rng.randint(1, b)))
    for j in range(1, b + 1):
        if not any(e[1] == j for e in edges):
            edges.add((rng.randint(1, a), j))
    vertices = [f"a{i}" for i in range(1, a + 1)] + [f"b{j}" for j in range(1, b + 1)]
    g = Graph.from_edges(sorted((f"a{i}", f"b{j}") for i, j in edges), vertices=vertices)
    return g, (vertices[:a], vertices[a:])


def test_random_toroidal_scenes_certify_exact():
    degrees = set()
    for seed in range(60):
        g, parts = _random_bipartite(random.Random(seed))
        degrees |= {g.degree(v) for v in g.vertices}
        scene = represent_bipartite_toroidal(g, parts=parts)
        assert scene.meta["arithmetic"] == "exact" and "epsilon" not in scene.meta
        assert all(type(x) is Fraction for p in scene.contacts.values() for x in p)
        report = verify_scene(scene)
        assert report.passed, (seed, report.to_text())
        assert len(report.reconstructed) == len(g.edges)
        back = scene_from_json(scene_to_json(scene))
        assert verify_scene(back).passed, seed
    assert {1, 2} <= degrees


@pytest.mark.parametrize("args, points, polygons", [
    (["--class", "cycle-square", "--n", "6"], "6 (1-2, 1-6, 2-3, 3-4, 4-5, 5-6)", 0),
    (["--class", "cycle-square", "--n", "7"], "4 (1-2, 1-3, 1-6, 1-7)", 0),
    (["--class", "cycle-square", "--n", "8"], "8 (1-2, 1-8, 2-3, 3-4, 4-5, 5-6, 6-7, 7-8)", 0),
    (["--class", "cycle-square", "--n", "9"], "5 (2-3, 3-4, 4-5, 5-6, 6-7)", 0),
    (["--class", "cycle-square", "--n", "10"],
     "10 (1-10, 1-2, 10-9, 2-3, 3-4, 4-5, 5-6, 6-7, 7-8, 8-9)", 0),
    (["--class", "cycle-square", "--n", "11"], "7 (2-3, 3-4, 4-5, 5-6, 6-7, 7-8, 8-9)", 0),
    (["--class", "k33"], "4 (a1-b1, a1-b2, a3-b1, a3-b2)", 0),
    (["--class", "fano"], "3 (1, 2, 3)", 0),
    (["--class", "s239"], "3 (1, 2, 3)", 0),
    (["--class", "bipartite-toroidal", "--a", "3", "--b", "3"],
     "4 (a1-b1, a1-b2, a2-b1, a2-b2)", 0),
    (["--class", "bipartite-toroidal", "--a", "4", "--b", "4"],
     "8 (a1-b1, a1-b3, a2-b1, a2-b3, a3-b1, a3-b3, a4-b1, a4-b3)", 2),
], ids=lambda a: "-".join(a[1::2]) if isinstance(a, list) else None)
def test_coplanarity_answers(args, points, polygons, tmp_path, capsys):
    # exact coplanarity: the even cycle squares' middle ring lies exactly in
    # z = 0, and an odd scene keeps the ring contacts it does not relax
    scene = tmp_path / "scene.json"
    assert main(["represent", *args, "-o", str(scene)]) == 0
    capsys.readouterr()
    assert main(["analyze", "coplanar-points", "--file", str(scene)]) == 0
    assert capsys.readouterr().out == f"max coplanar contact points: {points}\n"
    assert main(["analyze", "coplanar-polygons", "--file", str(scene)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"coplanar polygon pairs: {polygons}"
