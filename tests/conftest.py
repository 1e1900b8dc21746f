import math
import os
from fractions import Fraction

import hypothesis
import pytest

from polycontact import Graph, OnePlaneEmbedding, Polygon3, Scene, edge_key, graph_scene

# HYPOTHESIS_PROFILE=ci runs more examples in a fixed order
hypothesis.settings.register_profile("suite", deadline=None, max_examples=60)
hypothesis.settings.register_profile("ci", deadline=None, max_examples=500,
                                     derandomize=True)
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "suite"))


def ek(u, v):
    return edge_key(str(u), str(v))


@pytest.fixture
def k4():
    return Graph.from_edges([(i, j) for i in "abcd" for j in "abcd" if i < j])


@pytest.fixture
def petersen():
    edges = [(str(i), str((i + 1) % 5)) for i in range(5)]
    edges += [(str(i), str(i + 5)) for i in range(5)]
    edges += [(str(i + 5), str((i + 2) % 5 + 5)) for i in range(5)]
    return Graph.from_edges(edges)


@pytest.fixture
def prism():
    return Graph.from_edges([("1", "2"), ("2", "3"), ("3", "1"),
                             ("4", "5"), ("5", "6"), ("6", "4"),
                             ("1", "4"), ("2", "5"), ("3", "6")])


def k4_gadget(prefix, two_slots=False):
    """K4 with one (or two) subdivided edges; returns (edges, open slots)."""
    a, b, c, d, s1, s2 = [f"{prefix}{x}" for x in "abcd12"]
    if not two_slots:
        edges = [(a, b), (a, c), (a, d), (b, c), (b, d), (c, s1), (d, s1)]
        return edges, [s1]
    edges = [(a, c), (a, d), (b, c), (b, d), (c, s1), (d, s1), (a, s2), (b, s2)]
    return edges, [s1, s2]


def gadget_chain(k):
    """Chain of k K4 gadgets joined by k-1 bridges (cubic, n = 5k + (k-2))."""
    assert k >= 2
    edges, slots = [], []
    e, s = k4_gadget("g0")
    edges += e
    slots.append(s)
    for i in range(1, k - 1):
        e, s = k4_gadget(f"g{i}", two_slots=True)
        edges += e
        slots.append(s)
    e, s = k4_gadget(f"g{k - 1}")
    edges += e
    slots.append(s)
    for i in range(k - 1):
        edges.append((slots[i][-1], slots[i + 1][0]))
    return Graph.from_edges(edges)


def gadget_star():
    """Central vertex with three bridges into K4 gadgets (n = 16, cubic)."""
    edges = []
    ends = []
    for i in range(3):
        e, s = k4_gadget(f"s{i}")
        edges += e
        ends.append(s[0])
    for t in ends:
        edges.append(("hub", t))
    return Graph.from_edges(edges)


def merged_fan(edges):
    """Six exact triangles a, b, c, d, m, z in z = 0, fanned around the
    origin: every pair shares that one corner, and every edge's declared
    contact is there, so the contacts merge."""
    origin = (Fraction(0),) * 3
    polygons = {}
    for k, label in enumerate("abcdmz"):
        rim = [(round(100 * math.cos(math.radians(60 * k + t))),
                round(100 * math.sin(math.radians(60 * k + t))), 0) for t in (10, 50)]
        polygons[label] = Polygon3(corners=(origin,) + tuple(
            tuple(map(Fraction, p)) for p in rim))
    return graph_scene(Graph.from_edges(edges, vertices=sorted(polygons)), polygons,
                       {edge_key(u, v): origin for u, v in edges},
                       {"construction": "test", "arithmetic": "exact"})


def fresh_points(scene):
    """The scene with every corner and contact a new object of equal value,
    and every other contact a list."""
    polygons = {label: Polygon3(corners=tuple(tuple(list(c)) for c in poly.corners))
                for label, poly in scene.polygons.items()}
    contacts = {k: list(p) if i % 2 else tuple(list(p))
                for i, (k, p) in enumerate(scene.contacts.items())}
    return Scene(scene.kind, scene.structure, polygons, contacts, scene.meta)


# ---------------------------------------------------------------------------
# Handcrafted 1-plane embeddings (rotations read off explicit drawings)
# ---------------------------------------------------------------------------


def k4_graph():
    return Graph.from_edges([("1", "2"), ("1", "3"), ("1", "4"),
                             ("2", "3"), ("2", "4"), ("3", "4")])


def k4_planar_embedding():
    g = k4_graph()
    rotation = {
        "1": [ek(1, 2), ek(1, 4), ek(1, 3)],
        "2": [ek(2, 3), ek(2, 4), ek(2, 1)],
        "3": [ek(3, 1), ek(3, 4), ek(3, 2)],
        "4": [ek(4, 3), ek(4, 1), ek(4, 2)],
    }
    return OnePlaneEmbedding(graph=g, rotation=rotation, crossings=frozenset())


def _k4_crossed_rotation():
    return {
        "1": [ek(1, 2), ek(1, 3), ek(1, 4)],
        "2": [ek(2, 3), ek(2, 4), ek(2, 1)],
        "3": [ek(3, 4), ek(3, 1), ek(3, 2)],
        "4": [ek(4, 3), ek(4, 1), ek(4, 2)],
    }


def k4_crossed_embedding():
    """Square 1234 with crossing diagonals, crossing inside."""
    return OnePlaneEmbedding(
        graph=k4_graph(), rotation=_k4_crossed_rotation(),
        crossings=frozenset([frozenset([ek(1, 3), ek(2, 4)])]),
        outer_face=frozenset([ek(1, 2), ek(2, 3), ek(3, 4), ek(1, 4)]))


def k4_bconfig_embedding():
    """Same rotation system with the crossing quadrant as the outer face."""
    return OnePlaneEmbedding(
        graph=k4_graph(), rotation=_k4_crossed_rotation(),
        crossings=frozenset([frozenset([ek(1, 3), ek(2, 4)])]),
        outer_face=frozenset([ek(1, 2), ek(1, 3), ek(2, 4)]))


def prism_embedding():
    g = Graph.from_edges([("1", "2"), ("2", "3"), ("3", "1"),
                          ("4", "5"), ("5", "6"), ("6", "4"),
                          ("1", "4"), ("2", "5"), ("3", "6")])
    rotation = {
        "1": [ek(1, 4), ek(1, 2), ek(1, 3)],
        "2": [ek(2, 3), ek(2, 1), ek(2, 5)],
        "3": [ek(3, 1), ek(3, 2), ek(3, 6)],
        "4": [ek(4, 5), ek(4, 1), ek(4, 6)],
        "5": [ek(5, 6), ek(5, 2), ek(5, 4)],
        "6": [ek(6, 4), ek(6, 3), ek(6, 5)],
    }
    return OnePlaneEmbedding(graph=g, rotation=rotation, crossings=frozenset(),
                             outer_face=frozenset([ek(4, 5), ek(5, 6), ek(6, 4)]))


def cube_embedding():
    pairs = [("000", "001"), ("001", "011"), ("011", "010"), ("010", "000"),
             ("100", "101"), ("101", "111"), ("111", "110"), ("110", "100"),
             ("000", "100"), ("001", "101"), ("011", "111"), ("010", "110")]
    g = Graph.from_edges(pairs)
    rotation = {
        "000": [ek("000", "001"), ek("000", "100"), ek("000", "010")],
        "001": [ek("001", "011"), ek("001", "101"), ek("001", "000")],
        "011": [ek("011", "010"), ek("011", "111"), ek("011", "001")],
        "010": [ek("010", "011"), ek("010", "000"), ek("010", "110")],
        "100": [ek("100", "101"), ek("100", "110"), ek("100", "000")],
        "101": [ek("101", "111"), ek("101", "100"), ek("101", "001")],
        "111": [ek("111", "011"), ek("111", "110"), ek("111", "101")],
        "110": [ek("110", "111"), ek("110", "010"), ek("110", "100")],
    }
    return OnePlaneEmbedding(
        graph=g, rotation=rotation, crossings=frozenset(),
        outer_face=frozenset([ek("000", "001"), ek("001", "011"),
                              ek("011", "010"), ek("010", "000")]))


def k33_crossed_embedding():
    """K33 drawn with one crossing: hexagon 1-4-2-5-3-6 plus three chords.

    Chord 1-5 runs inside the hexagon, 2-6 outside around vertex 1's side,
    and 3-4 inside crossing 1-5.
    """
    pairs = [("1", "4"), ("4", "2"), ("2", "5"), ("5", "3"), ("3", "6"),
             ("6", "1"), ("1", "5"), ("2", "6"), ("3", "4")]
    g = Graph.from_edges(pairs)
    rotation = {
        "1": [ek(1, 4), ek(1, 5), ek(1, 6)],
        "4": [ek(4, 2), ek(4, 3), ek(4, 1)],
        "2": [ek(2, 4), ek(2, 6), ek(2, 5)],
        "5": [ek(5, 1), ek(5, 2), ek(5, 3)],
        "3": [ek(3, 6), ek(3, 4), ek(3, 5)],
        "6": [ek(6, 1), ek(6, 3), ek(6, 2)],
    }
    return OnePlaneEmbedding(
        graph=g, rotation=rotation,
        crossings=frozenset([frozenset([ek(1, 5), ek(3, 4)])]),
        outer_face=frozenset([ek(2, 6), ek(2, 5), ek(5, 3), ek(3, 6)]))


def all_oneplanar_fixtures():
    return {
        "k4-planar": k4_planar_embedding(),
        "k4-crossed": k4_crossed_embedding(),
        "k4-bconfig": k4_bconfig_embedding(),
        "prism": prism_embedding(),
        "cube": cube_embedding(),
        "k33-crossed": k33_crossed_embedding(),
    }
