"""The verifier's point index against a pairwise reference.

`verify.KernelScene` interns each scene point once and matches corners and
contacts by id: two points match exactly when they are equal, however
close two unequal ones are.  Every report here must equal
`reference_verify`'s, which compares points pair by pair.  The reference
also classifies every pair, so scenes with far-apart polygons hold the
verifier's broad phase to it as well.  Points are converted once per
object, so a scene rebuilt with every point a fresh object must index,
verify and measure as the scene that shares them.
"""

import random
from fractions import Fraction as F
from functools import cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycontact import (Graph, Polygon3, Scene, complete_bipartite, edge_key, graph_scene,
                         represent_2ec_cubic, represent_bipartite_toroidal,
                         represent_complete, represent_cubic,
                         represent_cycle_square, represent_fano, verify_scene)
from polycontact.verify import KernelScene, grid_extent
from conftest import fresh_points, gadget_chain, merged_fan
from oracle_geom import oracle_classify
from reference_verify import reference_verify

EPS = 2.0 ** -20  # offsets of 0.5, 1, 1.5 and 3 EPS are exact floats


def _rows(findings):
    return [(f.code, f.where, f.detail, f.witness) for f in findings]


def assert_matches_reference(scene):
    """Findings, pair kinds and reconstructed contacts equal the pairwise
    reference's."""
    report = verify_scene(scene)
    viol, warn, kinds, shared, recon = reference_verify(scene)
    assert _rows(report.violations) == viol
    assert _rows(report.warnings) == warn
    assert report.pair_kinds == kinds
    assert report.reconstructed == recon
    return report


def _float_scene(triangles, edges, contacts):
    """A scene of float triangles, which are read exactly."""
    g = Graph.from_edges(edges, vertices=sorted(triangles))
    polygons = {label: Polygon3(corners=tuple(cs)) for label, cs in triangles.items()}
    return graph_scene(g, polygons, {edge_key(*e): p for e, p in contacts.items()},
                       {"construction": "test", "arithmetic": "exact"})


def _offset_scene():
    """Triangle pairs whose nearly shared corners straddle x = 0 at 0.5,
    1, 1.5 and 3 EPS apart."""
    triangles, edges, contacts = {}, [], {}
    for k, f in enumerate((0.5, 1.0, 1.5, 3.0)):
        y, d = 3.0 * k, f * EPS / 2
        u, v = f"u{k}", f"v{k}"
        triangles[u] = [(-d, y, 0.0), (-1.0, y - 0.5, 0.0), (-1.0, y + 0.5, 0.0)]
        triangles[v] = [(d, y, 0.0), (1.0, y, 0.5), (1.0, y, -0.5)]
        edges.append((u, v))
        contacts[(u, v)] = (-d, y, 0.0)
    return _float_scene(triangles, edges, contacts)


def _chain_scene():
    """Corners a, b, c 0.6 EPS apart in a row."""
    a, b, c = (-0.6 * EPS, 0.0, 0.0), (0.0, 0.0, 0.0), (0.6 * EPS, 0.0, 0.0)
    triangles = {
        "A": [a, (-1.0, -0.5, 0.0), (-1.0, 0.5, 0.0)],
        "B": [b, (0.0, 1.0, -0.5), (0.0, 1.0, 0.5)],
        "C": [c, (1.0, -0.5, 0.1), (1.0, 0.5, 0.1)],
    }
    return _float_scene(triangles, [("A", "B"), ("B", "C")],
                        {("A", "B"): a, ("B", "C"): c})


class TestToleranceBoundary:
    """No tolerance: points a tiny distance apart are distinct."""

    def test_offsets_across_a_cell_boundary(self):
        report = assert_matches_reference(_offset_scene())
        kinds = report.pair_kinds
        assert [kinds[(f"u{k}", f"v{k}")] for k in range(4)] == ["Disjoint"] * 4
        assert [(f.code, f.where) for f in report.violations if f.code == "missing-contact"] == [
            ("missing-contact", f"u{k} / v{k}") for k in range(4)]

    def test_chain_is_not_closed(self):
        # no two of a, b, c are one point, so no contact is merged
        report = assert_matches_reference(_chain_scene())
        assert "CornerContact" not in report.pair_kinds.values()
        assert [(f.code, f.where) for f in report.violations] == [
            ("missing-contact", "A / B"), ("missing-contact", "B / C")]

    @pytest.mark.parametrize("build", [_offset_scene, _chain_scene])
    def test_zero_epsilon_is_tuple_identity(self, build):
        report = assert_matches_reference(build())
        assert "CornerContact" not in report.pair_kinds.values()

    def test_exact_scenes(self):
        assert assert_matches_reference(represent_complete(5)).passed
        report = assert_matches_reference(merged_fan([("a", "z"), ("b", "c"), ("d", "m")]))
        assert [f.where for f in report.violations if f.code == "merged-contacts"] == [
            "a-z / b-c", "a-z / d-m", "b-c / d-m"]
        for seed in range(10):
            assert_matches_reference(_scattered_scene(seed))

    def test_contact_of_no_vertex(self):
        base = represent_fano()
        scene = Scene(base.kind, base.structure, base.polygons,
                      dict(base.contacts, zz=base.contacts["1"]), base.meta)
        report = assert_matches_reference(scene)
        assert [(f.code, f.where) for f in report.violations] == [
            ("declared-mismatch", "zz")]


def _scattered_scene(seed):
    """Exact triangles in three clusters translated far apart, so that most
    pairs have disjoint boxes.  In a cluster, a triangle may reuse a corner
    of an earlier one (a graph edge with that corner as its contact) or be
    an earlier one translated by 1/2 or by 12 along x; the rest cross,
    touch or miss at random."""
    rng = random.Random(seed)
    polygons, contacts = {}, {}
    for c in range(3):
        off = (40 * c, 20 * (c % 2), -10 * c)
        placed = []
        for k in range(5):
            label = f"c{c}t{k}"
            corners = [tuple(F(rng.randint(-6, 6), rng.choice((1, 2))) + o for o in off)
                       for _ in range(3)]
            what = rng.random() if placed else 1.0
            if what < 0.5:
                other, theirs = rng.choice(placed)
                corners[0] = rng.choice(theirs)
                contacts[edge_key(label, other)] = corners[0]
            elif what < 0.7:
                dx = rng.choice((F(1, 2), F(12)))
                corners = [(x + dx, y, z) for x, y, z in rng.choice(placed)[1]]
            placed.append((label, corners))
            polygons[label] = Polygon3(corners=tuple(corners))
    g = Graph.from_edges([tuple(e) for e in contacts], vertices=sorted(polygons))
    return graph_scene(g, polygons, contacts, {"construction": "test", "arithmetic": "exact"})


# ---------------------------------------------------------------------------
# Mutation fuzzing from constructed scenes
# ---------------------------------------------------------------------------

def _cube():
    return Graph.from_edges([(f"{i:03b}", f"{i ^ (1 << k):03b}")
                             for i in range(8) for k in range(3) if i < i ^ (1 << k)])


BASES = {
    "toroidal-k44": lambda: represent_bipartite_toroidal(complete_bipartite(4, 4)),
    "cycle-square-7": lambda: represent_cycle_square(7),
    "fano": represent_fano,
    "k5": lambda: represent_complete(5),
    "cubic-2ec-8": lambda: represent_2ec_cubic(_cube()),
    "cubic-chain-3": lambda: represent_cubic(gadget_chain(3)),
    "scattered-0": partial(_scattered_scene, 0),
    "scattered-1": partial(_scattered_scene, 1),
}


@cache
def _base(name):
    return BASES[name]()


def _points(scene):
    pts = [tuple(c) for label in sorted(scene.polygons)
           for c in scene.polygons[label].corners]
    pts += [tuple(p) for p in scene.contacts.values()]
    return list(dict.fromkeys(pts))


def _replace(scene, old, new):
    """Every occurrence of point old, in corners and contacts, becomes new."""
    swap = lambda p: new if tuple(p) == old else p  # noqa: E731
    scene.polygons = {label: Polygon3(corners=tuple(swap(c) for c in poly.corners))
                      for label, poly in scene.polygons.items()}
    scene.contacts = {k: swap(p) for k, p in scene.contacts.items()}


def _mutate(scene, data):
    """Move one corner, merge two points or drop a polygon."""
    what = data.draw(st.sampled_from(("move", "merge", "drop")))
    if what == "drop" and len(scene.polygons) > 1:
        del scene.polygons[data.draw(st.sampled_from(sorted(scene.polygons)))]
    elif what == "merge":
        pts = _points(scene)
        i, j = data.draw(st.lists(st.integers(0, len(pts) - 1), min_size=2,
                                  max_size=2, unique=True))
        _replace(scene, pts[j], pts[i])
    else:
        label = data.draw(st.sampled_from(sorted(scene.polygons)))
        poly = scene.polygons[label]
        i = data.draw(st.integers(0, len(poly.corners) - 1))
        axis = data.draw(st.integers(0, 2))
        step = data.draw(st.sampled_from((F(1, 3), F(-1, 2), F(1, 1000), F(-2))))
        c = list(poly.corners[i])
        c[axis] += step
        cs = list(poly.corners)
        cs[i] = tuple(c)
        scene.polygons[label] = Polygon3(corners=tuple(cs))


class TestMutationFuzz:
    @pytest.mark.parametrize("name", list(BASES))
    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_mutant_matches_reference(self, name, data):
        base = _base(name)
        scene = Scene(base.kind, base.structure, dict(base.polygons),
                      dict(base.contacts), dict(base.meta))
        for _ in range(data.draw(st.integers(1, 2))):
            _mutate(scene, data)
        report = assert_matches_reference(scene)
        changed = {label for label, poly in scene.polygons.items()
                   if poly != base.polygons[label]}
        for (a, b), kind in report.pair_kinds.items():
            p, q = scene.polygons[a], scene.polygons[b]
            if {a, b} & changed and len(p.corners) == len(q.corners) == 3:
                assert kind == oracle_classify(p, q), (a, b)


# ---------------------------------------------------------------------------
# Shared point objects against fresh ones
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["k5", "cubic-2ec-8", "toroidal-k44", "fano"])
def test_fresh_point_objects_index_as_shared_ones(name):
    shared = _base(name)
    fresh = fresh_points(shared)
    occurrences = [c for poly in fresh.polygons.values() for c in poly.corners]
    occurrences += fresh.contacts.values()
    assert len({id(p) for p in occurrences}) == len(occurrences)
    objects = {id(c) for poly in shared.polygons.values() for c in poly.corners}
    assert len(objects) < len(occurrences)  # the constructed scene shares points
    a, b = KernelScene(shared), KernelScene(fresh)
    assert a.scale == b.scale
    assert list(a.index.items()) == list(b.index.items())
    assert (a.ids, a.contact_ids, a.corner_sets) == (b.ids, b.contact_ids, b.corner_sets)
    assert verify_scene(fresh) == verify_scene(shared)
    assert grid_extent(fresh) == grid_extent(shared)
