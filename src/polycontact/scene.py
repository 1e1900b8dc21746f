"""Scenes: polygons realizing a graph or hypergraph, plus the contact map.

A graph scene has one polygon per vertex and one contact point per edge
(keyed by the edge).  A hypergraph scene has one polygon per block and one
contact point per hypergraph vertex (keyed by the vertex label).
Coordinates are exact: ints and `Fraction`s.  `meta` carries the
construction name, `"arithmetic": "exact"`, claimed grid bounds and any
construction-specific parameters.

`certificate` is the passing `VerificationReport` `verify.certify` gave
this very scene object, or None (read from a file or built by hand).  It
is not part of the scene: it is never compared, serialized or read back,
and `verify_scene` ignores it.  It goes stale if the scene is changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, islice

from .core import Graph, Hypergraph, block_label
from .geom import Polygon3, _plane_of

GRAPH = "graph"
HYPERGRAPH = "hypergraph"


class ConstructionError(ValueError):
    """A construction precondition failed or the method degenerates."""


@dataclass
class Scene:
    kind: str
    structure: object  # Graph or Hypergraph
    polygons: dict  # label -> Polygon3
    contacts: dict  # graph: edge key -> point; hypergraph: vertex -> point
    meta: dict = field(default_factory=dict)
    certificate: object = field(default=None, compare=False, repr=False)  # VerificationReport

    def expected_contact_keys(self):
        if self.kind == GRAPH:
            return set(self.structure.edges)
        return set(self.structure.vertices)

    def expected_polygon_labels(self):
        """One polygon per graph vertex, or per hypergraph block."""
        if self.kind == GRAPH:
            return set(self.structure.vertices)
        return {block_label(b) for b in self.structure.blocks}

    def polygons_for_contact(self, key):
        """Labels of the polygons that must share the contact point."""
        if self.kind == GRAPH:
            return sorted(key)
        return [block_label(b) for b in self.structure.blocks_with(key)]

    def all_points(self):
        for poly in self.polygons.values():
            yield from poly.corners


def graph_scene(graph: Graph, polygons: dict, contacts: dict, meta: dict) -> Scene:
    missing = [v for v in graph.vertices if v not in polygons]
    if missing:
        raise ConstructionError(f"no polygon for vertices {missing}")
    return Scene(kind=GRAPH, structure=graph, polygons=polygons,
                 contacts=contacts, meta=meta)


def dummy_labels(g: Graph, k: int) -> list:
    """k vertex labels "_pad0", "_pad1", ... that are not vertices of g."""
    taken = set(g.vertices)
    return list(islice((x for x in map("_pad{}".format, count()) if x not in taken), k))


def retract(g: Graph, padded: Scene, meta: dict) -> Scene:
    """g's scene cut out of `padded`, a scene of a graph that contains g.

    Only g's vertices keep their polygons.  Each keeps, in order, its
    corners that are contacts of g's edges.  If those are fewer than 3 or
    collinear, it also gets dropped corners off their line, in order,
    pulled halfway to its corner centroid, until it has 3 corners that are
    not collinear; a dropped corner off a line through corners of a convex
    polygon stands outside their run, so the order stays convex.

    A convex polygon replaced by one inside its closure, whose corners are
    some of its corners plus points of its interior, loses exactly the
    contacts at the dropped corners and gains no contact, touch or overlap;
    so a valid `padded` gives a valid scene.  Each pulled corner adds at
    most one coordinate value per axis, so a `claimed_grid` in `meta`
    grows by their number.
    """
    contacts = {e: padded.contacts[e] for e in g.edges}
    keep = set(map(_ratios, contacts.values()))
    polygons, pulled = {}, 0
    for v in g.vertices:
        cs = padded.polygons[v].corners
        real = [_ratios(c) in keep for c in cs]
        if all(real):
            polygons[v] = padded.polygons[v]
            continue
        kept = [c for c, r in zip(cs, real) if r]
        extra = {}  # position in cs -> pulled corner
        if _plane_of(kept) is None:
            k = len(cs)
            sums = [sum(xs) for xs in zip(*cs)]
            for i, c in enumerate(cs):
                chosen = kept + list(extra.values())
                if _plane_of(chosen) is not None:
                    break
                if real[i] or len(kept) > 1 and _plane_of(kept[:2] + [c]) is None:
                    continue
                p = tuple(Fraction(k * x + s, 2 * k) for x, s in zip(c, sums))
                if len(chosen) < 2 or _plane_of(chosen + [p]) is not None:
                    extra[i] = p
            if _plane_of(kept + list(extra.values())) is None:
                raise ConstructionError(f"cannot retract the polygon of {v!r}")
            pulled += len(extra)
        polygons[v] = Polygon3(corners=tuple(
            extra.get(i, c) for i, c in enumerate(cs) if real[i] or i in extra))
    if pulled and "claimed_grid" in meta:
        meta = dict(meta, claimed_grid={axis: n + pulled
                                        for axis, n in meta["claimed_grid"].items()})
    return graph_scene(g, polygons, contacts, meta)


def _ratios(p) -> tuple:
    """A point's coordinates as (numerator, denominator) pairs: equal points
    give equal tuples, which hash faster than `Fraction`s do."""
    x, y, z = p
    return x.as_integer_ratio(), y.as_integer_ratio(), z.as_integer_ratio()


def hypergraph_scene(h: Hypergraph, polygons: dict, contacts: dict, meta: dict) -> Scene:
    missing = [block_label(b) for b in h.blocks if block_label(b) not in polygons]
    if missing:
        raise ConstructionError(f"no polygon for blocks {missing}")
    return Scene(kind=HYPERGRAPH, structure=h, polygons=polygons,
                 contacts=contacts, meta=meta)
