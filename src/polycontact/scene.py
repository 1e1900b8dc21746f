"""Scenes: polygons realizing a graph or hypergraph, plus the contact map.

A graph scene has one polygon per vertex and one contact point per edge
(keyed by the edge).  A hypergraph scene has one polygon per block and one
contact point per hypergraph vertex (keyed by the vertex label).  `meta`
carries the construction name, arithmetic mode ('exact' or 'float'),
claimed grid bounds and any construction-specific parameters.

`certificate` is the passing `VerificationReport` a constructor certified
this very scene object with, or None.  It is not part of the scene: it is
never compared, serialized or read back, and `verify_scene` ignores it.
It goes stale if the scene is changed afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import Graph, Hypergraph, block_label
from .geom import ArithmeticContext

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

    def context(self, eps: Optional[float] = None) -> ArithmeticContext:
        exact = self.meta.get("arithmetic", "exact") == "exact"
        if eps is None:
            eps = self.meta.get("epsilon", 1e-9)
        return ArithmeticContext(exact=exact, eps=eps)

    @property
    def is_exact(self) -> bool:
        return self.meta.get("arithmetic", "exact") == "exact"

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


def hypergraph_scene(h: Hypergraph, polygons: dict, contacts: dict, meta: dict) -> Scene:
    missing = [block_label(b) for b in h.blocks if block_label(b) not in polygons]
    if missing:
        raise ConstructionError(f"no polygon for blocks {missing}")
    return Scene(kind=HYPERGRAPH, structure=h, polygons=polygons,
                 contacts=contacts, meta=meta)
