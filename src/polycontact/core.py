"""Combinatorial data model: graphs, 1-plane embeddings, hypergraphs.

Vertex labels are opaque strings everywhere: no code reads structure out
of one.  Constructions that need an integer order (the complete-graph
lift, for instance) index vertices by their position in `Graph.vertices`,
which preserves first-appearance order from the input.  `block_label` is
the one place that knows how a hypergraph block's polygon is labelled,
and `Hypergraph` rejects two blocks with one label.  All containers are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Optional, Sequence


class InputError(ValueError):
    """Malformed combinatorial input (parse errors, broken invariants)."""


def edge_key(u: str, v: str) -> frozenset:
    if u == v:
        raise InputError(f"self-loop at {u!r}")
    return frozenset((u, v))


@dataclass(frozen=True)
class Graph:
    """Labeled undirected simple graph."""

    vertices: tuple
    edges: frozenset  # of frozenset pairs

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate vertex labels")
        vs = set(self.vertices)
        for e in self.edges:
            if len(e) != 2:
                raise InputError(f"bad edge {set(e)}")
            if not e <= vs:
                raise InputError(f"edge {set(e)} uses unknown vertex")

    @staticmethod
    def from_edges(edges: Iterable, vertices: Optional[Sequence[str]] = None) -> "Graph":
        order: list = list(vertices) if vertices is not None else []
        seen = set(order)
        ekeys = []
        for u, v in edges:
            u, v = str(u), str(v)
            for w in (u, v):
                if w not in seen:
                    seen.add(w)
                    order.append(w)
            ekeys.append(edge_key(u, v))
        return Graph(vertices=tuple(order), edges=frozenset(ekeys))

    @cached_property
    def _adjacency(self) -> dict:
        # Built on first use; not a dataclass field, so equality and hash
        # still compare vertices and edges only.
        adj = {v: set() for v in self.vertices}
        for e in self.edges:
            u, v = tuple(e)
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def degree(self, v: str) -> int:
        return len(self._adjacency.get(v, ()))

    def neighbors(self, v: str) -> list:
        return sorted(self._adjacency.get(v, ()))

    def adjacent(self, u: str, v: str) -> bool:
        return edge_key(u, v) in self.edges

    @property
    def n(self) -> int:
        return len(self.vertices)

    def is_regular(self, d: int) -> bool:
        return all(self.degree(v) == d for v in self.vertices)

    def is_connected(self) -> bool:
        return len(components(self.vertices, self.neighbors)) <= 1


def components(vertices, neighbors) -> list:
    """The components of the graph on `vertices` whose edges at v are
    `neighbors(v)`, as frozensets in order of their first vertex."""
    comps = []
    seen = set()
    for s in vertices:
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        while stack:
            for w in neighbors(stack.pop()):
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def find_bridges(g: Graph) -> set:
    """All bridges of g (edge keys), by iterative DFS lowpoints."""
    disc = {}
    low = {}
    bridges = set()
    counter = [0]
    for root in g.vertices:
        if root in disc:
            continue
        stack = [(root, None, iter(g.neighbors(root)))]
        disc[root] = low[root] = counter[0]
        counter[0] += 1
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if w not in disc:
                    disc[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append((w, v, iter(g.neighbors(w))))
                    advanced = True
                    break
                elif w != parent:
                    low[v] = min(low[v], disc[w])
            if not advanced:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] > disc[u]:
                        bridges.add(edge_key(u, v))
    return bridges


def graph_from_edge_list(text: str) -> Graph:
    """Parse a whitespace-separated edge list ('#' starts a comment).

    Vertices appear in first-appearance order.  Self-loops and duplicate
    edges are rejected with the offending line number.
    """
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'u v', got {raw!r}")
        u, v = parts
        if u == v:
            raise InputError(f"line {lineno}: self-loop at {u!r}")
        k = edge_key(u, v)
        if k in seen:
            raise InputError(f"line {lineno}: duplicate edge {u} {v}")
        seen.add(k)
        edges.append((u, v))
    return Graph.from_edges(edges)


@dataclass(frozen=True)
class Hypergraph:
    """Vertex universe plus duplicate-free list of blocks (size >= 2).

    Each block's polygon is labelled `block_label(block)`, so no two
    blocks may share that label (blocks {"p,q", "r"} and {"p", "q,r"} do).
    """

    vertices: tuple
    blocks: tuple  # of frozensets

    def __post_init__(self):
        vs = set(self.vertices)
        seen = {}  # block label -> block
        for b in self.blocks:
            if len(b) < 2:
                raise InputError(f"block {sorted(b)} smaller than 2")
            if not b <= vs:
                raise InputError(f"block {sorted(b)} uses unknown vertex")
            label = block_label(b)
            if label in seen:
                raise InputError(
                    f"duplicate block {sorted(b)}" if seen[label] == b else
                    f"blocks {sorted(seen[label])} and {sorted(b)} share the label {label!r}")
            seen[label] = b

    @staticmethod
    def from_blocks(blocks: Iterable, vertices: Optional[Sequence[str]] = None) -> "Hypergraph":
        order: list = list(vertices) if vertices is not None else []
        seen = set(order)
        bl = []
        for b in blocks:
            b = frozenset(str(x) for x in b)
            for w in sorted(b):
                if w not in seen:
                    seen.add(w)
                    order.append(w)
            bl.append(b)
        return Hypergraph(vertices=tuple(order), blocks=tuple(bl))

    def blocks_with(self, v: str) -> list:
        return [b for b in self.blocks if v in b]

    def degree(self, v: str) -> int:
        return len(self.blocks_with(v))

    @property
    def n(self) -> int:
        return len(self.vertices)


def blocks_from_text(text: str) -> Hypergraph:
    """Parse a block list, one whitespace-separated block per line."""
    blocks = []
    order: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        labels = line.split()
        if len(set(labels)) != len(labels):
            raise InputError(f"line {lineno}: repeated vertex in block")
        blocks.append(labels)
        for w in labels:
            if w not in order:
                order.append(w)
    return Hypergraph.from_blocks(blocks, vertices=order)


def block_label(block: frozenset) -> str:
    """The label of a block's polygon: its sorted vertex labels, joined by
    commas.  Nothing parses it; readers look blocks up by it."""
    return ",".join(sorted(block))


@dataclass(frozen=True)
class SteinerDescriptor:
    t: int
    k: int
    n: int

    def __post_init__(self):
        if not (0 < self.t < self.k < self.n):
            raise InputError(f"need 0 < t < k < n, got {self}")


def validate_steiner(h: Hypergraph, d: SteinerDescriptor):
    """Check that h is an S(t,k,n): every t-subset in exactly one block.

    Returns (True, None) or (False, witness) where the witness is a
    t-subset covered zero or several times (or a block of the wrong size,
    reported as that block).
    """
    if len(h.vertices) != d.n:
        return False, tuple(h.vertices[: d.t])
    for b in h.blocks:
        if len(b) != d.k:
            return False, tuple(sorted(b))
    counts = {}
    for b in h.blocks:
        for sub in combinations(sorted(b), d.t):
            counts[sub] = counts.get(sub, 0) + 1
            if counts[sub] > 1:
                return False, sub
    for sub in combinations(sorted(h.vertices), d.t):
        if sub not in counts:
            return False, sub
    return True, None


# ---------------------------------------------------------------------------
# Built-in systems, transcribed from the standard block tables
# ---------------------------------------------------------------------------

_S237 = """
1 2 3
1 4 7
1 5 6
2 4 6
2 5 7
3 4 5
3 6 7
"""

_S239 = """
1 2 3
4 5 6
7 8 9
1 4 7
2 5 8
3 6 9
1 5 9
2 6 7
3 4 8
1 6 8
2 4 9
3 5 7
"""

_S348 = """
1 2 4 8
2 3 5 8
3 4 6 8
4 5 7 8
1 5 6 8
2 6 7 8
1 3 7 8
3 5 6 7
1 4 6 7
1 2 5 7
1 2 3 6
2 3 4 7
1 3 4 5
2 4 5 6
"""

_S3410 = """
1 2 4 5
2 3 5 6
3 4 6 7
4 5 7 8
5 6 8 9
6 7 9 0
1 7 8 0
1 2 8 9
2 3 9 0
1 3 4 0
1 2 3 7
2 3 4 8
3 4 5 9
4 5 6 0
1 5 6 7
2 6 7 8
3 7 8 9
4 8 9 0
1 5 9 0
1 2 6 0
1 3 5 8
2 4 6 9
3 5 7 0
1 4 6 8
2 5 7 9
3 6 8 0
1 4 7 9
2 5 8 0
1 3 6 9
2 4 7 0
"""

_PG3 = """
A B C D
A 1 2 3
A 4 5 6
A 7 8 9
B 1 4 7
B 2 5 8
B 3 6 9
C 1 5 9
C 2 6 7
C 3 4 8
D 1 6 8
D 2 4 9
D 3 5 7
"""

BUILTIN_SYSTEMS = {
    "S237": (_S237, SteinerDescriptor(2, 3, 7)),
    "S239": (_S239, SteinerDescriptor(2, 3, 9)),
    "S348": (_S348, SteinerDescriptor(3, 4, 8)),
    "S3410": (_S3410, SteinerDescriptor(3, 4, 10)),
    "PG3": (_PG3, SteinerDescriptor(2, 4, 13)),
}


def builtin_system(name: str) -> Hypergraph:
    """Return a built-in block system: S237, S239, S348, S3410 or PG3."""
    try:
        text, _ = BUILTIN_SYSTEMS[name]
    except KeyError:
        raise InputError(f"unknown system {name!r}; have {sorted(BUILTIN_SYSTEMS)}")
    return blocks_from_text(text)


def builtin_descriptor(name: str) -> SteinerDescriptor:
    return BUILTIN_SYSTEMS[name][1]


# ---------------------------------------------------------------------------
# One-plane embeddings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OnePlaneEmbedding:
    """Rotation system plus crossing pairs describing a 1-plane drawing.

    `rotation` maps each vertex to the cyclic (counterclockwise) order of
    its incident edges, each edge given as an edge key.  `crossings` is a
    set of unordered pairs of edge keys; every edge is crossed at most
    once, and crossing edges must not share an endpoint.
    """

    graph: Graph
    rotation: dict
    crossings: frozenset
    outer_face: Optional[frozenset] = None  # edge-key set identifying a face

    def __post_init__(self):
        counts = {e: 0 for e in self.graph.edges}
        for v in self.graph.vertices:
            if v not in self.rotation:
                raise InputError(f"no rotation for vertex {v!r}")
            for e in self.rotation[v]:
                if v not in e:
                    raise InputError(f"rotation at {v!r} lists non-incident edge {set(e)}")
                counts[e] = counts.get(e, 0) + 1
        for e, c in counts.items():
            if c != 2:
                raise InputError(f"edge {set(e)} appears {c} times across rotations")
        used = set()
        for pair in self.crossings:
            e, f = tuple(pair)
            if e & f:
                raise InputError(f"crossing edges {set(e)} and {set(f)} are adjacent")
            for g in (e, f):
                if g in used:
                    raise InputError(f"edge {set(g)} crossed more than once")
                used.add(g)
