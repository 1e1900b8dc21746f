"""Plane multigraphs as rotation systems, with face tracing and triangulation.

A dart is (edge_id, end) with end 0 leaving endpoints[edge_id][0] and end 1
leaving endpoints[edge_id][1].  Rotations list the darts leaving each vertex
in counterclockwise order.  Faces are traced with the interior on the left:
the dart after d in its face is the rotation predecessor of rev(d) at the
head of d.  An embedding is planar (genus zero) iff V - E + F = 1 + C.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


class EmbeddingError(ValueError):
    pass


@dataclass
class PlaneGraph:
    endpoints: dict = field(default_factory=dict)  # eid -> (u, v)
    rotation: dict = field(default_factory=dict)  # vertex -> [darts]
    _next_eid: int = 0

    # -- construction -------------------------------------------------

    def add_vertex(self, v):
        if v in self.rotation:
            raise EmbeddingError(f"vertex {v!r} exists")
        self.rotation[v] = []

    def new_edge_id(self):
        while f"e{self._next_eid}" in self.endpoints:
            self._next_eid += 1
        eid = f"e{self._next_eid}"
        self._next_eid += 1
        return eid

    def record_edge(self, u, v, eid=None):
        """Record edge u-v without placing its darts in any rotation; the
        caller sets the rotations of u and v by hand."""
        if eid is None:
            eid = self.new_edge_id()
        if eid in self.endpoints:
            raise EmbeddingError(f"edge {eid!r} exists")
        self.endpoints[eid] = (u, v)
        return eid

    def add_edge(self, u, v, eid=None, pos_u: Optional[int] = None,
                 pos_v: Optional[int] = None):
        """Insert edge u-v; pos_* are rotation insertion indices (append if None)."""
        eid = self.record_edge(u, v, eid)
        du, dv = (eid, 0), (eid, 1)
        ru, rv = self.rotation[u], self.rotation[v]
        ru.insert(len(ru) if pos_u is None else pos_u, du)
        rv.insert(len(rv) if pos_v is None else pos_v, dv)
        return eid

    # -- dart algebra ---------------------------------------------------

    def dart(self, eid, tail):
        """The dart of edge eid leaving its endpoint tail."""
        return (eid, 0 if self.endpoints[eid][0] == tail else 1)

    def tail(self, dart):
        eid, end = dart
        return self.endpoints[eid][end]

    def head(self, dart):
        eid, end = dart
        return self.endpoints[eid][1 - end]

    @staticmethod
    def rev(dart):
        return (dart[0], 1 - dart[1])

    def next_in_face(self, dart):
        v = self.head(dart)
        rot = self.rotation[v]
        i = rot.index(self.rev(dart))
        return rot[(i - 1) % len(rot)]

    # -- queries ----------------------------------------------------------

    def vertices(self):
        return list(self.rotation)

    def degree(self, v):
        return len(self.rotation[v])

    def neighbors(self, v):
        return [self.head(d) for d in self.rotation[v]]

    def adjacent(self, u, v) -> bool:
        """Whether an edge u-v has a dart in u's rotation; O(deg u)."""
        return any(self.head(d) == v for d in self.rotation[u])

    def edge_between(self, u, v):
        for eid, (a, b) in self.endpoints.items():
            if {a, b} == {u, v}:
                return eid
        return None

    def has_parallel_edges(self) -> bool:
        seen = set()
        for a, b in self.endpoints.values():
            k = frozenset((a, b))
            if len(k) != 2 or k in seen:
                return True
            seen.add(k)
        return False

    def faces(self):
        """All face walks, each a list of darts."""
        darts = [(eid, end) for eid in self.endpoints for end in (0, 1)]
        unused = set(darts)
        out = []
        for d0 in darts:
            if d0 not in unused:
                continue
            walk = []
            d = d0
            while True:
                walk.append(d)
                unused.discard(d)
                d = self.next_in_face(d)
                if d == d0:
                    break
                if len(walk) > 4 * len(darts):
                    raise EmbeddingError("face tracing does not close")
            out.append(walk)
        return out

    def connected_components(self):
        comps = []
        seen = set()
        for s in self.rotation:
            if s in seen:
                continue
            comp = {s}
            stack = [s]
            while stack:
                v = stack.pop()
                for w in self.neighbors(v):
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            comps.append(comp)
        return comps

    def check_planar(self):
        """Raise unless the rotation system is a genus-zero embedding."""
        v = len(self.rotation)
        e = len(self.endpoints)
        f = len(self.faces())
        c = len(self.connected_components())
        if v - e + f != 1 + c:
            raise EmbeddingError(
                f"embedding has positive genus: V={v} E={e} F={f} C={c}")

    def copy(self) -> "PlaneGraph":
        pg = PlaneGraph()
        pg.endpoints = dict(self.endpoints)
        pg.rotation = {v: list(r) for v, r in self.rotation.items()}
        pg._next_eid = self._next_eid
        return pg


def add_chord(pg: PlaneGraph, walk, i, j):
    """Add a chord between tail(walk[i]) and tail(walk[j]) inside the face.

    Returns (eid, walk_a, walk_b): the two sub-face walks after the split.
    """
    m = len(walk)
    u = pg.tail(walk[i])
    v = pg.tail(walk[j])
    ru = pg.rotation[u]
    rv = pg.rotation[v]
    pos_u = ru.index(pg.rev(walk[(i - 1) % m]))
    pos_v = rv.index(walk[j]) + 1
    eid = pg.add_edge(u, v, pos_u=pos_u, pos_v=pos_v)
    c, crev = (eid, 0), (eid, 1)
    walk_a = [c] + walk[j:] + walk[:i]
    walk_b = [crev] + walk[i:j]
    return eid, walk_a, walk_b


def stellate(pg: PlaneGraph, walk, new_vertex):
    """Subdivide a face with repeated-vertex-free walk by a hub vertex.

    Returns the list of new edge ids; every resulting sub-face is a
    triangle.
    """
    m = len(walk)
    tails = [pg.tail(d) for d in walk]
    if len(set(tails)) != m:
        raise EmbeddingError("stellation needs a simple face walk")
    pg.add_vertex(new_vertex)
    eids = []
    for k in range(m):
        u = tails[k]
        pos_u = pg.rotation[u].index(pg.rev(walk[(k - 1) % m]))
        eid = pg.add_edge(new_vertex, u, pos_v=pos_u)
        eids.append(eid)
    return eids


def triangulate_face(pg: PlaneGraph, walk, counter):
    """Triangulate one face by non-duplicating chords, stellating if stuck."""
    stack = [walk]
    while stack:
        w = stack.pop()
        if len(w) <= 3:
            continue
        m = len(w)
        tails = [pg.tail(d) for d in w]
        placed = False
        for i in range(m):
            for off in range(2, m - 1):
                j = (i + off) % m
                a, b = tails[i], tails[j]
                if a == b:
                    continue
                if pg.adjacent(a, b):
                    continue
                lo, hi = min(i, j), max(i, j)
                _, wa, wb = add_chord(pg, w, lo, hi)
                stack.append(wa)
                stack.append(wb)
                placed = True
                break
            if placed:
                break
        if not placed:
            stellate(pg, w, f"steiner{counter[0]}")
            counter[0] += 1


def triangulate(pg: PlaneGraph, outer_walk):
    """Fully triangulate a simple connected plane graph.

    Returns (graph copy, outer triangle vertices).  The outer triangle is
    one of the faces created inside the given outer walk (the walk itself
    when it is already a triangle).
    """
    work = pg.copy()
    counter = [0]

    faces = work.faces()
    outer_set = [tuple(d) for d in outer_walk]
    outer_idx = None
    for k, f in enumerate(faces):
        if len(f) == len(outer_walk) and set(map(tuple, f)) == set(outer_set):
            outer_idx = k
            break
    if outer_idx is None:
        raise EmbeddingError("outer walk is not a face")

    if len(outer_walk) == 3:
        outer_triangle = [work.tail(d) for d in outer_walk]
    else:
        w = list(outer_walk)
        # chord off triangles until the face is a triangle; the last piece
        # containing the original darts becomes the outer triangle
        while len(w) > 3:
            m = len(w)
            tails = [work.tail(d) for d in w]
            placed = False
            for i in range(m):
                j = (i + 2) % m
                a, b = tails[i], tails[j]
                if a == b or work.adjacent(a, b):
                    continue
                lo, hi = min(i, j), max(i, j)
                if (hi - lo) != 2:
                    continue
                _, wa, wb = add_chord(work, w, lo, hi)
                w = wa if len(wa) >= len(wb) else wb
                placed = True
                break
            if not placed:
                s = f"steiner{counter[0]}"
                counter[0] += 1
                stellate(work, w, s)
                # stellation triangulated the face; outer triangle = first one
                rot = work.rotation[s]
                d0 = rot[0]
                w = [d0, work.next_in_face(d0), work.next_in_face(work.next_in_face(d0))]
            if len(w) == 3:
                break
        outer_triangle = [work.tail(d) for d in w]

    for k, f in enumerate(faces):
        if k == outer_idx:
            continue
        triangulate_face(work, f, counter)
    # the outer face region (now partially chorded) may still have big faces
    remaining = [f for f in work.faces() if len(f) > 3]
    for f in remaining:
        triangulate_face(work, f, counter)

    work.check_planar()
    return work, outer_triangle
