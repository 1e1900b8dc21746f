"""Plane multigraphs as rotation systems, with face tracing and triangulation.

A dart is (edge_id, end) with end 0 leaving endpoints[edge_id][0] and end 1
leaving endpoints[edge_id][1].  Rotations list the darts leaving each vertex
in counterclockwise order.  Faces are traced with the interior on the left:
the dart after d in its face is the rotation predecessor of rev(d) at the
head of d.  An embedding is planar (genus zero) iff every component with an
edge has V - E + F = 2 and every isolated vertex 1, that is iff
V - E + F = 2C - (isolated vertices) over the whole graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .core import components


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

    def has_parallel_edges(self) -> bool:
        seen = set()
        for a, b in self.endpoints.values():
            k = frozenset((a, b))
            if len(k) != 2 or k in seen:
                return True
            seen.add(k)
        return False

    def face(self, dart):
        """The walk of the face left of `dart`, starting there.  A face has
        at most 2E darts, so a walk that runs longer never closes: the
        rotations are not a permutation of the darts."""
        walk = [dart]
        d = self.next_in_face(dart)
        while d != dart:
            walk.append(d)
            if len(walk) > 2 * len(self.endpoints):
                raise EmbeddingError("face tracing does not close")
            d = self.next_in_face(d)
        return walk

    def faces(self):
        """All face walks, each starting at its first dart in edge order."""
        out = []
        traced = set()
        for eid in self.endpoints:
            for d in ((eid, 0), (eid, 1)):
                if d not in traced:
                    out.append(self.face(d))
                    traced.update(out[-1])
        return out

    def check_planar(self) -> list:
        """The face walks (`faces()`); raise unless the rotation system is
        a genus-zero embedding.  The count check: faces are traced per
        component, so each component with an edge has V - E + F = 2 and an
        isolated vertex 1, and genus zero is V - E + F = 2C - isolated."""
        faces = self.faces()
        v = len(self.rotation)
        e = len(self.endpoints)
        f = len(faces)
        c = len(components(self.rotation, self.neighbors))
        isolated = sum(1 for r in self.rotation.values() if not r)
        if v - e + f != 2 * c - isolated:
            raise EmbeddingError(
                f"embedding has positive genus: V={v} E={e} F={f} C={c}")
        return faces

    def copy(self) -> "PlaneGraph":
        pg = PlaneGraph()
        pg.endpoints = dict(self.endpoints)
        pg.rotation = {v: list(r) for v, r in self.rotation.items()}
        pg._next_eid = self._next_eid
        return pg


def _chord(pg: PlaneGraph, before, after):
    """Add a chord from head(before) to tail(after) inside the face whose
    walk runs from dart `before` on to dart `after`; return its edge id."""
    u, v = pg.head(before), pg.tail(after)
    pos_u = pg.rotation[u].index(pg.rev(before))
    pos_v = pg.rotation[v].index(after) + 1
    return pg.add_edge(u, v, pos_u=pos_u, pos_v=pos_v)


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


def triangulate(pg: PlaneGraph, outer_walk, faces):
    """Fully triangulate a simple connected plane graph.

    `faces` are pg's face walks (`pg.check_planar()`).  Returns (graph copy,
    outer triangle vertices).  One routine, `_clip_ears`, chords every face:
    first the given outer walk, whose last piece is the outer triangle (the
    walk itself when it is already a triangle), then every other face of
    more than 3 darts in the order of `faces`.  No face is traced again:
    every chord and stellation splits a walk in hand and leaves triangles,
    and the count check E = 3V - 6 confirms it, since on a connected
    genus-zero embedding with no face shorter than 3 it holds exactly when
    every face is a triangle.
    """
    outer = set(outer_walk)
    if not any(len(f) == len(outer_walk) and set(f) == outer for f in faces):
        raise EmbeddingError("outer walk is not a face")
    work, counter = pg.copy(), [0]
    outer_triangle = _clip_ears(work, outer_walk, counter)
    for f in faces:
        if len(f) > 3 and set(f) != outer:  # a triangle needs no chord
            _clip_ears(work, f, counter)

    v, e = len(work.rotation), len(work.endpoints)
    if e != 3 * v - 6:
        raise EmbeddingError(f"triangulation left a face of more than 3 "
                             f"darts: V={v} E={e}")
    return work, outer_triangle


def _clip_ears(pg: PlaneGraph, walk, counter):
    """Chord ears off the face `walk`, outer or inner, until it is a
    triangle, the piece that keeps the rest of the walk, and return its
    vertices.

    An ear is the two darts from position i; it is clipped unless the
    tails at i and i + 2 are one vertex or already adjacent.  A scan looks
    at the ears from `start` (the walk's first dart, then the last chord)
    on, all but the two that wrap past the start, and clips the first it
    can; when it can clip none, the face is stellated and the triangle is
    the hub's first.  A chord changes only its own ear and the one before
    it, and it only adds adjacency, so an ear skipped earlier stays
    skipped: `todo` holds the ears changed since they were looked at, in
    the order the scan meets them, and the scan passes every other ear
    unread.  Positions index the original walk, whose cyclic order the
    pieces keep.
    """
    size = m = len(walk)
    dart = list(walk)
    tail = [pg.tail(d) for d in walk]
    nxt = [(k + 1) % m for k in range(m)]
    prv = [(k - 1) % m for k in range(m)]
    adj = {v: set(pg.neighbors(v)) for v in tail}
    todo = deque(range(m))
    pending = [True] * m  # on `todo`; off once looked at or cut away
    start = at = 0  # the scan's start and the first ear it has not passed
    while m > 3:
        end = prv[prv[start]]  # the first ear the scan does not reach
        while todo and not pending[todo[0]]:
            todo.popleft()
        if not todo or (end - at) % size <= (todo[0] - at) % size:
            hub = f"steiner{counter[0]}"
            counter[0] += 1
            k, rest = start, []
            for _ in range(m):
                rest.append(dart[k])
                k = nxt[k]
            stellate(pg, rest, hub)
            return [pg.tail(d) for d in pg.face(pg.rotation[hub][0])]
        i = todo.popleft()
        pending[i] = False
        j = nxt[nxt[i]]
        a, b = tail[i], tail[j]
        if a == b or b in adj[a]:
            at = nxt[i]
            continue
        eid = _chord(pg, dart[prv[i]], dart[j])
        adj[a].add(b)
        adj[b].add(a)
        pending[nxt[i]] = False
        dart[i], nxt[i], prv[j] = (eid, 0), j, i
        m -= 1
        start = at = i
        todo.appendleft(i)
        pending[i] = True
        if not pending[prv[i]]:
            pending[prv[i]] = True
            todo.append(prv[i])
    return [tail[start], tail[nxt[start]], tail[nxt[nxt[start]]]]
