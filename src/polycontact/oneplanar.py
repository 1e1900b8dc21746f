"""1-plane cubic graphs as touching triangles on a thin grid.

Pipeline: planarize the given rotation-system-plus-crossings drawing (the
interleaving of the two edges at each crossing is recovered by trying both
and keeping the genus-zero one), build the modified medial graph in which
each crossing pair keeps a single merged vertex, draw it straight-line on
an integer grid with the Schnyder algorithm, and read each graph vertex's
triangle off the positions of its three edges' medial nodes.

Every crossing then gets resolved in z: one of its two edges (the
lexicographically smaller, or the one forced by an outer-face crossing) is
selected and its two triangles move their crossing corner one unit up --
or down to -1 in the outer-face ("B-configuration") case, where the
triangle of the outer vertex covers the entire drawing.  All other corners
stay in the plane, so the grid has depth three.

Vertex labels stay opaque: the vertices and edges this module adds to the
plane graphs it draws are named by tuples (`planarize`,
`ModifiedMedialGraph`), which no string label can equal, and no label is
parsed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .core import InputError, OnePlaneEmbedding, Record
from .geom import Polygon3
from .planar import EmbeddingError, PlaneGraph
from .scene import ConstructionError, Scene, graph_scene
from .schnyder import schnyder_draw
from .verify import certify


def planarize(emb: OnePlaneEmbedding) -> tuple:
    """Replace crossings by degree-4 dummies; returns (PlaneGraph, crossings).

    `crossings` lists the crossing pairs, crossing k's dummy being vertex
    ("x", k).  An uncrossed edge u-v (u < v) keeps the id (u, v); a crossed
    one becomes the half-edges (u, v, 0) from u and (u, v, 1) into v.  The
    interleaving at each dummy is chosen so the whole rotation system has
    genus zero; a drawing description admitting no such choice is rejected.
    """
    g = emb.graph
    crossings = sorted(emb.crossings, key=lambda p: sorted(map(sorted, p)))
    cross_of = {e: k for k, pair in enumerate(crossings) for e in pair}

    def build(choices):
        pg = PlaneGraph()
        for v in g.vertices:
            pg.add_vertex(v)
        for k in range(len(crossings)):
            pg.add_vertex(("x", k))
        darts = {}  # (vertex, edge key) -> dart
        for e in sorted(g.edges, key=sorted):
            u, v = sorted(e)
            if e in cross_of:
                x = ("x", cross_of[e])
                darts[(u, e)] = (pg.record_edge(u, x, eid=(u, v, 0)), 0)
                darts[(v, e)] = (pg.record_edge(x, v, eid=(u, v, 1)), 1)
            else:
                eid = pg.record_edge(u, v, eid=(u, v))
                darts[(u, e)] = (eid, 0)
                darts[(v, e)] = (eid, 1)
        for v in g.vertices:
            pg.rotation[v] = [darts[(v, e)] for e in emb.rotation[v]]
        for k, pair in enumerate(crossings):
            e, f = sorted(pair, key=sorted)
            u, v = sorted(e)
            w, x = sorted(f)
            eu, ev = ((u, v, 0), 1), ((u, v, 1), 0)
            fw, fx = ((w, x, 0), 1), ((w, x, 1), 0)
            if choices[k] == 0:
                pg.rotation[("x", k)] = [eu, fw, ev, fx]
            else:
                pg.rotation[("x", k)] = [eu, fx, ev, fw]
        return pg

    for choices in product((0, 1), repeat=len(crossings)):
        pg = build(choices)
        try:
            pg.check_planar()
        except EmbeddingError:
            continue
        return pg, crossings
    raise InputError("rotation system plus crossings is not a 1-plane drawing")


class ModifiedMedialGraph(Record):
    """Medial of a planarized 1-plane graph with merged crossing vertices.

    Medial node ("m", u, v) stands for the uncrossed edge u-v (u < v) and
    ("c", k) for both edges of crossing k; corner edge ("k", v, i) joins
    the nodes of the i-th and next edge in v's rotation.
    """

    _fields = ("plane", "node_of_edge", "crossing_pairs", "corner_edges", "vertex_face",
               "faces")

    def __init__(self, plane: PlaneGraph, node_of_edge: dict, crossing_pairs: list,
                 corner_edges: dict, vertex_face: dict, faces: list):
        self.plane = plane
        self.node_of_edge = node_of_edge      # edge key -> medial node
        self.crossing_pairs = crossing_pairs  # index -> frozenset of the two crossing edge keys
        self.corner_edges = corner_edges      # (vertex, rotation index) -> medial edge id
        self.vertex_face = vertex_face        # original vertex -> face (list of darts)
        self.faces = faces


def build_modified_medial(emb: OnePlaneEmbedding) -> ModifiedMedialGraph:
    """Medial graph with one vertex per crossing pair, as a plane graph."""
    g = emb.graph
    if not g.is_regular(3):
        raise ConstructionError("graph is not cubic")
    if not g.is_connected():
        raise ConstructionError("graph is not connected")
    pg, crossings = planarize(emb)

    node_of = {e: ("m", *sorted(e)) for e in g.edges}
    for k, pair in enumerate(crossings):
        for e in pair:
            node_of[e] = ("c", k)

    med = PlaneGraph()
    for node in sorted(set(node_of.values())):
        med.add_vertex(node)

    # one medial edge per corner of the planarized graph at an original
    # vertex; corner (v, i) joins the medial nodes of rotation[v][i] and
    # rotation[v][i+1], whose edge ids start with the edge's endpoints
    def parent_edge(dart):
        return frozenset(dart[0][:2])

    corner_edges = {}
    for v in g.vertices:
        rot = pg.rotation[v]
        for i in range(len(rot)):
            a = node_of[parent_edge(rot[i])]
            b = node_of[parent_edge(rot[(i + 1) % len(rot)])]
            if a == b:
                raise ConstructionError("medial loop; unsupported configuration")
            corner_edges[(v, i)] = med.record_edge(a, b, eid=("k", v, i))

    # rotations: plain medial node m_e, e = (u, v):
    # [toward succ_u(e), toward pred_u(e), toward succ_v(e), toward pred_v(e)]
    def side_darts(v, e_dart, node):
        """(succ corner, pred corner) medial darts for edge arriving at v."""
        rot = pg.rotation[v]
        i = rot.index(e_dart)
        succ = med.dart(corner_edges[(v, i)], node)  # corner (e, next)
        pred = med.dart(corner_edges[(v, (i - 1) % len(rot))], node)  # corner (prev, e)
        return [succ, pred]

    crossed = set().union(*crossings)
    for e in sorted(g.edges - crossed, key=sorted):
        node = node_of[e]
        u, v = sorted(e)
        med.rotation[node] = (side_darts(u, ((u, v), 0), node)
                              + side_darts(v, ((u, v), 1), node))

    for k in range(len(crossings)):
        node = ("c", k)
        rot = []
        for d in pg.rotation[("x", k)]:
            # pg.rev(d) is the dart leaving the far end toward the dummy
            rot += side_darts(pg.head(d), pg.rev(d), node)
        med.rotation[node] = rot

    faces = med.check_planar()
    expected = len(g.edges) - len(crossings)
    if len(med.rotation) != expected:
        raise ConstructionError("medial vertex count mismatch")  # pragma: no cover

    vertex_face = {}
    for v in g.vertices:
        ids = {corner_edges[(v, i)] for i in range(3)}
        for f in faces:
            if {d[0] for d in f} == ids and len(f) == 3:
                vertex_face[v] = f
                break
        else:
            raise ConstructionError(f"no vertex face for {v!r}")
    return ModifiedMedialGraph(plane=med, node_of_edge=node_of,
                               crossing_pairs=crossings,
                               corner_edges=corner_edges,
                               vertex_face=vertex_face, faces=faces)


def _outer_medial_faces(emb: OnePlaneEmbedding, med: ModifiedMedialGraph):
    """The medial face-faces to draw outside, in the order to try them.

    With the drawing's `outer_face`, its face-face alone.  Otherwise every
    face-face, the longest first: the scene drawn around one face can fail
    verification where the scene around another certifies.
    """
    vertex_faces = {id(f) for f in med.vertex_face.values()}
    candidates = [f for f in med.faces if id(f) not in vertex_faces]
    if emb.outer_face is None:
        return sorted(candidates, key=lambda f: (len(f), sorted(d[0] for d in f)),
                      reverse=True)
    want = frozenset(emb.outer_face)
    edges_at = {}  # medial node -> the graph edges it stands for
    for e, node in med.node_of_edge.items():
        edges_at.setdefault(node, set()).add(e)
    # find medial face-faces whose nodes stand for exactly those edges
    matches = [f for f in candidates
               if set().union(*(edges_at[med.plane.tail(d)] for d in f)) == want]
    if not matches:
        raise InputError("outer_face does not match any face")
    if len(matches) > 1:
        raise InputError("outer_face is ambiguous; give more edges")
    return matches


def _outer_and_dip(med: ModifiedMedialGraph, target):
    """The medial face to draw outside for face-face `target`, and the edge
    to dip (or None).

    Normally this is `target` itself.  When it degenerates to a bigon (a
    crossing on the outer face boxed in by an edge between two of its
    endpoints), the vertex face of the smaller boxing endpoint becomes the
    outer face and its crossed edge will dip to z = -1 rather than rise.
    """
    if len(target) >= 3:
        return target, None

    # B-configuration: bigon between a crossing node and a plain medial
    # node; both copies are corners ("k", v, i) at the two boxing endpoints
    a = min(d[0][1] for d in target)
    crossing_node = None
    for d in target:
        for node in (med.plane.tail(d), med.plane.head(d)):
            if node[0] == "c":
                crossing_node = node
    if crossing_node is None:
        raise ConstructionError("outer bigon without a crossing")
    e, f = med.crossing_pairs[crossing_node[1]]
    return med.vertex_face[a], e if a in e else f


def represent_oneplanar_cubic(emb: OnePlaneEmbedding) -> Scene:
    """Touching-triangle scene for a 1-plane cubic graph, depth-3 grid.

    Without an `outer_face`, the scene drawn around each face-face in
    turn, longest first, goes to `certify` until one passes."""
    med = build_modified_medial(emb)
    return certify(_drawn_scene(emb, med, *_outer_and_dip(med, f))
                   for f in _outer_medial_faces(emb, med))


def _drawn_scene(emb: OnePlaneEmbedding, med: ModifiedMedialGraph, outer, dip) -> Scene:
    """The scene drawn with medial face `outer` outside and `dip` dipped."""
    g = emb.graph
    # subdivide parallel medial edges so the drawing input is simple,
    # keeping any copy that lies on the chosen outer walk
    work = med.plane.copy()
    outer_ids = {d[0] for d in outer}
    seen_pairs = {}
    for eid in sorted(work.endpoints):
        a, b = work.endpoints[eid]
        key = frozenset((a, b))
        seen_pairs.setdefault(key, []).append(eid)
    subdivided = 0
    for key, eids in sorted(seen_pairs.items(), key=lambda kv: sorted(kv[1])):
        if len(eids) < 2:
            continue
        keep = next((e for e in eids if e in outer_ids), eids[0])
        for eid in eids:
            if eid == keep:
                continue
            _subdivide(work, eid, ("s", subdivided))
            subdivided += 1
    # each parallel class keeps its copy on the outer walk, so some outer
    # dart survives the subdivisions and the face is traced from it
    outer_walk = work.face(next(d for d in outer if d[0] in work.endpoints))

    pos = schnyder_draw(work, outer_walk)

    # each crossing moves one edge's corner off the plane: the dipped edge
    # down, else the smaller of its two edges up
    rise = {}
    for pair in med.crossing_pairs:
        if dip in pair:
            rise[dip] = -1
        else:
            rise[min(pair, key=sorted)] = 1

    def point_of(e):
        x, y = pos[med.node_of_edge[e]]
        return (Fraction(x), Fraction(y), Fraction(rise.get(e, 0)))

    polygons = {}
    contacts = {}
    for v in g.vertices:
        corners = tuple(point_of(e) for e in emb.rotation[v])
        polygons[v] = Polygon3(corners=corners)
    for e in g.edges:
        contacts[e] = point_of(e)

    n = g.n
    meta = {"construction": "oneplanar-cubic", "arithmetic": "exact",
            "crossings": len(med.crossing_pairs),
            "claimed_grid": {"x": 3 * n // 2 - 1, "y": 3 * n // 2 - 1, "z": 3}}
    return graph_scene(g, polygons, contacts, meta)


def _subdivide(pg: PlaneGraph, eid, new_vertex):
    u, v = pg.endpoints[eid]
    pg.add_vertex(new_vertex)
    iu = pg.rotation[u].index((eid, 0))
    iv = pg.rotation[v].index((eid, 1))
    del pg.endpoints[eid]
    a = pg.record_edge(u, new_vertex, eid=(eid, "a"))
    b = pg.record_edge(new_vertex, v, eid=(eid, "b"))
    pg.rotation[new_vertex] = [(a, 1), (b, 0)]
    pg.rotation[u][iu] = (a, 0)
    pg.rotation[v][iv] = (b, 1)
