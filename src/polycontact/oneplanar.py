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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .core import InputError, OnePlaneEmbedding, edge_key
from .geom import Polygon3
from .planar import EmbeddingError, PlaneGraph
from .scene import ConstructionError, Scene, graph_scene
from .schnyder import schnyder_draw


def _edge_name(e: frozenset) -> str:
    return "|".join(sorted(e))


def planarize(emb: OnePlaneEmbedding) -> tuple:
    """Replace crossings by degree-4 dummies; returns (PlaneGraph, info).

    info maps crossing index -> (edge e, edge f) and carries the half-edge
    naming.  The interleaving at each dummy is chosen so the whole rotation
    system has genus zero; a drawing description admitting no such choice
    is rejected.
    """
    g = emb.graph
    crossings = sorted(emb.crossings, key=lambda p: sorted(map(sorted, p)))
    cross_of = {}
    for k, pair in enumerate(crossings):
        e, f = sorted(pair, key=lambda x: sorted(x))
        cross_of[e] = (k, 0)
        cross_of[f] = (k, 1)

    def build(choices):
        pg = PlaneGraph()
        for v in g.vertices:
            pg.add_vertex(v)
        for k in range(len(crossings)):
            pg.add_vertex(f"x{k}")
        darts = {}  # (vertex, edge key) -> dart
        for e in sorted(g.edges, key=lambda x: sorted(x)):
            u, v = sorted(e)
            name = _edge_name(e)
            if e in cross_of:
                k, _ = cross_of[e]
                e1 = pg.record_edge(u, f"x{k}", eid=f"{name}#0")
                e2 = pg.record_edge(f"x{k}", v, eid=f"{name}#1")
                darts[(u, e)] = (e1, 0)
                darts[(v, e)] = (e2, 1)
            else:
                eid = pg.record_edge(u, v, eid=name)
                darts[(u, e)] = (eid, 0)
                darts[(v, e)] = (eid, 1)
        for v in g.vertices:
            pg.rotation[v] = [darts[(v, e)] for e in emb.rotation[v]]
        for k, pair in enumerate(crossings):
            e, f = sorted(pair, key=lambda x: sorted(x))
            u, v = sorted(e)
            w, x = sorted(f)
            eu = (f"{_edge_name(e)}#0", 1)
            ev = (f"{_edge_name(e)}#1", 0)
            fw = (f"{_edge_name(f)}#0", 1)
            fx = (f"{_edge_name(f)}#1", 0)
            if choices[k] == 0:
                pg.rotation[f"x{k}"] = [eu, fw, ev, fx]
            else:
                pg.rotation[f"x{k}"] = [eu, fx, ev, fw]
        return pg

    for choices in product((0, 1), repeat=len(crossings)):
        pg = build(choices)
        try:
            pg.check_planar()
        except EmbeddingError:
            continue
        return pg, crossings
    raise InputError("rotation system plus crossings is not a 1-plane drawing")


@dataclass
class ModifiedMedialGraph:
    """Medial of a planarized 1-plane graph with merged crossing vertices."""

    plane: PlaneGraph
    node_of_edge: dict      # edge key -> medial node label
    crossing_pairs: list    # index -> (e, f) sorted edge keys
    corner_edges: dict      # (vertex, rotation index) -> medial edge id
    vertex_face: dict       # original vertex -> face (list of darts)
    faces: list


def build_modified_medial(emb: OnePlaneEmbedding) -> ModifiedMedialGraph:
    """Medial graph with one vertex per crossing pair, as a plane graph."""
    g = emb.graph
    if not g.is_regular(3):
        raise ConstructionError("graph is not cubic")
    if not g.is_connected():
        raise ConstructionError("graph is not connected")
    pg, crossings = planarize(emb)

    node_of = {}
    for e in g.edges:
        node_of[e] = f"m|{_edge_name(e)}"
    for k, pair in enumerate(crossings):
        e, f = sorted(pair, key=lambda x: sorted(x))
        node_of[e] = node_of[f] = f"c|{k}"

    med = PlaneGraph()
    for node in sorted(set(node_of.values())):
        med.add_vertex(node)

    # one medial edge per corner of the planarized graph at an original
    # vertex; corner (v, i) joins the medial nodes of rotation[v][i] and
    # rotation[v][i+1]
    def parent_edge(dart):
        eid = dart[0]
        name = eid.split("#", 1)[0]
        u, v = name.split("|")
        return edge_key(u, v)

    corner_edges = {}
    for v in g.vertices:
        rot = pg.rotation[v]
        for i in range(len(rot)):
            a = node_of[parent_edge(rot[i])]
            b = node_of[parent_edge(rot[(i + 1) % len(rot)])]
            if a == b:
                raise ConstructionError("medial loop; unsupported configuration")
            corner_edges[(v, i)] = med.record_edge(a, b, eid=f"k|{v}|{i}")

    # rotations: plain medial node m_e, e = (u, v):
    # [toward succ_u(e), toward pred_u(e), toward succ_v(e), toward pred_v(e)]
    def side_darts(v, e_dart, node):
        """(succ corner, pred corner) medial darts for edge arriving at v."""
        rot = pg.rotation[v]
        i = rot.index(e_dart)
        succ = med.dart(corner_edges[(v, i)], node)  # corner (e, next)
        pred = med.dart(corner_edges[(v, (i - 1) % len(rot))], node)  # corner (prev, e)
        return [succ, pred]

    for e in sorted(g.edges, key=lambda x: sorted(x)):
        if any(e in pair for pair in crossings):
            continue
        node = node_of[e]
        u, v = sorted(e)
        dart_u = next(d for d in pg.rotation[u] if d[0] == _edge_name(e))
        dart_v = next(d for d in pg.rotation[v] if d[0] == _edge_name(e))
        med.rotation[node] = side_darts(u, dart_u, node) + side_darts(v, dart_v, node)

    for k, pair in enumerate(crossings):
        node = f"c|{k}"
        rot = []
        dummy = f"x{k}"
        for d in pg.rotation[dummy]:
            far = pg.head(d)
            half = pg.rev(d)  # dart leaving far toward the dummy
            far_dart = next(dd for dd in pg.rotation[far] if dd == half)
            rot += side_darts(far, far_dart, node)
        med.rotation[node] = rot

    med.check_planar()
    expected = len(g.edges) - len(crossings)
    if len(med.rotation) != expected:
        raise ConstructionError("medial vertex count mismatch")  # pragma: no cover

    faces = med.faces()
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


def _outer_medial_face(emb: OnePlaneEmbedding, med: ModifiedMedialGraph):
    """The medial face to draw outside, plus B-configuration bookkeeping.

    Normally this is the face-face of the drawing's outer face.  When that
    degenerates to a bigon (a crossing on the outer face boxed in by an
    edge between two of its endpoints), the vertex face of the smaller
    boxing endpoint becomes the outer face and its crossed edge will dip
    to z = -1 rather than rise.
    """
    g = emb.graph
    med_faces = med.faces
    vertex_faces = {id(f) for f in med.vertex_face.values()}

    target = None
    if emb.outer_face is not None:
        want = frozenset(emb.outer_face)
        # find medial face-faces whose corner edges' parents match
        matches = []
        for f in med_faces:
            if id(f) in vertex_faces:
                continue
            flat = set()
            for d in f:
                _, v, i = d[0].split("|")
                flat |= _corner_parent_union(emb, med, v, int(i))
            if frozenset(flat) == want:
                matches.append(f)
        if len(matches) == 1:
            target = matches[0]
        elif not matches:
            raise InputError("outer_face does not match any face")
        else:
            raise InputError("outer_face is ambiguous; give more edges")
    else:
        candidates = [f for f in med_faces if id(f) not in vertex_faces]
        target = max(candidates, key=lambda f: (len(f), sorted(d[0] for d in f)))

    if len(target) >= 3:
        return target, None

    # B-configuration: bigon between a crossing node and a plain medial
    # node; both copies are corners at the two boxing endpoints
    corners = [d[0] for d in target]
    hosts = sorted({c.split("|")[1] for c in corners})
    a = hosts[0]
    crossing_node = None
    for d in target:
        for node in (med.plane.tail(d), med.plane.head(d)):
            if node.startswith("c|"):
                crossing_node = node
    if crossing_node is None:
        raise ConstructionError("outer bigon without a crossing")
    k = int(crossing_node.split("|")[1])
    e, f = med.crossing_pairs[k]
    dip_edge = e if a in e else f
    return med.vertex_face[a], (k, dip_edge)


def _corner_parent_union(emb, med, v, i):
    # parent edges of the two darts forming corner i at v
    eid = med.corner_edges[(v, i)]
    a, b = med.plane.endpoints[eid]
    out = set()
    for node in (a, b):
        if node.startswith("m|"):
            u, w = node[2:].split("|")
            out.add(edge_key(u, w))
        else:
            k = int(node.split("|")[1])
            out |= set(med.crossing_pairs[k])
    return frozenset(out)


def represent_oneplanar_cubic(emb: OnePlaneEmbedding) -> Scene:
    """Touching-triangle scene for a 1-plane cubic graph, depth-3 grid."""
    g = emb.graph
    med = build_modified_medial(emb)
    outer, dip = _outer_medial_face(emb, med)

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
            _subdivide(work, eid, f"s{subdivided}")
            subdivided += 1
    outer_walk = _refind_face(work, outer)

    pos = schnyder_draw(work, outer_walk)

    lift = {}
    for k, (e, f) in enumerate(med.crossing_pairs):
        if dip is not None and dip[0] == k:
            lift[k] = (dip[1], -1)
        else:
            sel = min((e, f), key=lambda x: sorted(x))
            lift[k] = (sel, 1)

    def point_of(e, v=None):
        node = med.node_of_edge[e]
        x, y = pos[node]
        z = 0
        if node.startswith("c|"):
            k = int(node.split("|")[1])
            sel, dz = lift[k]
            if e == sel:
                z = dz
        return (Fraction(x), Fraction(y), Fraction(z))

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
    a = pg.record_edge(u, new_vertex, eid=f"{eid}a")
    b = pg.record_edge(new_vertex, v, eid=f"{eid}b")
    pg.rotation[new_vertex] = [(a, 1), (b, 0)]
    pg.rotation[u][iu] = (a, 0)
    pg.rotation[v][iv] = (b, 1)


def _refind_face(pg: PlaneGraph, old_walk):
    """Re-locate a face after subdivisions using a surviving dart."""
    alive = [d for d in old_walk if d[0] in pg.endpoints]
    if not alive:
        raise ConstructionError("outer face lost in subdivision")
    d0 = alive[0]
    walk = [d0]
    d = pg.next_in_face(d0)
    while d != d0:
        walk.append(d)
        d = pg.next_in_face(d)
    return walk
