"""Plane-graph machinery and the Schnyder grid drawing."""

import random
from itertools import combinations

import pytest
from conftest import all_oneplanar_fixtures, ek, gadget_chain

from polycontact import Graph, OnePlaneEmbedding, represent_cubic, represent_oneplanar_cubic
from polycontact import schnyder
from polycontact.oneplanar import build_modified_medial
from polycontact.planar import PlaneGraph, stellate
from polycontact.schnyder import DrawingError, schnyder_draw, schnyder_positions


def build(edges, rotations):
    pg = PlaneGraph()
    darts = {}
    for v in rotations:
        pg.add_vertex(v)
    for u, v in edges:
        eid = pg.record_edge(u, v)
        darts[(u, v)] = (eid, 0)
        darts[(v, u)] = (eid, 1)
    for v, nbrs in rotations.items():
        pg.rotation[v] = [darts[(v, w)] for w in nbrs]
    return pg


def k4_plane():
    return build(
        [("1", "2"), ("1", "3"), ("1", "4"), ("2", "3"), ("2", "4"), ("3", "4")],
        {"1": ["2", "4", "3"], "2": ["3", "4", "1"],
         "3": ["1", "4", "2"], "4": ["3", "1", "2"]})


def octahedron_plane():
    # medial of K4: vertices are K4 edges, antipodal pairs non-adjacent
    labels = ["12", "13", "14", "23", "24", "34"]
    anti = {"12": "34", "34": "12", "13": "24", "24": "13", "14": "23",
            "23": "14"}
    # a concrete genus-zero rotation system (verified by check_planar)
    rotations = {
        "12": ["13", "23", "24", "14"],
        "13": ["12", "14", "34", "23"],
        "14": ["12", "24", "34", "13"],
        "23": ["12", "13", "34", "24"],
        "24": ["12", "23", "34", "14"],
        "34": ["13", "14", "24", "23"],
    }
    edges = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]
             if anti[u] != v]
    return build(edges, rotations)


def drawing_is_planar(pg, pos):
    """Exact straight-line planarity re-check of a drawing."""
    if len(set(pos.values())) != len(pos):
        return False

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def on(a, b, c):
        return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))

    items = list(pg.endpoints.items())
    for (e1, (a1, b1)), (e2, (a2, b2)) in combinations(items, 2):
        p1, p2, q1, q2 = pos[a1], pos[b1], pos[a2], pos[b2]
        shared = {a1, b1} & {a2, b2}
        d1 = cross(q1, q2, p1)
        d2 = cross(q1, q2, p2)
        d3 = cross(p1, p2, q1)
        d4 = cross(p1, p2, q2)
        if shared:
            # only the shared endpoint may coincide; no overlap allowed
            (s,) = shared
            other1 = p1 if b1 == s else p2
            other2 = q1 if b2 == s else q2
            if cross(pos[s], other1, other2) == 0:
                if (other1[0] - pos[s][0]) * (other2[0] - pos[s][0]) + \
                   (other1[1] - pos[s][1]) * (other2[1] - pos[s][1]) > 0:
                    return False
            continue
        if d1 * d2 < 0 and d3 * d4 < 0:
            return False
        for dd, (sa, sb), c in ((d1, (q1, q2), p1), (d2, (q1, q2), p2),
                                (d3, (p1, p2), q1), (d4, (p1, p2), q2)):
            if dd == 0 and on(sa, sb, c):
                return False
    return True


class TestPlaneGraph:
    def test_k4_faces(self):
        pg = k4_plane()
        pg.check_planar()
        assert len(pg.faces()) == 4

    def test_octahedron_euler(self):
        pg = octahedron_plane()
        pg.check_planar()
        assert len(pg.faces()) == 8


class TestSchnyder:
    def test_k4(self):
        pg = k4_plane()
        pos = schnyder_draw(pg)
        assert drawing_is_planar(pg, pos)
        xs = [p[0] for p in pos.values()]
        ys = [p[1] for p in pos.values()]
        assert max(xs) - min(xs) + 1 <= 3
        assert max(ys) - min(ys) + 1 <= 3

    def test_octahedron_grid(self):
        pg = octahedron_plane()
        pos = schnyder_draw(pg)
        assert drawing_is_planar(pg, pos)
        xs = [p[0] for p in pos.values()]
        ys = [p[1] for p in pos.values()]
        assert max(xs) - min(xs) + 1 <= 5
        assert max(ys) - min(ys) + 1 <= 5

    def test_k5_rejected(self):
        edges = [(str(i), str(j)) for i in range(1, 6) for j in range(i + 1, 6)]
        rot = {str(i): [str(j) for j in range(1, 6) if j != i]
               for i in range(1, 6)}
        pg = build(edges, rot)
        with pytest.raises(DrawingError, match="planar"):
            schnyder_draw(pg)

    def test_quad_face_triangulated(self):
        # cube graph: every face is a quad, so dummy chords are needed
        pairs = [("000", "001"), ("001", "011"), ("011", "010"),
                 ("010", "000"), ("100", "101"), ("101", "111"),
                 ("111", "110"), ("110", "100"), ("000", "100"),
                 ("001", "101"), ("011", "111"), ("010", "110")]
        rotations = {
            "000": ["001", "100", "010"],
            "001": ["011", "101", "000"],
            "011": ["010", "111", "001"],
            "010": ["011", "000", "110"],
            "100": ["101", "110", "000"],
            "101": ["111", "100", "001"],
            "111": ["011", "110", "101"],
            "110": ["111", "010", "100"],
        }
        pg = build(pairs, rotations)
        pg.check_planar()
        pos = schnyder_draw(pg)
        assert drawing_is_planar(pg, pos)
        assert len(pos) == 8


# ---------------------------------------------------------------------------
# Reference: count every region by flooding the faces off its boundary cycle
# ---------------------------------------------------------------------------


def _flood_path(out, v, root):
    path = [v]
    while path[-1] != root:
        path.append(out[path[-1]])
    return path


def _flood_region(pg, boundary_edges, boundary_vertices, avoid):
    """Vertices on the closed side of the boundary cycle away from `avoid`."""
    faces = pg.faces()
    edge_faces = {}
    for fi, f in enumerate(faces):
        for d in f:
            edge_faces.setdefault(d[0], []).append(fi)
    adj = {fi: set() for fi in range(len(faces))}
    for eid, fis in edge_faces.items():
        if eid not in boundary_edges:
            for x in fis:
                adj[x].update(y for y in fis if y != x)
    comp = {}
    for fi in range(len(faces)):
        if fi in comp:
            continue
        stack = [fi]
        comp[fi] = fi
        while stack:
            for y in adj[stack.pop()]:
                if y not in comp:
                    comp[y] = fi
                    stack.append(y)
    side_vertices = {}
    for fi, f in enumerate(faces):
        side_vertices.setdefault(comp[fi], set()).update(pg.tail(d) for d in f)
    region = set(boundary_vertices)
    for vs in side_vertices.values():
        if avoid not in (vs - boundary_vertices):
            region |= vs
    return region


def flood_positions(pg, outer):
    """Schnyder positions with x_i = |R_i(v)| - |P_{i-1}(v)|, each region
    R_i(v) found by flooding the faces of the triangulation."""
    n = len(pg.vertices())
    a, b, c = outer
    _, cover = schnyder._canonical_order(pg, outer)
    out = schnyder._realizer(pg, outer, cover)
    roots = (a, b, c)
    pos = {a: (n - 2, 1), b: (0, n - 2), c: (1, 0)}
    outer_edge = (pg.edge_between(b, c), pg.edge_between(c, a), pg.edge_between(a, b))
    for v in pg.vertices():
        if v in roots:
            continue
        paths = [_flood_path(out[i], v, roots[i]) for i in range(3)]
        coords = []
        for i in range(3):
            p_next, p_prev = paths[(i + 1) % 3], paths[(i + 2) % 3]
            cyc = {outer_edge[i]}
            for pth in (p_next, p_prev):
                cyc.update(pg.edge_between(x, y) for x, y in zip(pth, pth[1:]))
            region = _flood_region(pg, cyc, set(p_next) | set(p_prev), roots[i])
            coords.append(len(region) - len(p_prev))
        pos[v] = (coords[0], coords[1])
    return pos


def stacked_triangulation(n, seed):
    """K4 grown to n vertices by stellating random inner faces (seeded)."""
    rng = random.Random(seed)
    pg = k4_plane()
    outer_walk = pg.faces()[0]
    outer_darts = set(outer_walk)
    for k in range(n - 4):
        inner = [f for f in pg.faces() if set(f) != outer_darts]
        stellate(pg, rng.choice(inner), f"h{k}")
    return pg, [pg.tail(d) for d in outer_walk]


@pytest.fixture(scope="module")
def construction_triangulations():
    """Every triangulation the gadget-chain and 1-planar builds draw."""
    seen = []
    real = schnyder.schnyder_positions

    def record(pg, outer):
        seen.append((pg.copy(), list(outer)))
        return real(pg, outer)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schnyder, "schnyder_positions", record)
        for k in range(2, 7):
            represent_cubic(gadget_chain(k))
        for emb in all_oneplanar_fixtures().values():
            represent_oneplanar_cubic(emb)
    return seen


def assert_on_grid(pg, pos, n):
    assert drawing_is_planar(pg, pos)
    assert all(0 <= x <= n - 2 and 0 <= y <= n - 2 for x, y in pos.values())


class TestRegionCounts:
    """Subtree-size region counts against the flood-fill reference."""

    def test_construction_triangulations(self, construction_triangulations):
        assert len(construction_triangulations) == 11
        for pg, outer in construction_triangulations:
            pos = schnyder_positions(pg, outer)
            assert pos == flood_positions(pg, outer)
            assert_on_grid(pg, pos, len(pg.vertices()))

    @pytest.mark.parametrize("n,seed", [(5, 0), (9, 1), (16, 2), (24, 3),
                                        (33, 4), (45, 5), (60, 6)])
    def test_stacked_triangulations(self, n, seed):
        pg, outer = stacked_triangulation(n, seed)
        pos = schnyder_positions(pg, outer)
        assert pos == flood_positions(pg, outer)
        assert_on_grid(pg, pos, n)


def _inner_tree_edge(out, outer):
    """An inner vertex and its child in colour-0 tree (both inner)."""
    return next((v, w) for w, v in out[0].items()
                if v not in outer and w not in outer)


class TestBrokenRealizer:
    """A realizer that is not three spanning trees is refused, not drawn."""

    def _draw_with(self, monkeypatch, breaker):
        real = schnyder._realizer

        def broken(pg, outer, cover):
            out = real(pg, outer, cover)
            breaker(out, outer)
            return out

        monkeypatch.setattr(schnyder, "_realizer", broken)
        pg, outer = stacked_triangulation(12, 7)
        with pytest.raises(DrawingError, match="realizer tree"):
            schnyder_positions(pg, outer)

    def test_colour_zero_cycle(self, monkeypatch):
        def cycle(out, outer):
            v, w = _inner_tree_edge(out, outer)
            out[0][v] = w  # v -> w -> v
        self._draw_with(monkeypatch, cycle)

    def test_vertex_without_tree_edge(self, monkeypatch):
        def orphan(out, outer):
            v, _ = _inner_tree_edge(out, outer)
            del out[1][v]
        self._draw_with(monkeypatch, orphan)


def prism_medial(k):
    """Medial graph of the prism C_k x K2 (3k vertices), with rotations
    laid out as `conftest.prism_embedding` lays out k = 3: inner cycle
    1..k, outer cycle k+1..2k, outer face the outer cycle."""
    inner = [str(i) for i in range(1, k + 1)]
    outer = [str(k + i) for i in range(1, k + 1)]
    edges, rotation = [], {}
    for i in range(k):
        nxt, prv = (i + 1) % k, (i - 1) % k
        edges += [(inner[i], inner[nxt]), (outer[i], outer[nxt]), (inner[i], outer[i])]
        rotation[inner[i]] = [ek(inner[i], outer[i]), ek(inner[i], inner[nxt]),
                              ek(inner[i], inner[prv])]
        rotation[outer[i]] = [ek(outer[i], inner[i]), ek(outer[i], outer[prv]),
                              ek(outer[i], outer[nxt])]
    emb = OnePlaneEmbedding(
        graph=Graph.from_edges(edges), rotation=rotation, crossings=frozenset(),
        outer_face=frozenset(ek(outer[i], outer[(i + 1) % k]) for i in range(k)))
    return build_modified_medial(emb).plane


def test_prism_medial_60_vertices():
    pg = prism_medial(20)
    assert len(pg.vertices()) == 60
    pos = schnyder_draw(pg)
    assert_on_grid(pg, pos, 60)
