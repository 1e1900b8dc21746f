"""Plane-graph machinery and the Schnyder grid drawing."""

import random
from itertools import combinations

import pytest
from conftest import all_oneplanar_fixtures, ek, gadget_chain
from test_cubic import bridged_cubic

from polycontact import Graph, OnePlaneEmbedding, represent_cubic, represent_oneplanar_cubic
from polycontact import planar, schnyder
from polycontact.oneplanar import build_modified_medial
from polycontact.planar import EmbeddingError, PlaneGraph, stellate, triangulate
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


def edge_between(pg, u, v):
    """The id of an edge u-v of pg, or None."""
    return next((eid for eid, ends in pg.endpoints.items() if set(ends) == {u, v}), None)


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


def cube_plane():
    # every face is a quad
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
    return build(pairs, rotations)


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

    def test_faces_are_the_walks_face_traces(self):
        pg = octahedron_plane()
        faces = pg.faces()
        assert sorted(d for f in faces for d in f) == sorted(
            (eid, end) for eid in pg.endpoints for end in (0, 1))
        for f in faces:
            assert pg.face(f[0]) == f
            assert pg.face(f[1]) == f[1:] + f[:1]

    def test_face_off_a_rotation_that_is_no_permutation(self):
        # x lists its dart to a twice: the walk from x to b comes back into
        # the two-dart face of x-a and would go round it for ever
        pg = build([("x", "a"), ("x", "b")], {"x": ["a", "b", "a"],
                                              "a": ["x"], "b": ["x"]})
        with pytest.raises(EmbeddingError, match="does not close"):
            pg.face(pg.dart(edge_between(pg, "x", "b"), "x"))
        with pytest.raises(EmbeddingError, match="does not close"):
            pg.faces()


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

    def test_isolated_vertex_rejected(self):
        pg = build([("a", "b"), ("b", "c"), ("c", "a")],
                   {"a": ["b", "c"], "b": ["c", "a"], "c": ["a", "b"], "d": []})
        with pytest.raises(DrawingError, match="^graph must be connected$"):
            schnyder_draw(pg)

    def test_two_components_rejected(self):
        # each triangle has its own outer face: V - E + F = 6 - 6 + 4
        pg = build([("a", "b"), ("b", "c"), ("c", "a"),
                    ("d", "e"), ("e", "f"), ("f", "d")],
                   {"a": ["b", "c"], "b": ["c", "a"], "c": ["a", "b"],
                    "d": ["e", "f"], "e": ["f", "d"], "f": ["d", "e"]})
        assert len(pg.check_planar()) == 4
        with pytest.raises(DrawingError, match="^graph must be connected$"):
            schnyder_draw(pg)

    def test_quad_face_triangulated(self):
        # cube graph: every face is a quad, so dummy chords are needed
        pg = cube_plane()
        pg.check_planar()
        pos = schnyder_draw(pg)
        assert drawing_is_planar(pg, pos)
        assert len(pos) == 8

    def test_face_left_open_is_embedding_error(self, monkeypatch):
        # the count check E = 3V - 6 catches the quadrilaterals other than
        # the outer one left behind, with no face traced after the split
        pg = cube_plane()
        faces = pg.check_planar()
        real = planar._clip_ears
        monkeypatch.setattr(planar, "_clip_ears", lambda pg, walk, counter:
                            real(pg, walk, counter) if walk == faces[0] else None)
        with pytest.raises(EmbeddingError, match="more than 3 darts"):
            triangulate(pg, faces[0], faces)

    def test_outer_walk_not_a_face_rejected(self):
        pg = cube_plane()
        faces = pg.check_planar()
        with pytest.raises(EmbeddingError, match="^outer walk is not a face$"):
            triangulate(pg, faces[0][:3], faces)

    @pytest.mark.parametrize("plane", [k4_plane, octahedron_plane, cube_plane,
                                       lambda: prism_medial(6)],
                             ids=["k4", "octahedron", "cube", "prism-medial-6"])
    def test_draw_traces_faces_once(self, plane, monkeypatch):
        pg = plane()
        calls = []
        real = PlaneGraph.faces
        monkeypatch.setattr(PlaneGraph, "faces",
                            lambda self: calls.append(self) or real(self))
        schnyder_draw(pg)
        assert calls == [pg]

    def test_faces_traced_per_build(self, monkeypatch):
        # once for the floorplan; the 1-plane build also traces the
        # planarization and the medial graph
        calls = []
        real = PlaneGraph.faces
        monkeypatch.setattr(PlaneGraph, "faces",
                            lambda self: calls.append(self) or real(self))
        represent_cubic(gadget_chain(5))
        assert len(calls) == 1
        calls.clear()
        represent_oneplanar_cubic(prism_oneplane(10))
        assert len(calls) == 3


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
    outer_edge = (edge_between(pg, b, c), edge_between(pg, c, a), edge_between(pg, a, b))
    for v in pg.vertices():
        if v in roots:
            continue
        paths = [_flood_path(out[i], v, roots[i]) for i in range(3)]
        coords = []
        for i in range(3):
            p_next, p_prev = paths[(i + 1) % 3], paths[(i + 2) % 3]
            cyc = {outer_edge[i]}
            for pth in (p_next, p_prev):
                cyc.update(edge_between(pg, x, y) for x, y in zip(pth, pth[1:]))
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


def prism_oneplane(k):
    """The prism C_k x K2 with no crossing, its rotations laid out as
    `conftest.prism_embedding` lays out k = 3: inner cycle 1..k, outer
    cycle k+1..2k, outer face the outer cycle."""
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
    return OnePlaneEmbedding(
        graph=Graph.from_edges(edges), rotation=rotation, crossings=frozenset(),
        outer_face=frozenset(ek(outer[i], outer[(i + 1) % k]) for i in range(k)))


def prism_medial(k):
    """Medial graph of `prism_oneplane(k)` (3k vertices)."""
    return build_modified_medial(prism_oneplane(k)).plane


def test_prism_medial_60_vertices():
    pg = prism_medial(20)
    assert len(pg.vertices()) == 60
    pos = schnyder_draw(pg)
    assert_on_grid(pg, pos, 60)


def random_plane_graph(rng, n):
    """A random tree on n vertices grown into a connected plane graph by
    chords inside random faces; outer walks may repeat vertices."""
    pg = PlaneGraph()
    pg.add_vertex(0)
    for v in range(1, n):
        pg.add_vertex(v)
        u = rng.randrange(v)
        pg.add_edge(u, v, pos_u=rng.randint(0, len(pg.rotation[u])))
    for _ in range(rng.randint(0, 2 * n)):
        f = rng.choice(pg.faces())
        i, j = sorted(rng.sample(range(len(f)), 2)) if len(f) > 1 else (0, 0)
        a, b = pg.tail(f[i]), pg.tail(f[j])
        if 2 <= j - i < len(f) - 1 and a != b and b not in pg.neighbors(a):
            planar._chord(pg, f[i - 1], f[j])
    return pg


def clip_outer_by_rescan(pg, walk, counter):
    """`planar._clip_ears` as a plain rescan: after every chord, tails are
    read again and the ears looked at from the chord on."""
    w = list(walk)
    while len(w) > 3:
        tails = [pg.tail(d) for d in w]
        for i in range(len(w) - 2):
            if tails[i] != tails[i + 2] and tails[i + 2] not in pg.neighbors(tails[i]):
                eid = planar._chord(pg, w[i - 1], w[i + 2])
                w = [(eid, 0)] + w[i + 2:] + w[:i]
                break
        else:
            hub = f"steiner{counter[0]}"
            counter[0] += 1
            stellate(pg, w, hub)
            w = pg.face(pg.rotation[hub][0])
    return [pg.tail(d) for d in w]


class TestOuterEars:
    """The outer ear loop clips the chords a rescan after every chord
    clips, in the same order, and stellates where the rescan does."""

    @staticmethod
    def _same_as_rescan(pg, walk):
        def outcome(clip):
            work = pg.copy()
            try:
                return clip(work, walk, [0]), work.endpoints, work.rotation
            except EmbeddingError as exc:  # stellating a walk that repeats a vertex
                return str(exc)
        got = outcome(planar._clip_ears)
        assert got == outcome(clip_outer_by_rescan)
        return got

    @pytest.mark.parametrize("seed", range(8))
    def test_random_outer_walks(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            pg = random_plane_graph(rng, rng.randint(3, 30))
            faces = pg.check_planar()
            for walk in (max(faces, key=len), rng.choice(faces)):
                k = rng.randrange(len(walk))
                self._same_as_rescan(pg, walk[k:] + walk[:k])

    def test_every_face_of_the_chain_floorplan(self, monkeypatch):
        plans = []
        real = schnyder.triangulate
        monkeypatch.setattr(schnyder, "triangulate", lambda pg, outer, faces:
                            plans.append(pg.copy()) or real(pg, outer, faces))
        represent_cubic(gadget_chain(6))
        for walk in plans[0].faces():
            self._same_as_rescan(plans[0], walk)

    @pytest.mark.parametrize("seed", range(4))
    def test_stellates_where_the_rescan_does(self, seed, monkeypatch):
        # made-up adjacency, seen alike by both loops, blocks ears until
        # some scans find none and stellate
        rng = random.Random(seed)
        hubs = 0
        for _ in range(60):
            n = rng.randint(4, 16)
            pg = random_plane_graph(rng, n)
            blocked = {frozenset(p) for p in combinations(range(n), 2) if rng.random() < 0.7}
            neighbors = PlaneGraph.neighbors
            with monkeypatch.context() as mp:
                mp.setattr(PlaneGraph, "neighbors", lambda self, v: neighbors(self, v) + [
                    w for w in range(n) if frozenset((v, w)) in blocked])
                got = self._same_as_rescan(pg, max(pg.faces(), key=len))
            hubs += isinstance(got, tuple) and "steiner0" in got[0]
        assert hubs


def triangulate_by_rescan(pg, outer_walk, faces):
    """`triangulate` with `clip_outer_by_rescan` run on the outer walk and
    then on each longer face in order."""
    work, counter = pg.copy(), [0]
    outer = clip_outer_by_rescan(work, outer_walk, counter)
    for f in faces:
        if len(f) > 3 and set(f) != set(outer_walk):
            clip_outer_by_rescan(work, f, counter)
    return work, outer


class TestEveryFaceClipped:
    """`triangulate` chords every face with the ear clip: the edges and
    rotations of the rescan, one `_clip_ears` call per face of more than 3
    darts and none for a triangle."""

    @staticmethod
    def _same_as_rescan(pg, outer_walk, faces, monkeypatch):
        calls = []
        real = planar._clip_ears
        with monkeypatch.context() as mp:
            mp.setattr(planar, "_clip_ears", lambda pg, walk, counter:
                       calls.append(walk) or real(pg, walk, counter))
            work, outer = triangulate(pg, outer_walk, faces)
        want, want_outer = triangulate_by_rescan(pg, outer_walk, faces)
        assert (outer, work.endpoints, work.rotation) == (
            want_outer, want.endpoints, want.rotation)
        assert calls == [outer_walk] + [
            f for f in faces if len(f) > 3 and set(f) != set(outer_walk)]

    def test_bridged_seed_132_floorplan(self, monkeypatch):
        # one floorplan with inner faces of 11 and 10 darts
        plans = []
        real = schnyder.triangulate
        monkeypatch.setattr(schnyder, "triangulate", lambda pg, outer, faces:
                            plans.append((pg.copy(), outer, faces))
                            or real(pg, outer, faces))
        assert represent_cubic(bridged_cubic(132)).certificate.passed
        assert plans
        for pg, outer, faces in plans:
            self._same_as_rescan(pg, outer, faces, monkeypatch)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_plane_graphs(self, seed, monkeypatch):
        rng = random.Random(seed)
        for _ in range(40):
            pg = random_plane_graph(rng, rng.randint(3, 30))
            faces = pg.check_planar()
            self._same_as_rescan(pg, max(faces, key=len), faces, monkeypatch)
