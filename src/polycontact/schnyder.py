"""Straight-line planar grid drawing via Schnyder's realizer method.

Pipeline: fully triangulate the input plane graph (dummy chords and hub
vertices as needed), compute a canonical ordering of the triangulation,
derive the three-tree realizer from it, and place every vertex at
(x0, x1) where xi = |vertices in region i| - |vertices on the clockwise
bounding path|.  Region sizes come from the trees, in linear time: the
inner vertices of region i are the tree-i subtrees hanging off its two
bounding paths, so each size is a sum of subtree sizes along those paths,
read off prefix sums taken down the other two trees.  Internal coordinates
sum to n-1, so the drawing fits on a grid of (n-1) x (n-1) lines with the
outer triangle at (n-2, 1), (0, n-2), (1, 0).  Dummy edges and vertices
are dropped from the output, which stays a straight-line planar drawing of
the input.
"""

from __future__ import annotations

from .planar import EmbeddingError, PlaneGraph, triangulate


class DrawingError(ValueError):
    pass


def _canonical_order(pg: PlaneGraph, outer):
    """Reverse-peel a canonical ordering; outer = [a, b, c] ccw face."""
    a, b, c = outer
    alive = {v: set(pg.neighbors(v)) for v in pg.vertices()}
    n = len(alive)

    # current outer path from a to b (excluding edge a-b); starts a, c, b
    path = [a, c, b]
    on_path = {a, c, b}
    removed = []
    cover = {}  # vertex -> (left, span..., right) at its removal

    while len(removed) < n - 2:
        pick = None
        for idx in range(1, len(path) - 1):
            v = path[idx]
            nbrs_on = alive[v] & on_path
            # removable: exactly its two path neighbors among path vertices
            if nbrs_on == {path[idx - 1], path[idx + 1]}:
                pick = idx
                break
        if pick is None:
            raise DrawingError("no removable vertex; not a triangulation?")
        v = path[pick]
        left, right = path[pick - 1], path[pick + 1]
        fan = set(alive[v]) - on_path
        # order the fan between left and right in v's restricted rotation;
        # the interior fan sits entirely on one of the two arcs
        circ = [pg.head(d) for d in pg.rotation[v]]
        circ = [w for w in circ if w in alive[v]]
        li = circ.index(left)

        def scan(step):
            seq = []
            k = (li + step) % len(circ)
            while circ[k] != right:
                seq.append(circ[k])
                k = (k + step) % len(circ)
            return seq

        fwd, bwd = scan(1), scan(-1)
        ordered = fwd if set(fwd) == fan else bwd
        if set(ordered) != fan:
            raise DrawingError("fan not contiguous in rotation")
        cover[v] = (left, ordered, right)
        removed.append(v)
        for w in alive[v]:
            alive[w].discard(v)
        path[pick:pick + 1] = ordered
        on_path.discard(v)
        on_path.update(ordered)

    order = [a, b] + list(reversed(removed))  # c was peeled first
    if order[-1] != c:
        raise DrawingError("outer corner not last in canonical order")
    return order, cover


def _realizer(pg: PlaneGraph, outer, cover):
    """out[i][v] = head of v's outgoing color-i edge (i in 0,1,2).

    Peeled vertices point color 0 at their left contour neighbor, color 1
    at the right one, and every middle contour vertex they cover gets its
    color-2 edge toward them; the apex c is peeled first, so its colors
    point at a and b directly.
    """
    out = [dict(), dict(), dict()]
    for v, (left, fan, right) in cover.items():
        out[0][v] = left
        out[1][v] = right
        for w in fan:
            out[2][w] = v
    return out


def _tree_counts(out, root, inner):
    """BFS order, depths and subtree sizes of one realizer tree.

    `out` maps each inner vertex to its parent; depth counts the vertices
    on the path to `root`, both ends included, and a subtree size counts
    inner vertices only.  A tree that misses an inner vertex (no parent, a
    cycle, a foreign head) raises DrawingError.
    """
    children = {v: [] for v in inner}
    children[root] = []
    for v in inner:
        p = out.get(v)
        if p not in children:
            raise DrawingError(f"realizer tree of {root!r} broken at {v!r}")
        children[p].append(v)
    order = [root]
    for v in order:
        order.extend(children[v])
    if len(order) != len(inner) + 1:
        raise DrawingError(f"realizer tree of {root!r} misses "
                           f"{len(inner) + 1 - len(order)} vertices")
    depth = {root: 1}
    for v in order[1:]:
        depth[v] = depth[out[v]] + 1
    size = dict.fromkeys(order[1:], 1)
    size[root] = 0
    for v in reversed(order[1:]):
        size[out[v]] += size[v]
    return order, depth, size


def _path_sums(out, order, weight):
    """sum of weight[u] over the inner vertices u on each vertex's tree path."""
    acc = {order[0]: 0}
    for v in order[1:]:
        acc[v] = acc[out[v]] + weight[v]
    return acc


def schnyder_positions(pg: PlaneGraph, outer):
    """Integer positions for a simple plane triangulation with ccw outer face."""
    n = len(pg.vertices())
    a, b, c = outer
    if n == 3:
        return {a: (1, 0), b: (0, 1), c: (0, 0)}
    _, cover = _canonical_order(pg, outer)
    out = _realizer(pg, outer, cover)
    inner = [v for v in pg.vertices() if v not in (a, b, c)]
    trees = [_tree_counts(out[i], root, inner)
             for i, root in enumerate((a, b, c))]

    pos = {a: (n - 2, 1), b: (0, n - 2), c: (1, 0)}
    # x_i = |R_i(v)| - d_{i-1}(v); the inner vertices of the closed region
    # R_i(v) are the T_i-subtrees hanging off its boundary paths P_{i+1}(v)
    # and P_{i-1}(v), v's own counted twice, plus the two outer corners.
    coords = {v: [] for v in inner}
    for i in range(3):
        size = trees[i][2]
        nxt, prv = (i + 1) % 3, (i + 2) % 3
        s_next = _path_sums(out[nxt], trees[nxt][0], size)
        s_prev = _path_sums(out[prv], trees[prv][0], size)
        depth_prev = trees[prv][1]
        for v in inner:
            coords[v].append(s_next[v] + s_prev[v] - size[v] + 2 - depth_prev[v])
    for v in inner:
        if sum(coords[v]) != n - 1:
            raise DrawingError(f"region counts {coords[v]} do not sum to {n - 1}")
        pos[v] = (coords[v][0], coords[v][1])
    return pos


def schnyder_draw(pg: PlaneGraph, outer_walk=None):
    """Straight-line integer drawing of a simple connected plane graph.

    The graph is triangulated first (dummy structure removed afterwards),
    so any genus-zero rotation system with >= 3 vertices works.  Returns
    {vertex: (x, y)} with both coordinates within n-1 grid lines where n
    counts the triangulation's vertices.  Raises DrawingError for
    non-planar rotation systems.
    """
    if len(pg.vertices()) < 3:
        raise DrawingError("need at least 3 vertices")
    if pg.has_parallel_edges():
        raise DrawingError("parallel edges; subdivide before drawing")
    try:
        faces = pg.check_planar()
    except EmbeddingError as exc:
        raise DrawingError(f"not a planar embedding: {exc}") from None
    # check_planar held V - E + F = C + (components with an edge); with at
    # least 3 vertices that is 2 exactly when C = 1
    if len(pg.rotation) - len(pg.endpoints) + len(faces) != 2:
        raise DrawingError("graph must be connected")
    if outer_walk is None:
        outer_walk = max(faces, key=len)
    tri, outer_triangle = triangulate(pg, outer_walk, faces)
    pos = schnyder_positions(tri, outer_triangle)
    return {v: pos[v] for v in pg.vertices()}
