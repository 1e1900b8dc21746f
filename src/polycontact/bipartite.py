"""Bipartite contact representations: toroidal-grid, integer-grid, K33.

Both general constructions pad each part with dummy vertices up to 3,
realize the complete bipartite graph K_{A',B'} on the padded parts, and
retract it to the graph (`scene.retract`): the dummy polygons go, and each
polygon keeps the corners of its edges' contacts, pulling dropped ones in
when it keeps fewer than 3.

Toroidal: every B-polygon is a rotated copy (around the z-axis) of a lead
polygon whose corners sit evenly spaced on a half circle; A-polygons are
horizontal |B|-gons, one per height.  Angles are taken as rational points
((1 - t^2)/(1 + t^2), 2t/(1 + t^2)) of the unit circle, t = tan(angle/2)
rounded to a multiple of 2^-40, both for the rotations and for the lead
chain.  So every A-polygon lies on one horizontal circle and every
B-polygon on a circle in a vertical plane through the z-axis, exactly:
both are planar and convex, and verification is exact.

Integer grid: A-polygons are horizontally stretched copies of a core
convex |B|-gon stacked at integer heights, stretching the two y-monotone
chains apart by increments 1, 2, 3, ...; the corners above each core
corner then form congruent uni-monotone vertical B-polygons in parallel
planes.  All coordinates are integers and verification is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import Graph, edge_key
from .geom import ROUND_BITS, Polygon3, round_point
from .scene import ConstructionError, Scene, dummy_labels, graph_scene, retract
from .verify import certify


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with parts a1..aN and b1..bM."""
    edges = [(f"a{i}", f"b{j}") for i in range(1, a + 1) for j in range(1, b + 1)]
    verts = [f"a{i}" for i in range(1, a + 1)] + [f"b{j}" for j in range(1, b + 1)]
    return Graph.from_edges(edges, vertices=verts)


def bipartition(g: Graph):
    """Two-color g by BFS; raises on odd cycles."""
    color = {}
    for start in g.vertices:
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for w in g.neighbors(v):
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    raise ConstructionError("graph is not bipartite")
    part_a = [v for v in g.vertices if color[v] == 0]
    part_b = [v for v in g.vertices if color[v] == 1]
    return part_a, part_b


def _check_parts(g: Graph, parts):
    if parts is None:
        return bipartition(g)
    part_a, part_b = parts
    sa, sb = set(part_a), set(part_b)
    if len(sa) != len(part_a) or len(sb) != len(part_b):
        raise ConstructionError("a part repeats a label")
    if sa | sb != set(g.vertices) or sa & sb:
        raise ConstructionError("parts must partition the vertices")
    for e in g.edges:
        u, v = tuple(e)
        if (u in sa) == (v in sa):
            raise ConstructionError(f"edge {set(e)} inside one part")
    return list(part_a), list(part_b)


def _padded_parts(g: Graph, part_a: list, part_b: list):
    """The parts, each padded with dummy vertices up to 3."""
    dummies = iter(dummy_labels(g, 6))
    return ([*part_a, *(next(dummies) for _ in range(3 - len(part_a)))],
            [*part_b, *(next(dummies) for _ in range(3 - len(part_b)))])


def _retract_complete(g: Graph, pa: list, pb: list, corner, meta: dict) -> Scene:
    """g's scene retracted from K_{pa,pb}, whose A-polygon k and B-polygon
    m touch at corner[k, m]: A-polygons in B order, B-polygons in A order."""
    a, b = len(pa), len(pb)
    polygons = {bv: Polygon3(corners=tuple(corner[k, m] for k in range(a)))
                for m, bv in enumerate(pb)}
    for k, av in enumerate(pa):
        polygons[av] = Polygon3(corners=tuple(corner[k, m] for m in range(b)))
    contacts = {edge_key(av, bv): corner[k, m]
                for k, av in enumerate(pa) for m, bv in enumerate(pb)}
    padded = graph_scene(Graph(vertices=tuple(pa + pb), edges=frozenset(contacts)),
                         polygons, contacts, {})
    return certify([retract(g, padded, meta)])


def represent_bipartite_toroidal(g: Graph, parts=None) -> Scene:
    """Toroidal-grid representation: |B'| rotations x (2|A'|-2) circle
    steps, for parts padded to |A'|, |B'| >= 3."""
    part_a, part_b = _check_parts(g, parts)
    pa, pb = _padded_parts(g, part_a, part_b)
    a, b = len(pa), len(pb)

    # the lead chain, a half circle of radius 1 about x = 2, stays clear
    # of the z-axis
    lead = []
    for k in range(a):
        cos, sin = _circle_point(math.pi * k / (a - 1))
        lead.append((2 - sin, -cos))
    turns = [_circle_point(2.0 * math.pi * m / b) for m in range(b)]
    corner = {(k, m): (x * cos, x * sin, z)
              for k, (x, z) in enumerate(lead) for m, (cos, sin) in enumerate(turns)}
    meta = {
        "construction": "bipartite-toroidal",
        "arithmetic": "exact",
        "parts": (part_a, part_b),
        "toroidal_grid": (b, 2 * a - 2),
    }
    return _retract_complete(g, pa, pb, corner, meta)


def _circle_point(angle: float):
    """(cos, sin) of `angle` as an exact rational point of the unit circle,
    ((1 - t^2)/(1 + t^2), 2t/(1 + t^2)) with t = tan(angle/2) rounded to a
    multiple of 2^-ROUND_BITS.  Angles with a negative cosine are taken as
    the antipode of angle - pi, so |t| <= 1."""
    flip = math.cos(angle) < 0
    t = round(math.tan((angle - math.pi) / 2 if flip else angle / 2) * 2 ** ROUND_BITS)
    one = 1 << 2 * ROUND_BITS
    den = one + t * t
    cos, sin = Fraction(one - t * t, den), Fraction(t << ROUND_BITS + 1, den)
    return (-cos, -sin) if flip else (cos, sin)


def core_polygon(b: int):
    """Convex integer b-gon used as the A-polygon blueprint.

    Returns (corners, sides): corners in ccw order within the grid budget
    2*ceil(b/4) x (floor(ceil(b/2)/2)*(ceil(b/4)-1)+2); sides[i] is +1 for
    right-chain corners and -1 for left-chain corners (the stretching
    direction when A-polygons are stacked).
    """
    if b < 3:
        raise ConstructionError("need b >= 3")
    if b == 3:
        return [(0, 0), (1, 0), (1, 1)], [-1, 1, 1]
    even = b if b % 2 == 0 else b + 1
    rises = (even - 2) // 2
    m = (rises - 1) // 2
    seq = list(range(m, 0, -1)) + [0] * (rises - 2 * m) + list(range(-1, -m - 1, -1))
    right = [(1, 0)]
    for t, dx in enumerate(seq, start=1):
        right.append((right[-1][0] + dx, t))
    # ccw: bottom edge, right chain up, top edge, left chain (central mirror) down
    corners = [(0, 0), (1, 0)]
    corners += right[1:]                              # ends at (1, rises)
    corners += [(0, rises)]
    corners += [(1 - x, rises - y) for x, y in right[1:-1]]
    if b % 2 == 1:
        drop = 2 + len(right[1:]) + 1  # first left-chain corner after top-left
        corners = corners[:drop] + corners[drop + 1:]
    sides = [1 if x >= 1 else -1 for x, _ in corners]
    return corners, sides


def _stack_offsets(a: int):
    """Horizontal stretch per height 1..a, symmetric increments 1,2,3,..."""
    off = [0] * (a + 1)  # 1-indexed
    mid_lo = (a + 1) // 2
    mid_hi = a // 2 + 1
    step = 0
    total = 0
    t = mid_lo
    while t >= 1:
        off[t] = total
        off[a + 1 - t] = total
        step += 1
        total += step
        t -= 1
    return off[1:]


def represent_bipartite_grid(g: Graph, parts=None) -> Scene:
    """Integer-grid representation within |A'| x 2ceil(|B'|/4) x (...)
    lines, plus one per pulled corner, for parts padded to |A'|, |B'| >= 3."""
    part_a, part_b = _check_parts(g, parts)
    pa, pb = _padded_parts(g, part_a, part_b)
    a, b = len(pa), len(pb)
    corners, sides = core_polygon(b)
    offsets = _stack_offsets(a)
    # height t (1..a) over core corner j
    corner = {(t - 1, j): (Fraction(x + sides[j] * offsets[t - 1]), Fraction(y), Fraction(t))
              for t in range(1, a + 1) for j, (x, y) in enumerate(corners)}
    ca2 = (a + 1) // 2
    cb4 = (b + 3) // 4
    meta = {
        "construction": "bipartite-grid",
        "arithmetic": "exact",
        "parts": (part_a, part_b),
        "claimed_grid": {"x": ca2 * ca2 + cb4 * cb4, "y": 2 * cb4, "z": a},
    }
    return _retract_complete(g, pa, pb, corner, meta)


def represent_k33_unit_triangles() -> Scene:
    """K33 as six touching unit equilateral triangles.

    Three horizontal triangles at heights 0, 1/2, 1 centered on the z-axis
    (top directly above bottom, middle rotated by 120 deg - arccos(-1/8)),
    and three vertical ones, each using one bottom, one top and one middle
    corner.  Corners are rounded to multiples of 2^-40 (`round_point`),
    which keeps every triangle planar; sides stay within 1e-12 of 1.  The
    scene is verified (`certify`).
    """
    beta = math.radians(120.0) - math.acos(-1.0 / 8.0)
    r = math.tan(math.radians(30.0))

    def ring(angle_offset, z):
        pts = []
        for j in range(3):
            ang = math.radians(90.0 + 120.0 * j) + angle_offset
            pts.append(round_point((r * math.cos(ang), r * math.sin(ang), z)))
        return pts

    bottom = ring(0.0, 0.0)
    middle = ring(beta, 0.5)
    top = ring(0.0, 1.0)

    g = complete_bipartite(3, 3)
    part_a = ["a1", "a2", "a3"]  # bottom, middle, top
    part_b = ["b1", "b2", "b3"]
    polygons = {
        "a1": Polygon3(corners=tuple(bottom)),
        "a2": Polygon3(corners=tuple(middle)),
        "a3": Polygon3(corners=tuple(top)),
    }
    contacts = {}
    for j, bv in enumerate(part_b):
        mid = middle[(j - 1) % 3]
        polygons[bv] = Polygon3(corners=(bottom[j], top[j], mid))
        contacts[frozenset(("a1", bv))] = bottom[j]
        contacts[frozenset(("a3", bv))] = top[j]
        contacts[frozenset(("a2", bv))] = mid
    meta = {
        "construction": "k33-unit-triangles",
        "arithmetic": "exact",
        "parts": (part_a, part_b),
        "beta_degrees": math.degrees(beta),
        "circle_radius": r,
    }
    return certify([graph_scene(g, polygons, contacts, meta)])
