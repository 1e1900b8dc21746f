"""Bipartite contact representations: toroidal-grid, integer-grid, K33.

Both general constructions realize the complete bipartite graph and drop
the touching points of non-edges (polygons are rebuilt from the surviving
corners, which preserves planes and convexity).

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

from .core import Graph
from .geom import ROUND_BITS, Polygon3, round_point
from .scene import ConstructionError, Scene, graph_scene
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
    if sa | sb != set(g.vertices) or sa & sb:
        raise ConstructionError("parts must partition the vertices")
    for e in g.edges:
        u, v = tuple(e)
        if (u in sa) == (v in sa):
            raise ConstructionError(f"edge {set(e)} inside one part")
    return list(part_a), list(part_b)


def represent_bipartite_toroidal(g: Graph, parts=None) -> Scene:
    """Toroidal-grid representation: |B| rotations x (2|A|-2) circle steps."""
    part_a, part_b = _check_parts(g, parts)
    a, b = len(part_a), len(part_b)
    if a < 2 or b < 1:
        raise ConstructionError("need |A| >= 2 and |B| >= 1")
    if any(g.degree(v) == 0 for v in g.vertices):
        raise ConstructionError("isolated vertices have no touching points")

    # the lead chain, a half circle of radius 1 about x = 2, stays clear
    # of the z-axis
    lead = []
    for k in range(a):
        cos, sin = _circle_point(math.pi * k / (a - 1))
        lead.append((2 - sin, -cos))
    turns = [_circle_point(2.0 * math.pi * m / b) for m in range(b)]

    corner = {}  # (k, m) -> the contact of A-polygon k and B-polygon m
    contacts = {}
    for k, av in enumerate(part_a):
        x, z = lead[k]
        for m, bv in enumerate(part_b):
            if g.adjacent(av, bv):
                cos, sin = turns[m]
                corner[k, m] = contacts[frozenset((av, bv))] = (x * cos, x * sin, z)
    polygons = {bv: Polygon3(corners=tuple(corner[k, m] for k in range(a) if (k, m) in corner))
                for m, bv in enumerate(part_b)}
    for k, av in enumerate(part_a):
        polygons[av] = Polygon3(corners=tuple(corner[k, m] for m in range(b) if (k, m) in corner))

    degenerate = any(len(p.corners) < 3 for p in polygons.values())
    meta = {
        "construction": "bipartite-toroidal",
        "arithmetic": "exact",
        "parts": (list(part_a), list(part_b)),
        "toroidal_grid": (b, 2 * a - 2),
        "degenerate": degenerate,
    }
    return graph_scene(g, polygons, contacts, meta)


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
    """Integer-grid representation within |A| x 2ceil(|B|/4) x (...) lines."""
    part_a, part_b = _check_parts(g, parts)
    a, b = len(part_a), len(part_b)
    if a < 1 or b < 3:
        raise ConstructionError("need |B| >= 3")
    if any(g.degree(v) == 0 for v in g.vertices):
        raise ConstructionError("isolated vertices have no touching points")

    corners, sides = core_polygon(b)
    offsets = _stack_offsets(a)

    def corner3(t, j):
        # height index t (1..a), core corner index j
        x, y = corners[j]
        return (Fraction(x + sides[j] * offsets[t - 1]), Fraction(y), Fraction(t))

    polygons = {}
    contacts = {}
    for t, av in enumerate(part_a, start=1):
        js = [j for j in range(b) if g.adjacent(av, part_b[j])]
        polygons[av] = Polygon3(corners=tuple(corner3(t, j) for j in js))
    for j, bv in enumerate(part_b):
        ts = [t for t in range(1, a + 1) if g.adjacent(part_a[t - 1], bv)]
        polygons[bv] = Polygon3(corners=tuple(corner3(t, j) for t in ts))
    for t, av in enumerate(part_a, start=1):
        for j, bv in enumerate(part_b):
            if g.adjacent(av, bv):
                contacts[frozenset((av, bv))] = corner3(t, j)

    degenerate = any(len(p.corners) < 3 for p in polygons.values())
    ca2 = (a + 1) // 2
    cb4 = (b + 3) // 4
    meta = {
        "construction": "bipartite-grid",
        "arithmetic": "exact",
        "parts": (list(part_a), list(part_b)),
        "claimed_grid": {"x": ca2 * ca2 + cb4 * cb4, "y": 2 * cb4, "z": a},
        "degenerate": degenerate,
    }
    return graph_scene(g, polygons, contacts, meta)


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
    return certify(graph_scene(g, polygons, contacts, meta))
