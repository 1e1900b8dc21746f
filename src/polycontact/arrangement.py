"""Contact representations of every graph, by lifting a line arrangement.

The construction lifts an arrangement of n lines in the xy-plane whose
intersections appear along every line in index order, with each
consecutive gap at most half the one before.  The arrangement is in closed
form: line i is the tangent y = 2 s_i x - s_i**2 to the parabola y = x**2
at s_i = sum(4**-k for 1 <= k < i).  Why it has both properties:

- Lines i and j meet at p(i,j) = ((s_i + s_j)/2, s_i s_j), so along line i
  the crossings sit at x = (s_i + s_j)/2, in index order.
- The gap in x between the crossings with lines j and j+1 is 4**-j / 2,
  so gaps shrink by a factor of 4; the one gap spanning j = i,
  (4**-(i-1) + 4**-i) / 2, is at most half the gap before it
  (5/16 <= 1/2) and at least twice the gap after it (1/16 <= 5/8).
- The slopes 2 s_i are distinct, so no two lines are parallel; tangents at
  a, b, c are never concurrent, since that needs (c - a)(c - b) = 0.

Every s_i is S_i / D, for D = 4**(n-1) and the int
S_i = (4**(i-1) - 1) / 3 * 4**(n-i).  An `Arrangement` keeps only these n
ints and D, and makes each crossing on demand as two `Fraction`s of ints,
with a power-of-two denominator and at most 4n bits.  Its certificate,
`arrangement_ok`, runs on the ints S_i + S_j; the build raises if it fails.

Lifting intersection point p(i,j) to z = min(i,j) makes the convex hull of
each line's lifted points a polygon in a vertical plane; polygons of lines
i and j then meet exactly in the lifted p(i,j).  This needs minimum degree
3, so a graph with lower degrees is padded first: each vertex of degree
d < 3 is joined to 3 - d vertices of a dummy K4, and the lifted scene is
retracted to the graph (`scene.retract`).  Every perturbation
("slightly reduce", strictification) is a power-of-two rational: the
candidate scenes for delta = 1/2, 1/4, ... go to `verify.certify`, which
returns the first that passes with its report as its `certificate`.  That
report is the only contact check here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .core import Frozen, Graph, edge_key
from .geom import Polygon3, polygon_properties
from .scene import ConstructionError, Scene, dummy_labels, graph_scene, retract
from .verify import certify, verify_scene  # noqa: F401  perfbench/spans.py wraps verify_scene

_MAX_HALVINGS = 128


class Arrangement(Frozen):
    """The lines y = 2 s_i x - s_i**2, tangent to y = x**2 at s_i = S_i / D,
    for the ints s = (S_1, ..., S_n) and d = D > 0."""

    _fields = ("s", "d")

    def __init__(self, s: tuple, d: int):
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return len(self.s)

    def point(self, i: int, j: int):
        """The crossing p(i,j) = ((S_i + S_j) / 2D, S_i S_j / D**2) of lines i and j."""
        si, sj = self.s[i - 1], self.s[j - 1]
        return Fraction(si + sj, 2 * self.d), Fraction(si * sj, self.d * self.d)


def arrangement_ok(arr: Arrangement) -> bool:
    """Exact re-check of the ordering and gap-halving properties.

    Along each line, intersections with the other lines must appear in
    index order (one direction or the other), and every consecutive gap
    must be at most half the previous one.  The crossings are compared on
    their x-coordinates times 2D, the ints S_i + S_j for j != i: line i
    has direction (1, 2 s_i), so x is an increasing affine function of the
    position along it, and neither that nor a positive scale changes the
    order or the gap ratios.
    """
    for i, si in enumerate(arr.s):
        xs = [si + sj for j, sj in enumerate(arr.s) if j != i]
        gaps = [b - a for a, b in zip(xs, xs[1:])]
        if not (all(g > 0 for g in gaps) or all(g < 0 for g in gaps)):
            return False
        if any(2 * abs(g_next) > abs(g_prev) for g_prev, g_next in zip(gaps, gaps[1:])):
            return False
    return True


def build_line_arrangement(n: int) -> Arrangement:
    """Arrangement of n >= 3 lines satisfying the ordering/halving properties:
    the tangents to y = x**2 at s_i = (1 - 4**(1-i)) / 3 (module docstring)."""
    if n < 3:
        raise ConstructionError("need at least 3 lines")
    arr = Arrangement(s=tuple((4 ** (i - 1) - 1) // 3 * 4 ** (n - i) for i in range(1, n + 1)),
                      d=4 ** (n - 1))
    if not arrangement_ok(arr):
        raise ConstructionError(f"arrangement of {n} lines failed its exact re-check")
    return arr


# ---------------------------------------------------------------------------
# Lifted scenes
# ---------------------------------------------------------------------------


def _corner_order(i: int, nbr: list) -> list:
    """Corner order of line i's polygon, as the sorted indices `nbr` of its
    neighbours: the lower ones ascending, then the higher ones descending."""
    return [j for j in nbr if j < i] + [j for j in reversed(nbr) if j > i]


def _scene_from_contacts(g: Graph, order: list, contacts: dict, meta: dict) -> Scene:
    """Scene of g with contact point contacts[e] per edge e: the polygon of
    order[i-1], lifted from line i, has its edges' contacts as corners."""
    index = {v: i + 1 for i, v in enumerate(order)}
    polygons = {}
    for v in order:
        at = {index[w]: contacts[edge_key(v, w)] for w in g.neighbors(v)}
        corners = tuple(at[j] for j in _corner_order(index[v], sorted(at)))
        polygons[v] = Polygon3(corners=corners)
    return graph_scene(g, polygons, contacts, meta)


def _lift_scene(g: Graph, padded: Graph, arr: Arrangement, delta: Fraction) -> Scene:
    """Lift contacts of `padded` over the arrangement and retract the
    scene to g; delta lowers flat polygons."""
    order = list(padded.vertices)
    index = {v: i + 1 for i, v in enumerate(order)}
    contacts = {}
    for e in padded.edges:
        i, j = sorted(index[v] for v in e)
        x, y = arr.point(i, j)
        contacts[e] = (x, y, Fraction(i))
    # a polygon whose neighbours all come later would lie flat at z = i:
    # lower its contact with the first of them
    for v in order:
        j = min((index[w] for w in padded.neighbors(v)), default=0)
        if j > index[v]:
            e = edge_key(v, order[j - 1])
            x, y, z = contacts[e]
            contacts[e] = (x, y, z - delta)

    meta = {
        "construction": "complete" if len(g.edges) == g.n * (g.n - 1) // 2 else "min-degree-3",
        "arithmetic": "exact",
        "order": order,
        "delta": str(delta),
    }
    return retract(g, _scene_from_contacts(padded, order, contacts, {}), meta)


def _pad_to_min_degree3(g: Graph) -> Graph:
    """g plus a dummy K4, each vertex of degree d < 3 joined to 3 - d of
    its vertices; g itself when it has vertices, all of degree 3 or more."""
    low = [v for v in g.vertices if g.degree(v) < 3]
    if g.vertices and not low:
        return g
    k4 = dummy_labels(g, 4)
    pads = [(v, d) for v in low for d in k4[:3 - g.degree(v)]]
    return Graph(vertices=g.vertices + tuple(k4), edges=g.edges | frozenset(
        edge_key(u, v) for u, v in list(combinations(k4, 2)) + pads))


def represent_min_degree3(g: Graph) -> Scene:
    """Contact representation of any graph by convex polygons: g, padded
    to minimum degree 3, is lifted over an arrangement of lines, and the
    retracted scenes for delta = 1/2, 1/4, ... go to `certify`.  A vertex
    of degree below 3 gets a triangle."""
    padded = _pad_to_min_degree3(g)
    arr = build_line_arrangement(padded.n)
    return certify(_lift_scene(g, padded, arr, Fraction(1, 2 ** k))
                   for k in range(1, _MAX_HALVINGS + 1))


def represent_complete(n: int) -> Scene:
    """Contact representation of the complete graph on n >= 1 vertices.

    For n >= 4 every polygon has n-1 corners; for n <= 3 the graph is
    padded and every polygon is a triangle.
    """
    if n < 1:
        raise ConstructionError("need n >= 1")
    return represent_min_degree3(Graph.from_edges(
        [(str(i), str(j)) for i in range(1, n + 1) for j in range(i + 1, n + 1)],
        vertices=[str(i) for i in range(1, n + 1)]))


def strictify(scene: Scene) -> Scene:
    """Make all polygons strictly convex by lowering z-coordinates slightly.

    Each contact's z drops by delta divided by its position along the
    governing line (measured from that line's first contact), which bows
    formerly straight chains outward; over delta = 1/4, 1/8, ..., the
    perturbed scenes whose polygons are all strictly convex go to
    `certify`, and the first that passes is returned.  A vertex of degree
    below 3 (a padded lift) is a ConstructionError.
    """
    g: Graph = scene.structure
    low = [v for v in g.vertices if g.degree(v) < 3]
    if low:
        raise ConstructionError(f"strictify needs minimum degree 3; degree < 3: {low}")
    order = scene.meta.get("order") or list(g.vertices)
    index = {v: i + 1 for i, v in enumerate(order)}

    # 1D positions of contacts along each line, from that line's first contact
    pos = {}
    firsts = {}
    for v in order:
        pts = {index[w]: scene.contacts[edge_key(v, w)] for w in g.neighbors(v)}
        nbr = sorted(pts)
        first, last = pts[nbr[0]], pts[nbr[-1]]
        d = (last[0] - first[0], last[1] - first[1])
        pos[index[v]] = {j: (p[0] - first[0]) * d[0] + (p[1] - first[1]) * d[1]
                         for j, p in pts.items()}
        firsts[index[v]] = nbr[0]

    def candidates():
        for k in range(2, _MAX_HALVINGS + 2):
            delta = Fraction(1, 2 ** k)
            contacts = {}
            for e in g.edges:
                i, j = sorted(index[v] for v in e)
                x, y, z = scene.contacts[e]
                if j != firsts[i]:  # else the pair already lowered by the flatness rule
                    z -= delta / pos[i][j]
                contacts[e] = (x, y, z)
            candidate = _scene_from_contacts(g, order, contacts,
                                             dict(scene.meta, strictified=True))
            if all(polygon_properties(p).strictly_convex
                   for p in candidate.polygons.values()):
                yield candidate

    return certify(candidates())
