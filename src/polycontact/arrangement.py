"""Contact representations for complete and min-degree-3 graphs.

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
S_i = (4**(i-1) - 1) / 3 * 4**(n-i), so the build makes each coordinate
as one `Fraction` of two ints, with a power-of-two denominator and at
most 4n bits.  One `arrangement_ok`, run on ints too, is its
certificate; the build raises if it fails.

Lifting intersection point p(i,j) to z = min(i,j) makes the convex hull of
each line's lifted points a polygon in a vertical plane; polygons of lines
i and j then meet exactly in the lifted p(i,j).  Every perturbation
("slightly reduce", strictification) is a power-of-two rational chosen by
halving until `verify_scene` passes the whole scene.  That report is the
only contact check here: the returned scene carries it as its
`certificate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from .core import Graph, edge_key
from .geom import Polygon3
from .scene import ConstructionError, Scene, graph_scene
from .verify import verify_scene

_MAX_HALVINGS = 128


@dataclass
class Arrangement:
    """n lines, given by their pairwise intersection points."""

    n: int
    points: dict  # frozenset({i,j}) -> (x, y)

    def point(self, i: int, j: int):
        return self.points[frozenset((i, j))]


def _monotone_halving(ts) -> bool:
    """ts is strictly monotone and each gap is at most half the one before."""
    inc = all(a < b for a, b in zip(ts, ts[1:]))
    dec = all(a > b for a, b in zip(ts, ts[1:]))
    if not (inc or dec):
        return False
    gaps = [abs(b - a) for a, b in zip(ts, ts[1:])]
    return all(2 * g_next <= g_prev for g_prev, g_next in zip(gaps, gaps[1:]))


def arrangement_ok(arr: Arrangement) -> bool:
    """Exact re-check of the ordering and gap-halving properties.

    Along each line, intersections with the other lines must appear in
    index order (one direction or the other), and every consecutive gap
    must be at most half the previous one.  The crossings are compared on
    their x-coordinates, as ints over the line's least common denominator:
    line i has direction (1, 2 s_i), so x is an increasing affine function
    of the position along it, which keeps both the order and the gap
    ratios.  `audit_arrangement` is the independent check, which assumes
    no direction.
    """
    for i in range(1, arr.n + 1):
        try:
            xs = [arr.point(i, j)[0] for j in range(1, arr.n + 1) if j != i]
        except KeyError:
            return False
        d = lcm(*(x.denominator for x in xs))
        if not _monotone_halving([x.numerator * (d // x.denominator) for x in xs]):
            return False
    return True


def audit_arrangement(arr):
    """Independent ordering/halving audit, recomputed from raw points.

    Uses squared distances only (never parameters from the construction's
    own bookkeeping): collinear points are ordered by projecting onto the
    extreme pair, and the halving inequality 2*d(next) <= d(prev) is
    checked via 4*d2(next) <= d2(prev) on squared lengths.
    """
    failures = []
    n = arr.n
    for i in range(1, n + 1):
        others = [j for j in range(1, n + 1) if j != i]
        pts = [arr.point(i, j) for j in others]
        first, last = pts[0], pts[-1]
        axis = (last[0] - first[0], last[1] - first[1])
        params = [(p[0] - first[0]) * axis[0] + (p[1] - first[1]) * axis[1]
                  for p in pts]
        inc = all(a < b for a, b in zip(params, params[1:]))
        dec = all(a > b for a, b in zip(params, params[1:]))
        if not (inc or dec):
            failures.append(("order", i))
            continue

        def d2(a, b):
            return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2

        gaps = [d2(pts[k], pts[k + 1]) for k in range(len(pts) - 1)]
        for k in range(len(gaps) - 1):
            if 4 * gaps[k + 1] > gaps[k]:
                failures.append(("halving", i, k))
    return failures


def build_line_arrangement(n: int) -> Arrangement:
    """Arrangement of n >= 3 lines satisfying the ordering/halving properties:
    the tangents to y = x**2 at s_i = (1 - 4**(1-i)) / 3 (module docstring)."""
    if n < 3:
        raise ConstructionError("need at least 3 lines")
    d = 4 ** (n - 1)
    s = {i: (4 ** (i - 1) - 1) // 3 * 4 ** (n - i) for i in range(1, n + 1)}
    arr = Arrangement(n=n, points={
        frozenset((i, j)): (Fraction(s[i] + s[j], 2 * d), Fraction(s[i] * s[j], d * d))
        for i in s for j in range(i + 1, n + 1)})
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


def _lift_scene(g: Graph, arr: Arrangement, delta: Fraction) -> Scene:
    """Lift contacts of g over the arrangement; delta lowers flat polygons."""
    order = list(g.vertices)
    index = {v: i + 1 for i, v in enumerate(order)}
    contacts = {}
    for e in g.edges:
        i, j = sorted(index[v] for v in e)
        x, y = arr.point(i, j)
        contacts[e] = (x, y, Fraction(i))
    # a polygon whose neighbours all come later would lie flat at z = i:
    # lower its contact with the first of them
    for v in order:
        j = min((index[w] for w in g.neighbors(v)), default=0)
        if j > index[v]:
            e = edge_key(v, order[j - 1])
            x, y, z = contacts[e]
            contacts[e] = (x, y, z - delta)

    meta = {
        "construction": "complete" if len(g.edges) == g.n * (g.n - 1) // 2 else "min-degree-3",
        "arithmetic": "exact",
        "order": order,
        "delta": str(delta),
        "degenerate": any(g.degree(v) < 3 for v in order),
    }
    return _scene_from_contacts(g, order, contacts, meta)


def _represent_lifted(g: Graph) -> Scene:
    """Lift g over an arrangement of g.n lines, halving delta until
    `verify_scene` certifies the scene."""
    arr = build_line_arrangement(g.n)
    delta = Fraction(1, 2)
    for _ in range(_MAX_HALVINGS):
        scene = _lift_scene(g, arr, delta)
        report = verify_scene(scene)
        if report.passed:
            scene.certificate = report
            return scene
        delta /= 2
    raise ConstructionError("perturbation backoff failed")  # pragma: no cover


def represent_min_degree3(g: Graph) -> Scene:
    """Contact representation by convex polygons for min-degree-3 graphs."""
    bad = [v for v in g.vertices if g.degree(v) < 3]
    if bad:
        raise ConstructionError(f"vertices of degree < 3: {bad}")
    return _represent_lifted(g)


def represent_complete(n: int) -> Scene:
    """Contact representation of the complete graph on n >= 3 vertices.

    Every polygon has at most n-1 corners; for n = 3 the polygons are
    segments and the scene is flagged degenerate.
    """
    if n < 3:
        raise ConstructionError("need n >= 3")
    return _represent_lifted(Graph.from_edges(
        [(str(i), str(j)) for i in range(1, n + 1) for j in range(i + 1, n + 1)],
        vertices=[str(i) for i in range(1, n + 1)]))


def strictify(scene: Scene) -> Scene:
    """Make all polygons strictly convex by lowering z-coordinates slightly.

    Each contact's z drops by delta divided by its position along the
    governing line (measured from that line's first contact), which bows
    formerly straight chains outward; delta is halved until the perturbed
    scene passes verification with every polygon strictly convex.
    """
    g: Graph = scene.structure
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

    delta = Fraction(1, 4)
    for _ in range(_MAX_HALVINGS):
        contacts = {}
        for e in g.edges:
            i, j = sorted(index[v] for v in e)
            x, y, z = scene.contacts[e]
            if j != firsts[i]:  # else the pair already lowered by the flatness rule
                z -= delta / pos[i][j]
            contacts[e] = (x, y, z)
        candidate = _scene_from_contacts(g, order, contacts, dict(scene.meta))
        report = verify_scene(candidate)
        if report.passed and all(
                props.strictly_convex or len(candidate.polygons[v].corners) < 3
                for v, props in report.polygon_properties.items()):
            candidate.meta["strictified"] = True
            candidate.certificate = report
            return candidate
        delta /= 2
    raise ConstructionError("strictification backoff failed")
