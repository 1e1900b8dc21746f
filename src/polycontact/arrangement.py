"""Contact representations for complete and min-degree-3 graphs.

The construction lifts an arrangement of n lines in the xy-plane whose
consecutive intersection gaps along every line at least halve (checked
exactly).  The arrangement is built incrementally: line i pivots around a
point fixed on line i-1 by the gap-halving equality, rotated clockwise by
a bisected rational amount.  Lines < i are fixed, so their intersection
points and each line's parameter list (in index order) are cached, and a
candidate for line i is tested on its i-1 new points only: each must
continue its old line's order and halving, and line i's own parameters
must be monotone with halving gaps.  One full `arrangement_ok` on the
finished arrangement is the certificate; the build raises if it fails.
Lifting intersection point p(i,j) to z = min(i,j) makes the convex hull of
each line's lifted points a polygon in a vertical plane; polygons of lines
i and j then meet exactly in the lifted p(i,j).

Coordinates are exact rationals throughout; every perturbation ("slightly
reduce", strictification) is a power-of-two rational chosen by halving
until `verify_scene` passes the whole scene.  That report is the only
contact check here: the returned scene carries it as its `certificate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .core import Graph, edge_key
from .geom import Polygon3
from .scene import ConstructionError, Scene, graph_scene
from .verify import verify_scene

_MAX_HALVINGS = 128


@dataclass
class Arrangement:
    """n lines (anchor, direction) and their pairwise intersection points."""

    n: int
    anchors: dict  # i -> (x, y)
    directions: dict  # i -> (dx, dy)
    points: dict  # frozenset({i,j}) -> (x, y)

    def point(self, i: int, j: int):
        return self.points[frozenset((i, j))]

    def param(self, i: int, j: int) -> Fraction:
        """Position of p(i,j) along line i (affine in arclength)."""
        ax, ay = self.anchors[i]
        dx, dy = self.directions[i]
        px, py = self.point(i, j)
        return ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)


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
    must be at most half the previous one, comparing 1D line parameters.
    """
    for i in range(1, arr.n + 1):
        try:
            ts = [arr.param(i, j) for j in range(1, arr.n + 1) if j != i]
        except KeyError:
            return False
        if not _monotone_halving(ts):
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


def _crossing(a1, d1, a2, d2):
    """Parameters (s, u) with a1 + s d1 = a2 + u d2, or None if parallel."""
    det = d1[0] * d2[1] - d1[1] * d2[0]
    if det == 0:
        return None
    rx, ry = a2[0] - a1[0], a2[1] - a1[1]
    return (rx * d2[1] - ry * d2[0]) / det, (rx * d1[1] - ry * d1[0]) / det


def _tilt_line(i: int, anchors, directions, points, params):
    """Anchor, direction and crossings (s, u) with lines 1..i-1 of line i."""
    prev = i - 1
    p2 = points[frozenset((prev, i - 2))]
    p3 = points[frozenset((prev, i - 3))]
    # gap-halving equality fixes the pivot past p(i-1, i-2)
    pivot = (p2[0] + (p2[0] - p3[0]) / 2, p2[1] + (p2[1] - p3[1]) / 2)
    d = directions[prev]
    t = Fraction(1, 2)
    for _ in range(_MAX_HALVINGS):
        cand = (d[0] + t * d[1], d[1] - t * d[0])  # clockwise tilt
        # Lines < i never move, so line i is accepted iff each p(j, i)
        # continues line j's order and halving, and line i's own
        # parameters are monotone with halving gaps.
        hits = []
        for j in range(1, i):
            hit = _crossing(anchors[j], directions[j], pivot, cand)
            if hit is None or not _monotone_halving(params[j][-2:] + [hit[0]]):
                break
            hits.append(hit)
        else:
            if _monotone_halving([u for _, u in hits]):
                return pivot, cand, hits
        t /= 2
    raise ConstructionError(f"bisection failed placing line {i}")


def build_line_arrangement(n: int) -> Arrangement:
    """Arrangement of n >= 3 lines satisfying the ordering/halving properties."""
    if n < 3:
        raise ConstructionError("need at least 3 lines")
    anchors = {
        1: (Fraction(0), Fraction(0)),
        2: (Fraction(0), Fraction(0)),
        3: (Fraction(1), Fraction(0)),
    }
    directions = {
        1: (Fraction(1), Fraction(0)),
        2: (Fraction(0), Fraction(-1)),
        3: (Fraction(-1), Fraction(-1)),
    }
    points = {}
    params = {1: []}  # line j -> parameters along j of p(j, k), k = 1, 2, ...
    for i in range(2, n + 1):
        if i <= 3:
            hits = [_crossing(anchors[j], directions[j], anchors[i], directions[i])
                    for j in range(1, i)]
        else:
            anchors[i], directions[i], hits = _tilt_line(i, anchors, directions,
                                                         points, params)
        params[i] = []
        for j, (s, u) in enumerate(hits, start=1):
            a, d = anchors[j], directions[j]
            points[frozenset((j, i))] = (a[0] + s * d[0], a[1] + s * d[1])
            params[j].append(s)
            params[i].append(u)

    arr = Arrangement(n=n, anchors=anchors, directions=directions, points=points)
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
    if not scene.is_exact:
        raise ConstructionError("strictify needs an exact scene")
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
