"""Steiner-system drawings and non-realizability certificates.

The two smallest triple systems get explicit triangle drawings: the Fano
plane from two stacked unit equilateral triangles (the upper one rotated
by alpha) plus a center vertex, and S(2,3,9) from a unit triangle, a
shrunk rotated copy one unit up, two axis vertices and a ninth vertex
computed as a plane-intersection point lifted slightly.  Both are laid
out in floats and their vertices rounded to multiples of 2^-40
(`round_point`); a triangle stays planar whatever its corners.  Both
constructors verify their scene (`verify.certify`) and raise
`ConstructionError` if it fails.

For quadruple systems the obstructions are combinatorial: a seven-block
pattern that forbids all-convex and all-non-convex quadrilateral drawings,
and link-graph edge counting that exceeds planarity bounds once the vertex
count passes 8 (convex case) or reaches 18 (any quadrilaterals).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations
from typing import Optional

from .core import (Frozen, Hypergraph, InputError, Record, SteinerDescriptor, block_label,
                   validate_steiner)
from .geom import Polygon3, _plane_of, round_point, vcross, vdot, vscale, vsub
from .scene import ConstructionError, Scene, hypergraph_scene
from .verify import certify
from .core import builtin_system


class FanoParams(Frozen):
    _fields = ("alpha",)

    def __init__(self, alpha: float = 85.0):  # degrees, 0 < alpha < 120, alpha != 60
        object.__setattr__(self, "alpha", alpha)

    def validate(self):
        if not (0.0 < self.alpha < 120.0) or abs(self.alpha - 60.0) < 1e-12:
            raise ConstructionError(
                "alpha must lie in (0, 120) degrees and differ from 60")


S239_SCALE = 0.2  # top triangle shrink factor
S239_LIFT = 0.1   # z offset of vertex 7 above the cut point


class S239Params(Frozen):
    _fields = ("beta",)

    def __init__(self, beta: float = 45.0):  # degrees; < 60 keeps the upper triangles apart
        object.__setattr__(self, "beta", beta)

    def validate(self):
        if not (0.0 < self.beta < 60.0):
            raise ConstructionError("beta must lie in (0, 60) degrees")


def _unit_triangle(labels, z, angle_offset=0.0, scale=1.0):
    """Corners of a unit equilateral triangle centered on the z-axis.

    labels are assigned counterclockwise starting at angle 90 + offset.
    """
    r = scale / math.sqrt(3.0)
    pts = {}
    for j, lab in enumerate(labels):
        ang = math.radians(90.0 + 120.0 * j + angle_offset)
        pts[lab] = (r * math.cos(ang), r * math.sin(ang), z)
    return pts


def represent_fano(params: FanoParams = FanoParams()) -> Scene:
    """Non-crossing triangle drawing of the Fano plane S(2,3,7)."""
    params.validate()
    h = builtin_system("S237")
    pos = {}
    pos.update(_unit_triangle(["6", "4", "2"], 0.0))
    pos.update(_unit_triangle(["3", "5", "7"], 1.0, angle_offset=params.alpha))
    pos["1"] = (0.0, 0.0, 0.5)
    pos = {v: round_point(p) for v, p in pos.items()}

    polygons = {}
    contacts = {v: pos[v] for v in h.vertices}
    for b in h.blocks:
        polygons[block_label(b)] = Polygon3(corners=tuple(pos[v] for v in sorted(b)))
    meta = {"construction": "fano", "arithmetic": "exact",
            "alpha_degrees": params.alpha}
    return certify([hypergraph_scene(h, polygons, contacts, meta)])


def represent_s239(params: S239Params = S239Params()) -> Scene:
    """Non-crossing triangle drawing of the triple system S(2,3,9).

    Vertices 8, 5, 2 span a unit triangle in the floor plane, 3, 6, 9 its
    copy lifted one unit, rotated by beta and shrunk about its center;
    1 and 4 sit on the axis at heights 3/4 and 1/4.  Vertex 7 is the
    intersection of the planes through 3-5-8 and 2-6-9 with the vertical
    plane through 8 and 9, lifted by S239_LIFT (it must stay below the
    plane through 1-2-3).
    """
    params.validate()
    h = builtin_system("S239")
    pos = {}
    # floor triangle 8-5-2 ccw with vertex 2 on the +y axis; the shrunk
    # copy maps 8 -> 3, 5 -> 6, 2 -> 9
    pos.update(_unit_triangle(["2", "8", "5"], 0.0))
    pos.update(_unit_triangle(["9", "3", "6"], 1.0, angle_offset=params.beta,
                              scale=S239_SCALE))
    pos["1"] = (0.0, 0.0, 0.75)
    pos["4"] = (0.0, 0.0, 0.25)

    n1, d1 = _plane_of((pos["3"], pos["5"], pos["8"]))
    n2, d2 = _plane_of((pos["2"], pos["6"], pos["9"]))
    # vertical plane through 8 and 9
    e89 = vsub(pos["9"], pos["8"])
    n3 = vcross(e89, (0.0, 0.0, 1.0))
    d3 = vdot(n3, pos["8"])
    det = vdot(n1, vcross(n2, n3))
    if abs(det) < 1e-12:
        raise ConstructionError("cut planes do not meet in a point")
    p = tuple((d1 * vcross(n2, n3)[k] + d2 * vcross(n3, n1)[k]
               + d3 * vcross(n1, n2)[k]) / det for k in range(3))
    seven = (p[0], p[1], p[2] + S239_LIFT)
    n123, d123 = _plane_of((pos["1"], pos["2"], pos["3"]))
    side_origin = vdot(n123, (0.0, 0.0, -10.0)) - d123
    side_seven = vdot(n123, seven) - d123
    if side_seven * side_origin <= 0:
        raise ConstructionError("lift places vertex 7 above the top plane")
    pos["7"] = seven
    pos = {v: round_point(p) for v, p in pos.items()}

    polygons = {}
    contacts = {v: pos[v] for v in h.vertices}
    for b in h.blocks:
        polygons[block_label(b)] = Polygon3(corners=tuple(pos[v] for v in sorted(b)))
    meta = {"construction": "s239", "arithmetic": "exact",
            "beta_degrees": params.beta, "scale": S239_SCALE,
            "lift": S239_LIFT, "cut_point": p}
    return certify([hypergraph_scene(h, polygons, contacts, meta)])


# ---------------------------------------------------------------------------
# Obstructions
# ---------------------------------------------------------------------------

# the seven-block pattern over letters a..z ruling out uniform-convexity
# quadrilateral drawings
_PATTERN = ("abcd", "abuv", "cduv", "acwx", "bdwx", "adyz", "bcyz")


def find_obstruction_pattern(h: Hypergraph) -> Optional[dict]:
    """First assignment of the seven-block obstruction pattern in h.

    Searches blocks of h (4-uniform required) for {abcd, abuv, cduv, acwx,
    bdwx, adyz, bcyz} on ten distinct vertices; returns the letter
    assignment or None.  Lexicographic over ordered block choices, with the
    abcd block fixed by index order.
    """
    for b in h.blocks:
        if len(b) != 4:
            raise InputError("hypergraph is not 4-uniform")
    blocks = sorted(frozenset(b) for b in h.blocks)
    block_set = set(blocks)

    for base in blocks:
        # try assignments of a, b, c, d over the base block
        for perm in permutations(sorted(base)):
            a, b, c, d = perm
            found = _complete_pattern(a, b, c, d, block_set)
            if found is not None:
                assignment = {"a": a, "b": b, "c": c, "d": d}
                assignment.update(found)
                if _pattern_valid(assignment, block_set):
                    return assignment
    return None


def _complete_pattern(a, b, c, d, block_set):
    pairs = {"uv": (frozenset((a, b)), frozenset((c, d))),
             "wx": (frozenset((a, c)), frozenset((b, d))),
             "yz": (frozenset((a, d)), frozenset((b, c)))}
    out = {}
    used = {a, b, c, d}
    for letters, (p1, p2) in pairs.items():
        choice = None
        for blk in sorted(block_set):
            if not p1 < blk:
                continue
            rest = blk - p1
            if rest & used:
                continue
            partner = p2 | rest
            if frozenset(partner) in block_set:
                choice = tuple(sorted(rest))
                break
        if choice is None:
            return None
        out[letters[0]], out[letters[1]] = choice
        used |= set(choice)
    return out


def _pattern_valid(assignment, block_set):
    letters = [assignment[ch] for ch in "abcduvwxyz"]
    if len(set(letters)) != 10:
        return False
    for patt in _PATTERN:
        blk = frozenset(assignment[ch] for ch in patt)
        if blk not in block_set:
            return False
    return True


def pattern_assignment_valid(h: Hypergraph, assignment: dict) -> bool:
    """Check a letter assignment against the obstruction pattern in h."""
    block_set = {frozenset(b) for b in h.blocks}
    return _pattern_valid({k: str(v) for k, v in assignment.items()}, block_set)


CONVEX_QUAD_OBSTRUCTION = "ConvexQuadObstruction"
ANY_QUAD_OBSTRUCTION = "AnyQuadObstruction"
KNOWN_CASE_S348 = "KnownCase_S348"
INCONCLUSIVE = "Inconclusive"


class ObstructionCertificate(Record):
    _fields = ("kind", "n", "convex_link_edges", "any_link_edges", "planar_bound", "note")

    def __init__(self, kind: str, n: int, convex_link_edges: int, any_link_edges: int,
                 planar_bound: int, note: str = ""):
        self.kind = kind
        self.n = n
        self.convex_link_edges = convex_link_edges
        self.any_link_edges = any_link_edges
        self.planar_bound = planar_bound
        self.note = note

    def __str__(self):
        return (f"{self.kind}(n={self.n}, convex link edges "
                f"{self.convex_link_edges}, looser count {self.any_link_edges}, "
                f"planar bound {self.planar_bound})")


def counting_certificate(h: Hypergraph, d: SteinerDescriptor) -> ObstructionCertificate:
    """Non-realizability certificate for a Steiner quadruple system.

    Around any vertex the quadrilaterals cut a small sphere in a graph on
    n-1 vertices; splitting convex quadrilaterals in two gives
    (n-1)(n-2)/3 edges, beating the planar bound 3(n-1)-6 whenever n > 8,
    and even unsplit quadrilaterals give (n-1)(n-2)/6 edges, beating it
    for n >= 18.  n = 8 is settled separately by the projective argument.
    """
    ok, witness = validate_steiner(h, d)
    if not ok or (d.t, d.k) != (3, 4):
        raise InputError(f"not a Steiner quadruple system (witness {witness})")
    n = d.n
    convex_edges = (n - 1) * (n - 2) // 3
    any_edges = (n - 1) * (n - 2) // 6
    bound = 3 * (n - 1) - 6
    if any_edges > bound:
        kind = ANY_QUAD_OBSTRUCTION
        note = "no drawing with any quadrilaterals"
    elif n == 8:
        kind = KNOWN_CASE_S348
        note = "settled by the projective case analysis, not by counting"
    elif convex_edges > bound:
        kind = CONVEX_QUAD_OBSTRUCTION
        note = "no drawing with convex quadrilaterals"
    else:
        kind = INCONCLUSIVE
        note = "counting alone is inconclusive"
    return ObstructionCertificate(kind=kind, n=n, convex_link_edges=convex_edges,
                                  any_link_edges=any_edges, planar_bound=bound,
                                  note=note)


# ---------------------------------------------------------------------------
# Coplanarity analyses
# ---------------------------------------------------------------------------


def max_coplanar_vertices(scene: Scene):
    """Largest number of contact points on one plane.

    Returns (count, plane, vertex names): the plane, from `_plane_of`, is
    that of the first contact triple (in `combinations` order) reaching the
    count, and the names are sorted.  A graph contact is named by its two
    vertices, sorted and joined by "-" (`a-b`), and contacts are ordered
    by that name, so neither depends on `PYTHONHASHSEED`.  One pass over
    the triples, O(m^3): each plane, keyed by its primitive int normal
    (leading entry positive) and offset on the contacts scaled to ints,
    collects its triples' contacts, and every contact on a plane is in a
    triple with two of the plane's first triple.
    """
    pts = sorted(((k if isinstance(k, str) else "-".join(sorted(k)), tuple(p))
                  for k, p in scene.contacts.items()), key=lambda np: np[0])
    if len(pts) < 3:
        raise InputError("need at least 3 contact points")
    best = (0, None, [])
    coords = [tuple(map(Fraction, p)) for _, p in pts]
    scale = math.lcm(*(x.denominator for p in coords for x in p))
    ints = [tuple(int(x * scale) for x in p) for p in coords]
    planes = {}  # (normal, offset) -> (first triple, member indices)
    for t in combinations(range(len(pts)), 3):
        plane = _plane_of([ints[i] for i in t])
        if plane is None:
            continue
        n, d = plane
        if next(c for c in n if c) < 0:
            n, d = tuple(-c for c in n), -d
        planes.setdefault((n, d), (t, set()))[1].update(t)
    for t, members in planes.values():
        if len(members) > best[0]:
            best = (len(members), _plane_of([pts[i][1] for i in t]),
                    [pts[i][0] for i in sorted(members)])
    return best


def coplanar_polygon_pairs(scene: Scene):
    """Unordered polygon pairs whose supporting planes coincide: parallel
    normals na, nb and offsets with da * nb == db * na."""
    planes = {}
    for label in sorted(scene.polygons):
        plane = _plane_of(scene.polygons[label].corners)
        if plane is not None:
            planes[label] = plane
    out = []
    for a, b in combinations(sorted(planes), 2):
        (na, da), (nb, db) = planes[a], planes[b]
        if not any(vcross(na, nb)) and vscale(nb, da) == vscale(na, db):
            out.append((a, b))
    return out
