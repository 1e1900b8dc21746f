"""Scene certification: polygon validity, pairwise contacts, grid extents.

`verify_scene` re-derives the contact structure from the geometry alone and
compares it with what the scene's combinatorial structure demands:

* there is one polygon per graph vertex or hypergraph block, and no other,
* every polygon has at least 3 corners, not all collinear, and is planar,
  simple and convex,
* no pair of polygons violates the open-polygon contact model,
* graph scenes: each edge's two polygons share exactly one corner, distinct
  across edges, and non-adjacent polygons share none,
* hypergraph scenes: each vertex is one point that is a corner of exactly
  the blocks containing it, distinct across vertices, and two block
  polygons (found by `block_label`, never by parsing a label) share only
  their common vertices' points,
* the declared contact map coincides with the reconstruction, and
  declares no contact for a non-element (a non-edge or a non-vertex),
* every coordinate is finite,
* a `claimed_grid` in the scene's meta bounds its grid extent on each axis.

A point, a segment or a collinear corner list is a degenerate-polygon
violation; boundary touches are warnings, not failures.  Everything is
exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Optional

from .core import Record, block_label
from .geom import (Polygon3, classify_pair, polygon_properties,
                   BOUNDARY_TOUCH, DISJOINT, VIOLATION)
from .scene import GRAPH, ConstructionError, Scene


class Finding(Record):
    __slots__ = _fields = ("code", "where", "detail", "witness")

    def __init__(self, code: str, where: str, detail: str = "",
                 witness: Optional[tuple] = None):
        self.code = code
        self.where = where
        self.detail = detail
        self.witness = witness

    def __str__(self):
        w = f" at {_fmt_point(self.witness)}" if self.witness is not None else ""
        return f"[{self.code}] {self.where}: {self.detail}{w}"


def _fmt_point(p):
    return "(" + ", ".join(str(c) for c in p) + ")"


class VerificationReport(Record):
    __slots__ = _fields = ("passed", "polygon_properties", "pair_kinds", "reconstructed",
                           "violations", "warnings", "grid_extent")

    def __init__(self, passed: bool = False, polygon_properties: Optional[dict] = None,
                 pair_kinds: Optional[dict] = None, reconstructed: Optional[dict] = None,
                 violations: Optional[list] = None, warnings: Optional[list] = None,
                 grid_extent: Optional[GridExtent] = None):
        self.passed = passed
        self.polygon_properties = {} if polygon_properties is None else polygon_properties
        self.pair_kinds = {} if pair_kinds is None else pair_kinds  # (a,b) -> kind
        # contact key -> point
        self.reconstructed = {} if reconstructed is None else reconstructed
        self.violations = [] if violations is None else violations  # Finding
        self.warnings = [] if warnings is None else warnings  # Finding
        self.grid_extent = grid_extent  # measured for a claimed_grid

    def to_text(self) -> str:
        lines = [f"pass: {self.passed}",
                 f"polygons: {len(self.polygon_properties)}",
                 f"contacts reconstructed: {len(self.reconstructed)}"]
        counts = {}
        for kind in self.pair_kinds.values():
            counts[kind] = counts.get(kind, 0) + 1
        lines.append("pair kinds: " + ", ".join(
            f"{k}={v}" for k, v in sorted(counts.items())) if counts else "pair kinds: none")
        for f in self.violations:
            lines.append("violation " + str(f))
        for f in self.warnings:
            lines.append("warning " + str(f))
        return "\n".join(lines)

    def violation_codes(self) -> set:
        return {f.code for f in self.violations}


class GridExtent(NamedTuple):
    gx: int
    gy: int
    gz: int


class KernelScene:
    """A scene's polygons and contacts as the predicates see them.

    Polygons and contact points with a non-finite coordinate are set aside
    (`nonfinite_polygons`, `nonfinite_contacts`) and take no further part.
    The scene is scaled once by L, the lcm of every coordinate's
    denominator, so each corner and contact point becomes a tuple of ints:
    a coordinate n/d (an int, `Fraction` or float) becomes n * (L // d).
    Every predicate is a sign test, and positive scaling keeps signs.  Each
    polygon's frame (plane with a primitive int normal, drop axis, ccw 2D
    corners) is part of its `polygon_properties` record, which
    `verify_scene` builds once per polygon on these coordinates.

    Each distinct corner and contact point is interned once as its int
    tuple (scaling by L > 0 is one-to-one, so equal points and only those
    share an id and a tuple): `index[point]` is its id, `ids[label]` holds a
    polygon's corner ids (`corner_sets[label]` as a set) and
    `contact_ids[key]` a contact's id.  A graph contact point is usually
    one object held three times, as a corner of two polygons and as the
    contact, so occurrences are grouped by object first: the finiteness
    test, `as_integer_ratio` and the scaling run once per distinct object.
    The scene holds every object through the call, so identity is only a
    shortcut; interning stays by value, in first-seen order.

    On the ints the polygon checks, point location and the interval test
    of crossing pairs divide nothing.  `Fraction`s are built where two
    `_cut` intervals meet, for the midpoint and touch witnesses.  `unscale`
    turns a kernel point back into its scene coordinates, as `Fraction`s,
    and divides only other points (midpoints, interval ends) by L.
    """

    def __init__(self, scene: Scene):
        points = _point_objects(scene.polygons, scene.contacts)
        bad = {i for i, p in points.items() if not _finite(p)}
        self.nonfinite_polygons = {label for label, poly in scene.polygons.items()
                                   if not bad.isdisjoint(map(id, poly.corners))}
        self.nonfinite_contacts = {k for k, p in scene.contacts.items() if id(p) in bad}
        self.polygons = {label: poly for label, poly in scene.polygons.items()
                         if label not in self.nonfinite_polygons}
        contacts = {k: p for k, p in scene.contacts.items()
                    if k not in self.nonfinite_contacts}
        if bad:
            points = _point_objects(self.polygons, contacts)
        ratios = [(x.as_integer_ratio(), y.as_integer_ratio(), z.as_integer_ratio())
                  for x, y, z in points.values()]
        dens = {den for r in ratios for _, den in r}
        self.scale = math.lcm(*dens)
        factor = {den: self.scale // den for den in dens}
        keys = [(x * factor[dx], y * factor[dy], z * factor[dz])
                for (x, dx), (y, dy), (z, dz) in ratios]
        self.index = index = {}  # point -> id, in first-seen order
        for k in keys:
            index.setdefault(k, len(index))
        pid = {i: index[k] for i, k in zip(points, keys)}  # id(object) -> point id
        self.ids = {label: tuple(pid[id(c)] for c in poly.corners)
                    for label, poly in self.polygons.items()}
        self.contact_ids = {k: pid[id(p)] for k, p in contacts.items()}
        self._own = dict(zip(keys, points.values()))  # int point -> a scene point of it
        scaled = list(index)
        self.polygons = {label: Polygon3(tuple(scaled[i] for i in self.ids[label]))
                         for label in self.polygons}
        self.contacts = {k: scaled[self.contact_ids[k]] for k in contacts}
        self.corner_sets = {label: frozenset(ids) for label, ids in self.ids.items()}

    def unscale(self, p) -> tuple:
        """A point in the scene's own coordinates: a kernel point's own, as
        `Fraction`s, and any other point (a midpoint) divided by L."""
        own = self._own.get(p)
        if own is not None:
            return tuple(x if type(x) is Fraction else Fraction(x) for x in own)
        return tuple(Fraction(x, self.scale) for x in p)


def _point_objects(polygons: dict, contacts: dict) -> dict:
    """id(p) -> p for each corner and contact point object p, in first-seen
    order.  The caller holds every object, so no id is reused."""
    points = {id(c): c for poly in polygons.values() for c in poly.corners}
    points.update((id(p), p) for p in contacts.values())
    return points


def _ratio(x) -> tuple:
    """A scene coordinate (int, Fraction or float) as its normalised
    (numerator, denominator) pair, so equal values give equal pairs; a
    non-finite float stays itself."""
    if type(x) is float and not math.isfinite(x):
        return x
    return x.as_integer_ratio()


def _finite(p) -> bool:
    return all(math.isfinite(x) for x in p if isinstance(x, float))


def _box_overlaps(kernel: KernelScene, labels: list) -> set:
    """The label pairs (a, b), a < b, whose closed axis-aligned corner boxes
    meet: sweep over the boxes sorted by low x, test y and z, exactly on
    the kernel's int corners."""
    boxes = []
    for label in labels:
        xs, ys, zs = zip(*kernel.polygons[label].corners)
        boxes.append((min(xs), max(xs), min(ys), max(ys), min(zs), max(zs), label))
    boxes.sort()
    meet = set()
    for i, (_, x1, y0, y1, z0, z1, a) in enumerate(boxes):
        for j in range(i + 1, len(boxes)):
            u0, _, v0, v1, w0, w1, b = boxes[j]
            if u0 > x1:
                break
            if v0 <= y1 and y0 <= v1 and w0 <= z1 and z0 <= w1:
                meet.add((a, b) if a < b else (b, a))
    return meet


def verify_scene(scene: Scene) -> VerificationReport:
    """Certify a scene; all findings are collected into the report."""
    report = VerificationReport()
    kernel = KernelScene(scene)

    expected = scene.expected_polygon_labels()
    for label in sorted(expected - scene.polygons.keys()):
        report.violations.append(Finding("missing-polygon", label,
                                         "no polygon for this element"))
    for label in sorted(scene.polygons.keys() - expected):
        report.violations.append(Finding("foreign-polygon", label,
                                         "polygon of no element"))

    labels = sorted(scene.polygons)
    valid = {}
    for label in labels:
        if label in kernel.nonfinite_polygons:
            report.violations.append(Finding("non-finite", label,
                                             "corner with a non-finite coordinate"))
            valid[label] = False
            continue
        props = polygon_properties(kernel.polygons[label])
        report.polygon_properties[label] = props
        valid[label] = props.planar and props.simple
        if props.plane is None:
            report.violations.append(Finding("degenerate-polygon", label,
                                             "; ".join(props.issues)))
        elif not props.planar:
            report.violations.append(Finding("nonplanar", label, "; ".join(props.issues)))
        elif not props.simple:
            report.violations.append(Finding("not-simple", label, "; ".join(props.issues)))
        elif not props.convex:
            report.violations.append(Finding("not-convex", label))
            valid[label] = False
        if props.issues and valid[label]:
            report.warnings.append(Finding("polygon-issues", label, "; ".join(props.issues)))
    for key in sorted(kernel.nonfinite_contacts, key=_key_str):
        report.violations.append(Finding("non-finite", _key_str(key),
                                         "contact point with a non-finite coordinate"))

    # Pairwise classification; shared corners, as (id, point) pairs, feed
    # the reconstruction.  Pairs whose closed boxes are disjoint share no
    # point, so they are Disjoint unclassified.
    meet = _box_overlaps(kernel, [label for label in labels if valid[label]])
    shared = {}
    for a, b in combinations(labels, 2):
        if not (valid[a] and valid[b]):
            continue
        if (a, b) not in meet:
            report.pair_kinds[a, b] = DISJOINT
            continue
        cls = classify_pair(kernel.polygons[a], kernel.polygons[b],
                            report.polygon_properties[a], report.polygon_properties[b])
        key = a, b  # labels are sorted
        report.pair_kinds[key] = cls.kind
        if cls.kind == VIOLATION:
            for reason, witness in cls.violations:
                report.violations.append(Finding(reason, f"{a} / {b}", witness=tuple(witness)))
        if cls.kind == BOUNDARY_TOUCH:
            w = cls.touch_witnesses[0] if cls.touch_witnesses else None
            report.warnings.append(Finding("boundary-touch", f"{a} / {b}",
                                           witness=tuple(w) if w else None))
        if cls.shared_corners:
            shared[key] = [(kernel.index[c], c) for c in cls.shared_corners]

    _reconstruct(scene, kernel, shared, report)
    expected = scene.expected_contact_keys()
    for key in scene.contacts:
        if key not in expected:
            report.violations.append(Finding(
                "declared-mismatch", _key_str(key),
                "declared contact for a non-element"))
    if "claimed_grid" in scene.meta:
        _check_grid_claim(scene, report)

    for f in report.violations + report.warnings:
        if f.witness is not None:
            f.witness = kernel.unscale(f.witness)
    report.reconstructed = {k: kernel.unscale(p) for k, (_, p) in report.reconstructed.items()}
    report.passed = not report.violations
    return report


def certify(candidates) -> Scene:
    """The first of the scenes `candidates`, verified lazily in order, that
    passes `verify_scene`, with that report as its `certificate`; else
    ConstructionError naming the construction and the last one's first
    violation.  Every constructor returns its scene through here."""
    scene = None
    for scene in candidates:
        report = verify_scene(scene)
        if report.passed:
            scene.certificate = report
            return scene
    raise ConstructionError("no candidate scene" if scene is None else
                            f"{scene.meta['construction']} scene fails "
                            f"verification: {report.violations[0]}")


def _reconstruct(scene: Scene, kernel: KernelScene, shared: dict,
                 report: VerificationReport):
    """Compare geometric corner sharing with the structure-implied contacts.

    Points are matched by id; `report.reconstructed` maps each contact key
    to an (id, point) pair.
    """
    contacts = kernel.contacts
    if scene.kind == GRAPH:
        g = scene.structure
        for key, pts in sorted(shared.items()):
            a, b = key
            if not g.adjacent(a, b):
                report.violations.append(Finding(
                    "shared-corner-without-edge", f"{a} / {b}",
                    witness=pts[0][1]))
        recon = {}
        for e in sorted(g.edges, key=sorted):
            u, v = sorted(e)
            pts = shared.get((u, v), [])
            if not pts:
                report.violations.append(Finding("missing-contact", f"{u} / {v}",
                                                 "polygons do not share a corner"))
            elif len(pts) > 1:
                report.violations.append(Finding(
                    "contact-count", f"{u} / {v}",
                    f"{len(pts)} shared corners, expected 1", witness=pts[0][1]))
            else:
                recon[e] = pts[0]
        report.reconstructed = recon
        _check_distinct(recon, report)
        _check_declared(scene, kernel, recon, report)
        return

    # hypergraph: reconstruct one point per vertex from the declared map,
    # then check corner incidence matches block membership exactly.
    h = scene.structure
    recon = {}
    labels = sorted(kernel.polygons)
    for v in h.vertices:
        want = scene.polygons_for_contact(v)
        if v in kernel.nonfinite_contacts:
            continue
        if v not in contacts:
            report.violations.append(Finding("missing-contact", v, "no declared point"))
            continue
        p, pid = contacts[v], kernel.contact_ids[v]
        ok = True
        for label in labels:
            is_corner = pid in kernel.corner_sets[label]
            if label in want and not is_corner:
                report.violations.append(Finding(
                    "missing-contact", f"{v} in {label}",
                    "vertex point is not a corner of its block polygon", witness=p))
                ok = False
            if label not in want and is_corner:
                report.violations.append(Finding(
                    "shared-corner-without-edge", f"{v} / {label}",
                    "vertex point is a corner of a foreign block", witness=p))
                ok = False
        if ok:
            recon[v] = pid, p
    # blocks sharing vertices must share exactly those corner points; a
    # polygon label that names no block stands for no vertex
    block_of = {block_label(b): b for b in h.blocks}
    for key, pts in sorted(shared.items()):
        la, lb = key
        common = block_of.get(la, frozenset()) & block_of.get(lb, frozenset())
        expect = {kernel.contact_ids[v] for v in common if v in contacts}
        for i, p in pts:
            if i not in expect:
                report.violations.append(Finding(
                    "shared-corner-without-edge", f"{la} / {lb}",
                    "blocks share a corner that is no common vertex", witness=p))
    report.reconstructed = recon
    _check_distinct(recon, report)


def _check_distinct(recon: dict, report: VerificationReport):
    """A merged-contacts finding for each two contacts on one point, in
    `_key_str` order; contacts are grouped by id, not compared pairwise."""
    items = sorted(recon.items(), key=lambda kv: _key_str(kv[0]))
    at = {}  # id -> positions in items
    for pos, (_, (i, _)) in enumerate(items):
        at.setdefault(i, []).append(pos)
    for pos, (k1, (i, p1)) in enumerate(items):
        for other in (q for q in at[i] if q > pos):
            report.violations.append(Finding(
                "merged-contacts", f"{_key_str(k1)} / {_key_str(items[other][0])}",
                "two contacts share one point", witness=p1))


def _key_str(k):
    return "-".join(sorted(k)) if isinstance(k, frozenset) else str(k)


def _check_declared(scene: Scene, kernel: KernelScene, recon: dict,
                    report: VerificationReport):
    expected = scene.expected_contact_keys()
    for key in sorted(expected, key=_key_str):
        if key in kernel.nonfinite_contacts:
            continue
        declared = kernel.contacts.get(key)
        if declared is None:
            report.violations.append(Finding(
                "declared-mismatch", _key_str(key), "no declared contact"))
            continue
        got = recon.get(key)
        if got is not None and got[0] != kernel.contact_ids[key]:
            report.violations.append(Finding(
                "declared-mismatch", _key_str(key),
                "declared point differs from reconstruction", witness=declared))


def _check_grid_claim(scene: Scene, report: VerificationReport):
    """Compare each axis of the grid extent with the scene's claim, and keep
    the extent on the report."""
    claim = scene.meta["claimed_grid"]
    if not (isinstance(claim, dict) and set(claim) == {"x", "y", "z"}
            and all(type(v) is int and v >= 0 for v in claim.values())):
        report.violations.append(Finding(
            "grid-claim-malformed", "claimed_grid",
            f"{claim!r} is not x, y, z mapped to non-negative ints"))
        return
    ext = report.grid_extent = grid_extent(scene)
    for axis, got in zip("xyz", ext):
        if got > claim[axis]:
            report.violations.append(Finding(
                "grid-claim-exceeded", f"axis {axis}",
                f"extent {got} exceeds the claimed {claim[axis]}"))


def grid_extent(scene: Scene) -> GridExtent:
    """Per-axis count of distinct coordinate values over all corners.

    This is the grid-line counting convention (a drawing in the xy-plane
    has z-extent 1).  Each axis counts the distinct (numerator,
    denominator) pairs of its values, read once per point object.
    """
    pts = {id(p): p for p in scene.all_points()}.values()
    return GridExtent(*(len({_ratio(p[i]) for p in pts}) for i in range(3)))
