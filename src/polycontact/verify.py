"""Scene certification: polygon validity, pairwise contacts, grid extents.

`verify_scene` re-derives the contact structure from the geometry alone and
compares it with what the scene's combinatorial structure demands:

* there is one polygon per graph vertex or hypergraph block, and no other,
* every polygon is planar and simple (convex when claimed),
* no pair of polygons violates the open-polygon contact model,
* graph scenes: each edge's two polygons share exactly one corner, distinct
  across edges, and non-adjacent polygons share none,
* hypergraph scenes: each vertex is one point that is a corner of exactly
  the blocks containing it, distinct across vertices,
* the declared contact map coincides with the reconstruction.

Boundary touches and degenerate (point/segment) polygons are warnings, not
failures.  Everything is exact in exact mode; float scenes use the scene
epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Optional

from .geom import (ArithmeticContext, Polygon3, classify_pair, polygon_frame,
                   polygon_properties, BOUNDARY_TOUCH, VIOLATION)
from .scene import GRAPH, Scene


@dataclass
class Finding:
    code: str
    where: str
    detail: str = ""
    witness: Optional[tuple] = None

    def __str__(self):
        w = f" at {_fmt_point(self.witness)}" if self.witness is not None else ""
        return f"[{self.code}] {self.where}: {self.detail}{w}"


def _fmt_point(p):
    return "(" + ", ".join(str(c) for c in p) + ")"


@dataclass
class VerificationReport:
    passed: bool = False
    polygon_properties: dict = field(default_factory=dict)
    pair_kinds: dict = field(default_factory=dict)  # (a,b) -> kind
    reconstructed: dict = field(default_factory=dict)  # contact key -> point
    violations: list = field(default_factory=list)  # Finding
    warnings: list = field(default_factory=list)  # Finding

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
    approximate: bool = False


def _pair_label(a: str, b: str):
    return tuple(sorted((a, b)))


class KernelScene:
    """A scene's polygons and contacts as the predicates see them.

    Exact scenes are scaled once by L, the lcm of every coordinate's
    denominator, so each corner and contact point becomes a tuple of ints,
    and equal points become one shared tuple.  Every predicate is a sign
    test, and positive scaling keeps signs.  Float scenes are taken as they
    are (L = 1).  Each polygon's frame (plane with a primitive int normal,
    drop axis, ccw 2D corners) is built once, on first use.

    On these ints the polygon checks, point location and transversal chord
    clipping divide nothing.  `Fraction`s are built for the two winning
    chord bounds of a transversal pair and the midpoint and touch witnesses
    derived from them, by the point/segment classifiers, and by `unscale`.
    """

    def __init__(self, scene: Scene, ctx: ArithmeticContext):
        self.ctx = ctx
        self.scale = 1
        self.polygons = scene.polygons
        self.contacts = scene.contacts
        if ctx.exact:
            pts = {tuple(c) for poly in scene.polygons.values() for c in poly.corners}
            pts.update(tuple(p) for p in scene.contacts.values())
            self.scale = math.lcm(*{Fraction(x).denominator for p in pts for x in p})
            scaled = {p: tuple(int(Fraction(x) * self.scale) for x in p) for p in pts}
            self.polygons = {label: Polygon3(tuple(scaled[tuple(c)] for c in poly.corners),
                                             poly.claimed_convex)
                             for label, poly in scene.polygons.items()}
            self.contacts = {k: scaled[tuple(p)] for k, p in scene.contacts.items()}
        self._frames = {}

    def frame(self, label: str):
        fr = self._frames.get(label)
        if fr is None:
            fr = self._frames[label] = polygon_frame(self.polygons[label], self.ctx)
        return fr

    def unscale(self, p) -> tuple:
        """A point in the scene's own coordinates."""
        if not self.ctx.exact:
            return tuple(p)
        return tuple(Fraction(x, self.scale) for x in p)


def verify_scene(scene: Scene, ctx: Optional[ArithmeticContext] = None,
                 eps: Optional[float] = None) -> VerificationReport:
    """Certify a scene; all findings are collected into the report."""
    if ctx is None:
        ctx = scene.context(eps=eps)
    report = VerificationReport()
    kernel = KernelScene(scene, ctx)

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
        poly = kernel.polygons[label]
        props = polygon_properties(poly, ctx)
        report.polygon_properties[label] = props
        valid[label] = props.planar and (props.simple or props.degenerate)
        if not props.planar:
            report.violations.append(Finding("nonplanar", label, "; ".join(props.issues)))
        elif not props.simple and not props.degenerate:
            report.violations.append(Finding("not-simple", label, "; ".join(props.issues)))
        elif poly.claimed_convex and not props.degenerate and not props.convex:
            report.violations.append(Finding("not-convex", label))
            valid[label] = False
        if props.degenerate:
            report.warnings.append(Finding("degenerate-polygon", label, poly.kind))
        if props.issues and valid[label]:
            report.warnings.append(Finding("polygon-issues", label, "; ".join(props.issues)))

    # Pairwise classification; shared corners feed the reconstruction.
    shared = {}
    for a, b in combinations(labels, 2):
        if not (valid[a] and valid[b]):
            continue
        cls = classify_pair(kernel.polygons[a], kernel.polygons[b], ctx,
                            kernel.frame(a), kernel.frame(b))
        key = _pair_label(a, b)
        report.pair_kinds[key] = cls.kind
        if cls.kind == VIOLATION:
            for reason, witness in cls.violations:
                report.violations.append(Finding(reason, f"{a} / {b}", witness=tuple(witness)))
        if cls.kind == BOUNDARY_TOUCH:
            w = cls.touch_witnesses[0] if cls.touch_witnesses else None
            report.warnings.append(Finding("boundary-touch", f"{a} / {b}",
                                           witness=tuple(w) if w else None))
        if cls.shared_corners:
            shared[key] = cls.shared_corners

    _reconstruct(scene, kernel, shared, report)

    for f in report.violations + report.warnings:
        if f.witness is not None:
            f.witness = kernel.unscale(f.witness)
    report.reconstructed = {k: kernel.unscale(p) for k, p in report.reconstructed.items()}
    report.passed = not report.violations
    return report


def _reconstruct(scene: Scene, kernel: KernelScene, shared: dict,
                 report: VerificationReport):
    """Compare geometric corner sharing with the structure-implied contacts."""
    ctx, contacts = kernel.ctx, kernel.contacts
    if scene.kind == GRAPH:
        g = scene.structure
        for key, pts in sorted(shared.items()):
            a, b = key
            if not g.adjacent(a, b):
                report.violations.append(Finding(
                    "shared-corner-without-edge", f"{a} / {b}",
                    witness=tuple(pts[0])))
        recon = {}
        for e in sorted(g.edges, key=sorted):
            u, v = sorted(e)
            pts = shared.get(_pair_label(u, v), [])
            if not pts:
                report.violations.append(Finding("missing-contact", f"{u} / {v}",
                                                 "polygons do not share a corner"))
            elif len(pts) > 1:
                report.violations.append(Finding(
                    "contact-count", f"{u} / {v}",
                    f"{len(pts)} shared corners, expected 1", witness=tuple(pts[0])))
            else:
                recon[e] = pts[0]
        report.reconstructed = recon
        _check_distinct(recon, ctx, report)
        _check_declared(scene, contacts, recon, ctx, report)
        return

    # hypergraph: reconstruct one point per vertex from the declared map,
    # then check corner incidence matches block membership exactly.
    h = scene.structure
    recon = {}
    for v in h.vertices:
        want = scene.polygons_for_contact(v)
        if v not in contacts:
            report.violations.append(Finding("missing-contact", v, "no declared point"))
            continue
        p = tuple(contacts[v])
        ok = True
        for label in sorted(kernel.polygons):
            poly = kernel.polygons[label]
            is_corner = any(ctx.point_eq(p, c) for c in poly.corners)
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
            recon[v] = p
    # blocks sharing vertices must share exactly those corner points
    for key, pts in sorted(shared.items()):
        la, lb = key
        ba = frozenset(la.split(","))
        bb = frozenset(lb.split(","))
        common = ba & bb
        expect = {tuple(contacts[v]) for v in common if v in contacts}
        for p in pts:
            if not any(ctx.point_eq(tuple(p), q) for q in expect):
                report.violations.append(Finding(
                    "shared-corner-without-edge", f"{la} / {lb}",
                    "blocks share a corner that is no common vertex", witness=tuple(p)))
    report.reconstructed = recon
    _check_distinct(recon, ctx, report)


def _check_distinct(recon: dict, ctx, report: VerificationReport):
    items = sorted(recon.items(), key=lambda kv: str(kv[0]))
    for (k1, p1), (k2, p2) in combinations(items, 2):
        if ctx.point_eq(p1, p2):
            report.violations.append(Finding(
                "merged-contacts", f"{_key_str(k1)} / {_key_str(k2)}",
                "two contacts share one point", witness=tuple(p1)))


def _key_str(k):
    return "-".join(sorted(k)) if isinstance(k, frozenset) else str(k)


def _check_declared(scene: Scene, contacts: dict, recon: dict, ctx,
                    report: VerificationReport):
    for key in scene.expected_contact_keys():
        declared = contacts.get(key)
        if declared is None:
            report.violations.append(Finding(
                "declared-mismatch", _key_str(key), "no declared contact"))
            continue
        got = recon.get(key)
        if got is not None and not ctx.point_eq(tuple(declared), got):
            report.violations.append(Finding(
                "declared-mismatch", _key_str(key),
                "declared point differs from reconstruction",
                witness=tuple(declared)))
    for key in contacts:
        if key not in scene.expected_contact_keys():
            report.violations.append(Finding(
                "declared-mismatch", _key_str(key),
                "declared contact for a non-element"))


def grid_extent(scene: Scene, eps: Optional[float] = None) -> GridExtent:
    """Per-axis count of distinct coordinate values over all corners.

    This is the grid-line counting convention (a drawing in the xy-plane
    has z-extent 1).  Exact scenes count exactly; float scenes snap values
    within eps and are flagged approximate.
    """
    pts = list({tuple(p) for p in scene.all_points()})
    if not pts:
        return GridExtent(0, 0, 0)
    if scene.is_exact:
        counts = [len({p[i] for p in pts}) for i in range(3)]
        return GridExtent(*counts, approximate=False)
    if eps is None:
        eps = scene.meta.get("epsilon", 1e-9)
    counts = []
    for i in range(3):
        vals = sorted(float(p[i]) for p in pts)
        groups = 1
        for a, b in zip(vals, vals[1:]):
            if b - a > eps:
                groups += 1
        counts.append(groups)
    return GridExtent(*counts, approximate=True)
