"""Pairwise reference for `verify_scene`: points are compared as tuples only.

It makes the checks `verify_scene` makes, in the same order and with the
same findings, but without a point index or a broad phase: every pair goes
through `classify_pair`, and shared corners, contacts and declared points
are compared pair by pair.  A `claimed_grid` is held against `grid_extent`
axis by axis.  Only `KernelScene`'s int scaling is reused, for speed;
witnesses are reported in scene coordinates.  Differential tests hold the
indexed verifier to it.
"""

import math
from itertools import combinations

from polycontact.core import block_label
from polycontact.geom import (BOUNDARY_TOUCH, VIOLATION, classify_pair,
                              polygon_properties)
from polycontact.scene import GRAPH
from polycontact.verify import Finding, KernelScene, grid_extent


def _finite(p):
    return all(math.isfinite(x) for x in p if isinstance(x, float))


def _key_str(k):
    return "-".join(sorted(k)) if isinstance(k, frozenset) else str(k)


def reference_verify(scene):
    """(violations, warnings, pair kinds, shared corners per pair,
    reconstructed contacts); findings as (code, where, detail, witness)."""
    viol, warn = [], []
    expected = scene.expected_polygon_labels()
    for label in sorted(expected - scene.polygons.keys()):
        viol.append(Finding("missing-polygon", label, "no polygon for this element"))
    for label in sorted(scene.polygons.keys() - expected):
        viol.append(Finding("foreign-polygon", label, "polygon of no element"))

    kernel = KernelScene(scene)
    polygons = {label: kernel.polygons[label] for label, poly in scene.polygons.items()
                if all(map(_finite, poly.corners))}
    contacts = {k: kernel.contacts[k] for k, p in scene.contacts.items() if _finite(p)}
    labels = sorted(scene.polygons)
    valid = {}
    for label in labels:
        if label not in polygons:
            viol.append(Finding("non-finite", label, "corner with a non-finite coordinate"))
            valid[label] = False
            continue
        props = polygon_properties(polygons[label])
        valid[label] = props.planar and props.simple
        if props.plane is None:
            viol.append(Finding("degenerate-polygon", label, "; ".join(props.issues)))
        elif not props.planar:
            viol.append(Finding("nonplanar", label, "; ".join(props.issues)))
        elif not props.simple:
            viol.append(Finding("not-simple", label, "; ".join(props.issues)))
        elif not props.convex:
            viol.append(Finding("not-convex", label))
            valid[label] = False
        if props.issues and valid[label]:
            warn.append(Finding("polygon-issues", label, "; ".join(props.issues)))
    for key in sorted(scene.contacts.keys() - contacts.keys(), key=_key_str):
        viol.append(Finding("non-finite", _key_str(key),
                            "contact point with a non-finite coordinate"))

    kinds, shared = {}, {}
    for a, b in combinations(labels, 2):
        if not (valid[a] and valid[b]):
            continue
        cls = classify_pair(polygons[a], polygons[b])
        kinds[(a, b)] = cls.kind
        if cls.kind == VIOLATION:
            for reason, witness in cls.violations:
                viol.append(Finding(reason, f"{a} / {b}", witness=tuple(witness)))
        if cls.kind == BOUNDARY_TOUCH:
            w = cls.touch_witnesses[0] if cls.touch_witnesses else None
            warn.append(Finding("boundary-touch", f"{a} / {b}",
                                witness=tuple(w) if w else None))
        if cls.shared_corners:
            shared[(a, b)] = [tuple(c) for c in cls.shared_corners]

    recon = {}
    if scene.kind == GRAPH:
        g = scene.structure
        for (a, b), pts in sorted(shared.items()):
            if not g.adjacent(a, b):
                viol.append(Finding("shared-corner-without-edge", f"{a} / {b}",
                                    witness=pts[0]))
        for e in sorted(g.edges, key=sorted):
            u, v = sorted(e)
            pts = shared.get((u, v), [])
            if not pts:
                viol.append(Finding("missing-contact", f"{u} / {v}",
                                    "polygons do not share a corner"))
            elif len(pts) > 1:
                viol.append(Finding("contact-count", f"{u} / {v}",
                                    f"{len(pts)} shared corners, expected 1",
                                    witness=pts[0]))
            else:
                recon[e] = pts[0]
    else:
        h = scene.structure
        for v in h.vertices:
            want = scene.polygons_for_contact(v)
            if v in scene.contacts and v not in contacts:
                continue
            if v not in contacts:
                viol.append(Finding("missing-contact", v, "no declared point"))
                continue
            p, ok = contacts[v], True
            for label in sorted(polygons):
                is_corner = p in polygons[label].corners
                if label in want and not is_corner:
                    viol.append(Finding("missing-contact", f"{v} in {label}",
                                        "vertex point is not a corner of its block polygon",
                                        witness=p))
                    ok = False
                if label not in want and is_corner:
                    viol.append(Finding("shared-corner-without-edge", f"{v} / {label}",
                                        "vertex point is a corner of a foreign block",
                                        witness=p))
                    ok = False
            if ok:
                recon[v] = p
        block_of = {block_label(b): b for b in h.blocks}
        for (la, lb), pts in sorted(shared.items()):
            common = block_of.get(la, frozenset()) & block_of.get(lb, frozenset())
            expect = [contacts[v] for v in common if v in contacts]
            for p in pts:
                if p not in expect:
                    viol.append(Finding("shared-corner-without-edge", f"{la} / {lb}",
                                        "blocks share a corner that is no common vertex",
                                        witness=p))

    items = sorted(recon.items(), key=lambda kv: _key_str(kv[0]))
    for (k1, p1), (k2, p2) in combinations(items, 2):
        if p1 == p2:
            viol.append(Finding("merged-contacts", f"{_key_str(k1)} / {_key_str(k2)}",
                                "two contacts share one point", witness=p1))

    if scene.kind == GRAPH:
        want = scene.expected_contact_keys()
        for key in sorted(want, key=_key_str):
            if key in scene.contacts and key not in contacts:
                continue
            declared = contacts.get(key)
            if declared is None:
                viol.append(Finding("declared-mismatch", _key_str(key),
                                    "no declared contact"))
            elif key in recon and declared != recon[key]:
                viol.append(Finding("declared-mismatch", _key_str(key),
                                    "declared point differs from reconstruction",
                                    witness=declared))
    want = scene.expected_contact_keys()
    for key in scene.contacts:
        if key not in want:
            viol.append(Finding("declared-mismatch", _key_str(key),
                                "declared contact for a non-element"))

    if "claimed_grid" in scene.meta:
        claim = scene.meta["claimed_grid"]
        if not (isinstance(claim, dict) and sorted(map(str, claim)) == ["x", "y", "z"]
                and all(isinstance(v, int) and not isinstance(v, bool) and v >= 0
                        for v in claim.values())):
            viol.append(Finding("grid-claim-malformed", "claimed_grid",
                                f"{claim!r} is not x, y, z mapped to non-negative ints"))
        else:
            ext = grid_extent(scene)
            for axis, got in (("x", ext.gx), ("y", ext.gy), ("z", ext.gz)):
                if got > claim[axis]:
                    viol.append(Finding("grid-claim-exceeded", f"axis {axis}",
                                        f"extent {got} exceeds the claimed {claim[axis]}"))

    def rows(findings):
        return [(f.code, f.where, f.detail,
                 None if f.witness is None else kernel.unscale(f.witness))
                for f in findings]

    return (rows(viol), rows(warn), kinds,
            {key: [kernel.unscale(p) for p in pts] for key, pts in shared.items()},
            {key: kernel.unscale(p) for key, p in recon.items()})
