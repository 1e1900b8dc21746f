"""Scene files and the other text formats.

Scene JSON: {kind, structure, points, polygons, contacts, meta}.  Exact
scenes serialize every coordinate as a "num/den" string so a round trip
is bit-identical; float scenes use repr() decimals.  Points are shared by
id so corner coincidences survive the trip exactly.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .core import (Graph, Hypergraph, InputError, OnePlaneEmbedding,
                   edge_key)
from .geom import Polygon3
from .scene import GRAPH, HYPERGRAPH, Scene

_SCENE_KEYS = {"kind", "points", "polygons", "contacts"}


def _num_to_str(x, exact: bool) -> str:
    if exact:
        f = Fraction(x)
        return f"{f.numerator}/{f.denominator}"
    return repr(float(x))


def _num_from_str(s: str, exact: bool):
    if exact:
        num, den = map(int, s.split("/"))
        if den == 0:
            raise InputError(f"zero denominator in coordinate {s!r}")
        return Fraction(num, den)
    x = float(s)
    if not math.isfinite(x):
        raise InputError(f"non-finite coordinate {s!r}")
    return x


def scene_to_json(scene: Scene) -> dict:
    exact = scene.is_exact
    point_ids = {}
    points = []

    def pid(p):
        key = tuple(p)
        if key not in point_ids:
            point_ids[key] = f"p{len(points)}"
            points.append({"id": point_ids[key],
                           "x": _num_to_str(p[0], exact),
                           "y": _num_to_str(p[1], exact),
                           "z": _num_to_str(p[2], exact)})
        return point_ids[key]

    polygons = []
    for label in sorted(scene.polygons):
        poly = scene.polygons[label]
        polygons.append({"label": label,
                         "corners": [pid(c) for c in poly.corners]})
    contacts = []
    if scene.kind == GRAPH:
        for e in sorted(scene.contacts, key=lambda e: sorted(e)):
            contacts.append({"point": pid(scene.contacts[e]),
                             "elements": sorted(e)})
        structure = {"vertices": list(scene.structure.vertices),
                     "edges": [sorted(e) for e in
                               sorted(scene.structure.edges, key=sorted)]}
    else:
        for v in sorted(scene.contacts):
            contacts.append({"point": pid(scene.contacts[v]),
                             "elements": [v]})
        structure = {"vertices": list(scene.structure.vertices),
                     "blocks": [sorted(b) for b in scene.structure.blocks]}

    meta = {}
    for k, v in scene.meta.items():
        try:
            json.dumps(v)
            meta[k] = v
        except TypeError:
            meta[k] = str(v)
    return {"kind": scene.kind, "structure": structure, "points": points,
            "polygons": polygons, "contacts": contacts, "meta": meta}


def scene_from_json(doc: dict) -> Scene:
    """The scene a JSON document describes; InputError if any part of it
    is malformed (a wrong type, a bad coordinate, a missing key or element,
    a polygon without corners)."""
    if not isinstance(doc, dict) or not _SCENE_KEYS <= doc.keys():
        raise InputError("a scene is an object with keys "
                         + ", ".join(sorted(_SCENE_KEYS)))
    try:
        return _scene_from_doc(doc)
    except InputError:
        raise
    except (TypeError, ValueError, LookupError, AttributeError) as exc:
        raise InputError(f"malformed scene: {type(exc).__name__}: {exc}") from exc


def _scene_from_doc(doc: dict) -> Scene:
    kind = doc["kind"]
    meta = dict(doc.get("meta", {}))
    exact = meta.get("arithmetic", "exact") == "exact"
    eps = meta.get("epsilon", 0)
    if not exact and not (isinstance(eps, (int, float)) and math.isfinite(eps) and eps >= 0):
        raise InputError(f"epsilon must be a finite number >= 0, not {eps!r}")
    pts = {}
    for rec in doc["points"]:
        pts[rec["id"]] = (_num_from_str(rec["x"], exact),
                          _num_from_str(rec["y"], exact),
                          _num_from_str(rec["z"], exact))
    if kind == GRAPH:
        structure = Graph.from_edges(doc["structure"]["edges"],
                                     vertices=doc["structure"]["vertices"])
    elif kind == HYPERGRAPH:
        structure = Hypergraph.from_blocks(doc["structure"]["blocks"],
                                           vertices=doc["structure"]["vertices"])
    else:
        raise InputError(f"unknown scene kind {kind!r}")
    polygons = {}
    for rec in doc["polygons"]:
        corners = tuple(pts[c] for c in rec["corners"])
        polygons[rec["label"]] = Polygon3(corners=corners)
    contacts = {}
    for rec in doc["contacts"]:
        el = rec["elements"]
        if len(el) != (2 if kind == GRAPH else 1):
            raise InputError(f"contact elements {el!r} do not fit a {kind} scene")
        key = edge_key(el[0], el[1]) if kind == GRAPH else el[0]
        contacts[key] = pts[rec["point"]]
    return Scene(kind=kind, structure=structure, polygons=polygons,
                 contacts=contacts, meta=meta)


def write_scene(path: str, scene: Scene):
    with open(path, "w") as fh:
        json.dump(scene_to_json(scene), fh, indent=1)
        fh.write("\n")


def read_scene(path: str) -> Scene:
    with open(path) as fh:
        return scene_from_json(json.load(fh))


# ---------------------------------------------------------------------------
# Embedding JSON for 1-plane inputs
# ---------------------------------------------------------------------------


def embedding_from_json(doc: dict) -> OnePlaneEmbedding:
    """{vertices:[{id, rotation:[edge ids]}], edges:[{id, endpoints}],
    crossings:[[edge id, edge id]], outer_face: [edge ids] (optional)}"""
    by_id = {}
    edges = []
    for rec in doc["edges"]:
        u, v = rec["endpoints"]
        by_id[rec["id"]] = edge_key(str(u), str(v))
        edges.append((str(u), str(v)))
    vertices = [str(rec["id"]) for rec in doc["vertices"]]
    g = Graph.from_edges(edges, vertices=vertices)
    rotation = {}
    for rec in doc["vertices"]:
        rotation[str(rec["id"])] = [by_id[e] for e in rec["rotation"]]
    crossings = frozenset(frozenset((by_id[a], by_id[b]))
                          for a, b in doc.get("crossings", []))
    outer = doc.get("outer_face")
    outer_face = frozenset(by_id[e] for e in outer) if outer else None
    return OnePlaneEmbedding(graph=g, rotation=rotation, crossings=crossings,
                             outer_face=outer_face)


def read_embedding(path: str) -> OnePlaneEmbedding:
    with open(path) as fh:
        return embedding_from_json(json.load(fh))
