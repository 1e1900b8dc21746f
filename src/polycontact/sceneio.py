"""Scene files and the other text formats.

Scene JSON: {kind, structure, points, polygons, contacts, meta}.  Every
coordinate is a "num/den" string in lowest terms, so a round trip is
bit-identical.  Points are shared by id so corner coincidences survive the
trip exactly.  A scene file's bytes are `json.dumps(doc, indent=1)` and a
newline, where `doc` is `scene_to_json(scene)`; `_dumps` writes that text
without json's pure-Python indenting encoder.  The reader fails closed: a
`meta.arithmetic` other than "exact", a coordinate that is not "num/den",
or a duplicate point id, polygon label or contact is an InputError, not a
silent misreading.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .core import (Graph, Hypergraph, InputError, OnePlaneEmbedding,
                   edge_key)
from .geom import Polygon3
from .scene import GRAPH, HYPERGRAPH, Scene

_SCENE_KEYS = {"kind", "points", "polygons", "contacts"}


def _ratio(x) -> str:
    """x as "num/den" in lowest terms: equal strings exactly for equal values."""
    if not isinstance(x, (Fraction, int)):
        x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _coordinate(rec: dict, axis: str) -> Fraction:
    """Coordinate `axis` of a point record, a "num/den" string."""
    s = rec[axis]
    try:
        num, den = s.split("/")
        num, den = int(num), int(den)
    except (AttributeError, ValueError):
        raise InputError(f"point {rec['id']!r}: coordinate {axis} is {s!r}, "
                         "not \"num/den\"") from None
    if den == 0:
        raise InputError(f"zero denominator in coordinate {s!r}")
    return Fraction(num, den)


def scene_to_json(scene: Scene) -> dict:
    point_ids = {}
    points = []

    # a point is keyed by the strings it is written as
    def pid(p):
        key = tuple(map(_ratio, p))
        ident = point_ids.get(key)
        if ident is None:
            ident = point_ids[key] = f"p{len(points)}"
            x, y, z = key
            points.append({"id": ident, "x": x, "y": y, "z": z})
        return ident

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
    is malformed (a wrong type, an arithmetic other than exact, a coordinate
    that is not "num/den", a missing key or element, a polygon without
    corners, a second record for a point id, polygon label or contact)."""
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
    if meta.get("arithmetic", "exact") != "exact":
        raise InputError(f"meta.arithmetic is {meta['arithmetic']!r}; "
                         "only \"exact\" scenes are read")
    pts = {}
    for rec in doc["points"]:
        _add(pts, rec["id"], tuple(_coordinate(rec, axis) for axis in "xyz"), "point id")
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
        _add(polygons, rec["label"], Polygon3(corners=corners), "polygon label")
    contacts = {}
    for rec in doc["contacts"]:
        el = rec["elements"]
        if len(el) != (2 if kind == GRAPH else 1):
            raise InputError(f"contact elements {el!r} do not fit a {kind} scene")
        key = edge_key(el[0], el[1]) if kind == GRAPH else el[0]
        _add(contacts, key, pts[rec["point"]], "contact")
    return Scene(kind=kind, structure=structure, polygons=polygons,
                 contacts=contacts, meta=meta)


def _add(table: dict, key, value, what: str):
    """table[key] = value; InputError if an earlier record set that key."""
    if key in table:
        shown = sorted(key) if isinstance(key, frozenset) else key
        raise InputError(f"duplicate {what} {shown!r}")
    table[key] = value


def _dumps(doc) -> str:
    """`json.dumps(doc, indent=1)`, without json's pure-Python encoder."""
    out = []
    _encode(doc, "\n", out.append)
    return "".join(out)


def _encode(o, pad: str, put):
    """Put o's indent-1 JSON text, at the depth `pad` ("\n" and the
    indent) gives.  Strings, lists, tuples and str-keyed dicts are written
    here; every other value (numbers, bools, None, other dicts, subclasses)
    is json's own text, indented to that depth.  A scalar or an empty
    container has no line break to indent, so its text comes from json's C
    encoder: the indenting one leaves reference cycles behind."""
    t = type(o)
    if t is str:
        put(_quote(o))
    elif (t is list or t is tuple) and o:
        inner = pad + " "
        sep = "[" + inner
        for x in o:
            put(sep)
            _encode(x, inner, put)
            sep = "," + inner
        put(pad + "]")
    elif t is dict and o and all(type(k) is str for k in o):
        inner = pad + " "
        sep = "{" + inner
        for k, v in o.items():
            put(sep + _quote(k) + ": ")
            _encode(v, inner, put)
            sep = "," + inner
        put(pad + "}")
    elif isinstance(o, (list, tuple, dict)) and o:
        put(json.dumps(o, indent=1).replace("\n", pad))
    else:
        put(json.dumps(o))


def write_scene(path: str, scene: Scene):
    with open(path, "w") as fh:
        fh.write(_dumps(scene_to_json(scene)) + "\n")


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
