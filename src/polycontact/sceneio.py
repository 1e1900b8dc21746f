"""Scene files and the other text formats.

Scene JSON: {kind, structure, points, polygons, contacts, meta}.  Every
coordinate is a "num/den" string in lowest terms, so a round trip is
bit-identical.  Points are shared by id so corner coincidences survive the
trip exactly.  A read converts each distinct coordinate string to a
Fraction once, so equal coordinates share one object.  A scene file's
bytes are `json.dumps(scene_to_json(scene), indent=1)` and a newline;
`_scene_text` writes that text in one pass over `_records`, with no
document.  The reader fails closed: a `meta.arithmetic` other than
"exact", a coordinate that is not "num/den", or a duplicate point id,
polygon label or contact is an InputError, not a silent misreading.
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
    """Coordinate `axis` of a point record, a "num/den" string of ASCII
    digits with an optional leading minus and a positive denominator;
    `int()` alone would also take spaces, "+", "_" and non-ASCII digits."""
    s = rec[axis]
    num, slash, den = s.partition("/") if isinstance(s, str) else ("", "", "")
    if not (slash and s.isascii() and num.removeprefix("-").isdigit() and den.isdigit()):
        raise InputError(f"point {rec['id']!r}: coordinate {axis} is {s!r}, "
                         "not \"num/den\"")
    num, den = int(num), int(den)
    if den == 0:
        raise InputError(f"zero denominator in coordinate {s!r}")
    return Fraction(num, den)


def _records(scene: Scene) -> tuple:
    """The scene's records in file order, decided here alone: points' coordinate
    strings by id ("p{i}"), (label, corner ids) by label, (point id, elements) per
    contact, the structure, and `meta` with `str()` for each value json cannot encode."""
    coords = []
    ids = {}  # id(point object; the scene holds each), coordinate strings -> point id

    # a point is keyed by the strings it is written as, each object read once
    def pid(p):
        ident = ids.get(id(p))
        if ident is None:
            key = tuple(map(_ratio, p))
            ident = ids.get(key)
            if ident is None:
                ident = ids[key] = f"p{len(coords)}"
                coords.append(key)
            ids[id(p)] = ident
        return ident

    polygons = [(label, [pid(c) for c in scene.polygons[label].corners])
                for label in sorted(scene.polygons)]
    s = scene.structure
    if scene.kind == GRAPH:
        contacts = [(pid(scene.contacts[e]), pair)
                    for pair, e in sorted((sorted(e), e) for e in scene.contacts)]
        structure = {"vertices": list(s.vertices), "edges": sorted(map(sorted, s.edges))}
    else:
        contacts = [(pid(scene.contacts[v]), [v]) for v in sorted(scene.contacts)]
        structure = {"vertices": list(s.vertices), "blocks": [sorted(b) for b in s.blocks]}
    meta = dict(scene.meta)
    for k, v in meta.items():
        try:
            json.dumps(v)
        except TypeError:
            meta[k] = str(v)
    return coords, polygons, contacts, structure, meta


def scene_to_json(scene: Scene) -> dict:
    """The scene file's document: the dict view of `_records(scene)`."""
    coords, polygons, contacts, structure, meta = _records(scene)
    return {"kind": scene.kind, "structure": structure,
            "points": [dict(id=f"p{i}", x=x, y=y, z=z) for i, (x, y, z) in enumerate(coords)],
            "polygons": [dict(label=label, corners=ids) for label, ids in polygons],
            "contacts": [dict(point=p, elements=els) for p, els in contacts], "meta": meta}


def _scene_text(scene: Scene) -> str:
    """`_dumps(scene_to_json(scene))`, written from `_records` with no document."""
    coords, polygons, contacts, structure, meta = _records(scene)
    pad = "\n   "  # a record's fields
    return "".join((
        '{\n "kind": ', _dumps(scene.kind), ',\n "structure": ', _dumps(structure, "\n "),
        ',\n "points": ', _array([
            f'{{\n   "id": "p{i}",\n   "x": "{x}",\n   "y": "{y}",\n   "z": "{z}"\n  }}'
            for i, (x, y, z) in enumerate(coords)], "\n "),
        ',\n "polygons": ', _array([
            f'{{\n   "label": {_dumps(label, pad)},\n   "corners": {_dumps(corners, pad)}\n  }}'
            for label, corners in polygons], "\n "),
        ',\n "contacts": ', _array([
            f'{{\n   "point": "{point}",\n   "elements": {_dumps(elements, pad)}\n  }}'
            for point, elements in contacts], "\n "),
        ',\n "meta": ', _dumps(meta, "\n "), "\n}"))


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
    read = {}  # coordinate string -> its Fraction
    for rec in doc["points"]:
        xyz = []
        for axis in "xyz":
            s = rec[axis]
            value = read.get(s) if type(s) is str else None
            if value is None:
                value = read[s] = _coordinate(rec, axis)
            xyz.append(value)
        _add(pts, rec["id"], tuple(xyz), "point id")
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


def _dumps(o, pad: str = "\n") -> str:
    """`json.dumps(o, indent=1)` at the depth `pad` ("\n" and the indent)
    gives.  Strings, lists, tuples and str-keyed dicts are written here;
    every other value is json's own text, indented to that depth.  A scalar
    or an empty container has no line break to indent, so its text comes
    from json's C encoder: the indenting one leaves reference cycles."""
    t = type(o)
    inner = pad + " "
    if t is str:
        return _quote(o)
    if (t is list or t is tuple) and o:
        return _array([*map(_quote, o)] if all(type(x) is str for x in o)
                      else [_dumps(x, inner) for x in o], pad)
    if t is dict and o and all(type(k) is str for k in o):
        return ("{" + inner + ("," + inner).join(
            [_quote(k) + ": " + _dumps(v, inner) for k, v in o.items()]) + pad + "}")
    if isinstance(o, (list, tuple, dict)) and o:
        return json.dumps(o, indent=1).replace("\n", pad)
    return json.dumps(o)


def _array(texts: list, pad: str) -> str:
    """The JSON list, at the depth `pad` gives, of items written one deeper."""
    inner = pad + " "
    return "[" + inner + ("," + inner).join(texts) + pad + "]" if texts else "[]"


def write_scene(path: str, scene: Scene):
    """Write the scene file: `_scene_text(scene)` and a newline."""
    with open(path, "w") as fh:
        fh.write(_scene_text(scene) + "\n")


def read_scene(path: str) -> Scene:
    with open(path) as fh:
        return scene_from_json(json.load(fh))


# Embedding JSON for 1-plane inputs


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
    rotation = {str(rec["id"]): [by_id[e] for e in rec["rotation"]] for rec in doc["vertices"]}
    crossings = frozenset(frozenset((by_id[a], by_id[b]))
                          for a, b in doc.get("crossings", []))
    outer = doc.get("outer_face")
    outer_face = frozenset(by_id[e] for e in outer) if outer else None
    return OnePlaneEmbedding(graph=g, rotation=rotation, crossings=crossings,
                             outer_face=outer_face)


def read_embedding(path: str) -> OnePlaneEmbedding:
    with open(path) as fh:
        return embedding_from_json(json.load(fh))
