"""Span tracing of polycontact from outside, by wrapping its public functions.

Each wrapped function records a span (name, start, end, parent span, op
id, tag) in memory.  Functions are wrapped at the module attribute their
caller looks up at call time: `cli` and `verify` bind their imports when
they are loaded, so those bindings are wrapped; `arrangement` imports
`classify_pair` and `polygon_properties` inside its functions, so the
`geom` attributes are wrapped as well.  `uninstall` puts every original
back, so untraced passes run the unmodified program.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

# (module, attribute, span name)
WRAPS = (
    ("polycontact.cli", "graph_from_edge_list", "core.parse"),
    ("polycontact.cli", "read_embedding", "core.parse"),
    ("polycontact.cli", "represent_complete", "arrangement.build"),
    ("polycontact.cli", "represent_min_degree3", "arrangement.build"),
    ("polycontact.arrangement", "build_line_arrangement", "arrangement.lines"),
    ("polycontact.arrangement", "arrangement_ok", "arrangement.ok"),
    ("polycontact.arrangement", "graph_scene", "arrangement.lift"),
    ("polycontact.arrangement", "verify_scene", "verify.verify_scene"),
    ("polycontact.cli", "represent_2ec_cubic", "cubic.build"),
    ("polycontact.cli", "represent_cubic", "cubic.build"),
    ("polycontact.cubic", "petersen_decompose", "cubic.petersen_decompose"),
    ("polycontact.cubic", "schnyder_draw", "schnyder.draw"),
    ("polycontact.cubic", "verify_scene", "verify.verify_scene"),
    ("polycontact.cli", "represent_oneplanar_cubic", "oneplanar.build"),
    ("polycontact.oneplanar", "schnyder_draw", "schnyder.draw"),
    ("polycontact.cli", "represent_bipartite_grid", "bipartite.build"),
    ("polycontact.cli", "represent_bipartite_toroidal", "bipartite.build"),
    ("polycontact.cli", "represent_k33_unit_triangles", "bipartite.build"),
    ("polycontact.cli", "represent_cycle_square", "cyclesq.build"),
    ("polycontact.cli", "represent_fano", "steiner.build"),
    ("polycontact.cli", "represent_s239", "steiner.build"),
    ("polycontact.cli", "verify_scene", "verify.verify_scene"),
    ("polycontact.cli", "grid_extent", "verify.grid_extent"),
    ("polycontact.verify", "classify_pair", "geom.classify_pair"),
    ("polycontact.geom", "classify_pair", "geom.classify_pair"),
    ("polycontact.verify", "polygon_properties", "geom.polygon_properties"),
    ("polycontact.geom", "polygon_properties", "geom.polygon_properties"),
    ("polycontact.cli", "write_scene", "sceneio.write"),
    ("polycontact.cli", "read_scene", "sceneio.read"),
)

# span name -> function of the wrapped call's result giving the span's tag
TAGS = {
    "geom.classify_pair": lambda res: res.kind,
    "arrangement.ok": bool,
}

PAIR_KINDS = ("Disjoint", "CornerContact", "BoundaryTouch", "Violation")
CLI_SPAN = "cli.main"


class Tracer:
    """In-memory span recorder; spans are lists [name, start, end, parent, op, tag]."""

    def __init__(self):
        self.spans = []
        self._open = []  # indices of spans not yet ended
        self._saved = []  # (module, attribute, original)
        self.op = None

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        rec = [name, 0.0, 0.0, parent, self.op, None]
        self.spans.append(rec)
        self._open.append(idx)
        rec[1] = time.perf_counter()
        try:
            res = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()
        tag = TAGS.get(name)
        if tag is not None:
            rec[5] = tag(res)
        return res

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def install(self):
        for modname, attr, name in WRAPS:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrapper(name, orig))

    def uninstall(self):
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)


def layer_metrics(spans, scales) -> dict:
    """Per-layer totals, counts and self times of one traced pass.

    `scales[op]` turns the wall seconds of operation `op` into calibrated
    seconds.  Self time is a span's duration minus the time its child
    spans cover; the program is single-threaded, so children never overlap.
    """
    durs = [(end - start) * scales[op] for _, start, end, _, op, _ in spans]
    child = [0.0] * len(spans)
    for (_, _, _, parent, _, _), dur in zip(spans, durs):
        if parent is not None:
            child[parent] += dur
    total, calls, self_s = Counter(), Counter(), Counter()
    kinds, accepted = Counter(), 0
    pairs_in_verify = chord_lift = 0
    in_construction = 0.0
    for i, (name, _, _, parent, _, tag) in enumerate(spans):
        dur = durs[i]
        total[name] += dur
        calls[name] += 1
        self_s[name] += dur - child[i]
        pname = spans[parent][0] if parent is not None else None
        if name == "geom.classify_pair":
            kinds[tag] += 1
            pairs_in_verify += pname == "verify.verify_scene"
        elif name == "arrangement.ok":
            accepted += bool(tag)
        elif name == "verify.verify_scene" and pname != CLI_SPAN:
            in_construction += dur
            chord_lift += pname == "cubic.build"

    ok_calls = calls["arrangement.ok"]
    m = {
        "arrangement.build_s": total["arrangement.build"],
        "arrangement.lines_s": total["arrangement.lines"],
        "arrangement.ok_calls": ok_calls,
        "arrangement.ok_s": total["arrangement.ok"],
        "arrangement.ok_accept_ratio": accepted / ok_calls if ok_calls else 0.0,
        "arrangement.lift_attempts": calls["arrangement.lift"],
        "geom.classify_pair_calls": calls["geom.classify_pair"],
        "geom.classify_pair_s": total["geom.classify_pair"],
        "geom.polygon_properties_calls": calls["geom.polygon_properties"],
        "geom.polygon_properties_s": total["geom.polygon_properties"],
    }
    for kind in PAIR_KINDS:
        m[f"geom.pair_kind.{kind}"] = kinds[kind]
    m.update({
        "verify.calls": calls["verify.verify_scene"],
        "verify.verify_scene_s": total["verify.verify_scene"],
        "verify.self_s": self_s["verify.verify_scene"],
        "verify.pairs_classified": pairs_in_verify,
        "verify.in_construction_s": in_construction,
        "verify.grid_extent_s": total["verify.grid_extent"],
        "cubic.build_s": total["cubic.build"],
        "cubic.petersen_decompose_s": total["cubic.petersen_decompose"],
        "cubic.chord_lift_verifies": chord_lift,
        "oneplanar.build_s": total["oneplanar.build"],
        "schnyder.draw_s": total["schnyder.draw"],
        "bipartite.build_s": total["bipartite.build"],
        "cyclesq.build_s": total["cyclesq.build"],
        "steiner.build_s": total["steiner.build"],
        "sceneio.write_s": total["sceneio.write"],
        "sceneio.read_s": total["sceneio.read"],
        "core.parse_s": total["core.parse"],
        "cli.self_s": self_s[CLI_SPAN],
    })
    return m


# metrics that count work and must repeat exactly from pass to pass
EXACT_COUNTS = tuple(
    ["arrangement.ok_calls", "arrangement.lift_attempts",
     "geom.classify_pair_calls", "geom.polygon_properties_calls",
     "verify.calls", "verify.pairs_classified", "cubic.chord_lift_verifies"]
    + [f"geom.pair_kind.{k}" for k in PAIR_KINDS])
