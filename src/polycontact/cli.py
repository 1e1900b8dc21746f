"""Command-line surface: construct, verify, analyze, export.

Every construction is verified once before the scene file leaves the
tool: the constructor's `certificate` is printed when it has one, and
`verify_scene` runs otherwise.  `verify` prints the grid extent that the
grid-claim check measured, and measures it only for scenes that claim
none.  Exit codes: 0 success, 1 verification failure, 2 usage or parse
error, 3 construction precondition violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .arrangement import represent_complete, represent_min_degree3
from .bipartite import (complete_bipartite, represent_bipartite_grid,
                        represent_bipartite_toroidal, represent_k33_unit_triangles)
from .core import (BUILTIN_SYSTEMS, InputError, SteinerDescriptor,
                   blocks_from_text, builtin_system, graph_from_edge_list,
                   validate_steiner)
from .cubic import represent_2ec_cubic, represent_cubic, represent_max_degree3
from .cyclesq import represent_cycle_square
from .export import scene_to_obj, scene_to_svg
from .oneplanar import represent_oneplanar_cubic
from .scene import ConstructionError
from .sceneio import (_dumps, read_embedding, read_scene, scene_to_json,
                      write_scene)
from .steiner import (FanoParams, S239Params, counting_certificate,
                      coplanar_polygon_pairs, find_obstruction_pattern,
                      max_coplanar_vertices, represent_fano, represent_s239)
from .verify import grid_extent, verify_scene

CLASSES = ["complete", "mindeg3", "bipartite-toroidal", "bipartite-grid",
           "k33", "oneplanar-cubic", "cubic-2ec", "cubic", "maxdeg3",
           "cycle-square", "fano", "s239"]

ANALYSES = ["f-pattern", "counting", "coplanar-points", "coplanar-polygons",
            "steiner-check"]


def _read_text(path):
    with open(path) as fh:
        return fh.read()


def _build_scene(args):
    cls = args.cls
    if cls == "complete":
        _need(args.n is not None, "--n is required for complete")
        return represent_complete(args.n)
    if cls == "cycle-square":
        _need(args.n is not None, "--n is required for cycle-square")
        return represent_cycle_square(args.n)
    if cls == "k33":
        return represent_k33_unit_triangles()
    if cls == "fano":
        return represent_fano(FanoParams(alpha=args.alpha))
    if cls == "s239":
        return represent_s239(S239Params(beta=args.beta))
    if cls in ("bipartite-toroidal", "bipartite-grid"):
        if args.a is not None and args.b is not None:
            g = complete_bipartite(args.a, args.b)
        else:
            _need(args.input is not None, "--a/--b or --input required")
            g = graph_from_edge_list(_read_text(args.input))
        fn = (represent_bipartite_toroidal if cls == "bipartite-toroidal"
              else represent_bipartite_grid)
        return fn(g)
    if cls == "oneplanar-cubic":
        _need(args.input is not None, "--input embedding.json required")
        return represent_oneplanar_cubic(read_embedding(args.input))
    _need(args.input is not None, f"--input edge list required for {cls}")
    g = graph_from_edge_list(_read_text(args.input))
    if cls == "mindeg3":
        return represent_min_degree3(g)
    if cls == "cubic-2ec":
        return represent_2ec_cubic(g)
    if cls == "cubic":
        return represent_cubic(g)
    if cls == "maxdeg3":
        return represent_max_degree3(g)
    raise AssertionError(cls)


class _Usage(Exception):
    pass


def _need(cond, msg):
    if not cond:
        raise _Usage(msg)


def cmd_represent(args) -> int:
    scene = _build_scene(args)
    report = scene.certificate
    if report is None:
        report = verify_scene(scene)
    print(report.to_text())
    if not report.passed:
        if args.output:
            write_scene(args.output, scene)
        return 1
    if args.output:
        write_scene(args.output, scene)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(_dumps(scene_to_json(scene)) + "\n")
    return 0


def cmd_verify(args) -> int:
    _need(args.epsilon is None or (math.isfinite(args.epsilon) and args.epsilon >= 0),
          "--epsilon must be finite and >= 0")
    scene = read_scene(args.file)
    report = verify_scene(scene, eps=args.epsilon)
    ext = report.grid_extent or grid_extent(scene, eps=args.epsilon)
    if args.json:
        doc = {"pass": report.passed,
               "violations": [str(f) for f in report.violations],
               "warnings": [str(f) for f in report.warnings],
               "contacts": len(report.reconstructed),
               "grid_extent": [ext.gx, ext.gy, ext.gz],
               "grid_extent_approximate": ext.approximate}
        sys.stdout.write(_dumps(doc) + "\n")
    else:
        print(report.to_text())
        print(f"grid extent: {ext.gx} x {ext.gy} x {ext.gz}"
              + (" (approximate)" if ext.approximate else ""))
    return 0 if report.passed else 1


def _load_blocks(args):
    if args.builtin:
        return builtin_system(args.builtin)
    _need(args.input is not None, "--input block list or --builtin required")
    return blocks_from_text(_read_text(args.input))


def cmd_analyze(args) -> int:
    what = args.what
    if what == "f-pattern":
        h = _load_blocks(args)
        found = find_obstruction_pattern(h)
        if found is None:
            print("no obstruction pattern")
            return 0
        print("obstruction pattern: "
              + ", ".join(f"{k}={found[k]}" for k in "abcduvwxyz"))
        return 0
    if what == "counting":
        h = _load_blocks(args)
        _need(args.n is not None, "--n required (with --t 3 --k 4 implied)")
        cert = counting_certificate(h, SteinerDescriptor(3, 4, args.n))
        print(cert)
        return 0
    if what == "steiner-check":
        h = _load_blocks(args)
        _need(all(x is not None for x in (args.t, args.k, args.n)),
              "--t --k --n required")
        ok, witness = validate_steiner(h, SteinerDescriptor(args.t, args.k, args.n))
        print(f"steiner: {ok}" + ("" if ok else f" (witness {witness})"))
        return 0 if ok else 1
    scene = read_scene(args.file)
    if what == "coplanar-points":
        count, _, members = max_coplanar_vertices(scene)
        print(f"max coplanar contact points: {count} ({', '.join(members)})")
        return 0
    pairs = coplanar_polygon_pairs(scene)
    print(f"coplanar polygon pairs: {len(pairs)}")
    for a, b in pairs:
        print(f"  {a} / {b}")
    return 0


def cmd_export(args) -> int:
    scene = read_scene(args.file)
    if args.format == "obj":
        text = scene_to_obj(scene)
    else:
        text = scene_to_svg(scene, view=args.view)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_info(args) -> int:
    print("construction classes:", ", ".join(CLASSES))
    print("analyses:", ", ".join(ANALYSES))
    print("builtin block systems:", ", ".join(BUILTIN_SYSTEMS))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="polycontact")
    sub = ap.add_subparsers(dest="cmd", required=True)

    rep = sub.add_parser("represent", help="construct a scene and verify it")
    rep.add_argument("--class", dest="cls", choices=CLASSES, required=True)
    rep.add_argument("--n", type=int)
    rep.add_argument("--a", type=int)
    rep.add_argument("--b", type=int)
    rep.add_argument("--input")
    rep.add_argument("--alpha", type=float, default=85.0)
    rep.add_argument("--beta", type=float, default=45.0)
    rep.add_argument("--output", "-o")
    rep.set_defaults(func=cmd_represent)

    ver = sub.add_parser("verify", help="verify a scene file")
    ver.add_argument("file")
    ver.add_argument("--epsilon", type=float, default=None)
    ver.add_argument("--json", action="store_true")
    ver.set_defaults(func=cmd_verify)

    ana = sub.add_parser("analyze", help="combinatorial and coplanarity analyses")
    ana.add_argument("what", choices=ANALYSES)
    ana.add_argument("--input")
    ana.add_argument("--builtin")
    ana.add_argument("--file", help="scene file for coplanar-* analyses")
    ana.add_argument("--t", type=int)
    ana.add_argument("--k", type=int)
    ana.add_argument("--n", type=int)
    ana.set_defaults(func=cmd_analyze)

    exp = sub.add_parser("export", help="export a scene to OBJ or SVG")
    exp.add_argument("file")
    exp.add_argument("--format", choices=["obj", "svg"], required=True)
    exp.add_argument("--view", choices=["xy", "xz", "yz"], default="xy")
    exp.add_argument("--output", "-o")
    exp.set_defaults(func=cmd_export)

    info = sub.add_parser("info", help="list classes and built-ins")
    info.set_defaults(func=cmd_info)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (InputError, json.JSONDecodeError, FileNotFoundError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ConstructionError as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
