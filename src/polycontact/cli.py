"""Command-line surface: construct, verify, analyze, export.

Every construction is verified once before the scene file leaves the
tool: the constructor's `certificate` is printed when it has one, and
`verify_scene` runs otherwise.  `verify` prints the grid extent that the
grid-claim check measured, and measures it only for scenes that claim
none.  Exit codes: 0 success, 1 verification failure, 2 usage or parse
error, 3 construction precondition violation.

Each call builds the argument parser for the subcommand it names only
(`build_parser([name])`); help, no arguments and an unknown command get
every subcommand.  The output is the same either way.

Loading `cli` imports `core`, `geom`, `scene`, `sceneio` and `verify`,
which every scene-handling subcommand runs.  The constructions, the
Steiner analyses and the exporters are imported on first use through the
module `__getattr__` over `_LAZY`, so `verify` compiles none of them and
`represent --class complete` only `arrangement`.  Call sites read those
names off the module (`_m.represent_complete`), so a function set on
`polycontact.cli` before or after the first call is the one that runs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from .core import (BUILTIN_SYSTEMS, InputError, SteinerDescriptor,
                   blocks_from_text, builtin_system, graph_from_edge_list,
                   validate_steiner)
from .scene import ConstructionError
from .sceneio import (_dumps, read_embedding, read_scene, scene_to_json,
                      write_scene)
from .verify import grid_extent, verify_scene

# module -> the names this module imports from it on first use (`__getattr__`)
_LAZY = {
    "arrangement": ("represent_complete", "represent_min_degree3"),
    "bipartite": ("complete_bipartite", "represent_bipartite_grid",
                  "represent_bipartite_toroidal", "represent_k33_unit_triangles"),
    "cubic": ("represent_2ec_cubic", "represent_cubic", "represent_max_degree3"),
    "cyclesq": ("represent_cycle_square",),
    "export": ("scene_to_obj", "scene_to_svg"),
    "oneplanar": ("represent_oneplanar_cubic",),
    "steiner": ("FanoParams", "S239Params", "counting_certificate",
                "coplanar_polygon_pairs", "find_obstruction_pattern",
                "max_coplanar_vertices", "represent_fano", "represent_s239"),
}
_SOURCE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        importlib.import_module(f"{__package__}.{module}"), name)
    return value


# call sites read the lazy names off this module, so they see what was set on it
_m = sys.modules[__name__]

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
        return _m.represent_complete(args.n)
    if cls == "cycle-square":
        _need(args.n is not None, "--n is required for cycle-square")
        return _m.represent_cycle_square(args.n)
    if cls == "k33":
        return _m.represent_k33_unit_triangles()
    if cls == "fano":
        return _m.represent_fano(_m.FanoParams(alpha=args.alpha))
    if cls == "s239":
        return _m.represent_s239(_m.S239Params(beta=args.beta))
    if cls in ("bipartite-toroidal", "bipartite-grid"):
        if args.a is not None and args.b is not None:
            g = _m.complete_bipartite(args.a, args.b)
        else:
            _need(args.input is not None, "--a/--b or --input required")
            g = graph_from_edge_list(_read_text(args.input))
        fn = (_m.represent_bipartite_toroidal if cls == "bipartite-toroidal"
              else _m.represent_bipartite_grid)
        return fn(g)
    if cls == "oneplanar-cubic":
        _need(args.input is not None, "--input embedding.json required")
        return _m.represent_oneplanar_cubic(read_embedding(args.input))
    _need(args.input is not None, f"--input edge list required for {cls}")
    g = graph_from_edge_list(_read_text(args.input))
    if cls == "mindeg3":
        return _m.represent_min_degree3(g)
    if cls == "cubic-2ec":
        return _m.represent_2ec_cubic(g)
    if cls == "cubic":
        return _m.represent_cubic(g)
    if cls == "maxdeg3":
        return _m.represent_max_degree3(g)
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
    scene = read_scene(args.file)
    report = verify_scene(scene)
    ext = report.grid_extent or grid_extent(scene)
    if args.json:
        doc = {"pass": report.passed,
               "violations": [str(f) for f in report.violations],
               "warnings": [str(f) for f in report.warnings],
               "contacts": len(report.reconstructed),
               "grid_extent": [ext.gx, ext.gy, ext.gz]}
        sys.stdout.write(_dumps(doc) + "\n")
    else:
        print(report.to_text())
        print(f"grid extent: {ext.gx} x {ext.gy} x {ext.gz}")
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
        found = _m.find_obstruction_pattern(h)
        if found is None:
            print("no obstruction pattern")
            return 0
        print("obstruction pattern: "
              + ", ".join(f"{k}={found[k]}" for k in "abcduvwxyz"))
        return 0
    if what == "counting":
        h = _load_blocks(args)
        _need(args.n is not None, "--n required (with --t 3 --k 4 implied)")
        cert = _m.counting_certificate(h, SteinerDescriptor(3, 4, args.n))
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
        count, _, members = _m.max_coplanar_vertices(scene)
        print(f"max coplanar contact points: {count} ({', '.join(members)})")
        return 0
    pairs = _m.coplanar_polygon_pairs(scene)
    print(f"coplanar polygon pairs: {len(pairs)}")
    for a, b in pairs:
        print(f"  {a} / {b}")
    return 0


def cmd_export(args) -> int:
    scene = read_scene(args.file)
    if args.format == "obj":
        text = _m.scene_to_obj(scene)
    else:
        text = _m.scene_to_svg(scene, view=args.view)
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


def _represent_args(rep):
    rep.add_argument("--class", dest="cls", choices=CLASSES, required=True)
    rep.add_argument("--n", type=int)
    rep.add_argument("--a", type=int)
    rep.add_argument("--b", type=int)
    rep.add_argument("--input")
    rep.add_argument("--alpha", type=float, default=85.0)
    rep.add_argument("--beta", type=float, default=45.0)
    rep.add_argument("--output", "-o")


def _verify_args(ver):
    ver.add_argument("file")
    ver.add_argument("--json", action="store_true")


def _analyze_args(ana):
    ana.add_argument("what", choices=ANALYSES)
    ana.add_argument("--input")
    ana.add_argument("--builtin")
    ana.add_argument("--file", help="scene file for coplanar-* analyses")
    ana.add_argument("--t", type=int)
    ana.add_argument("--k", type=int)
    ana.add_argument("--n", type=int)


def _export_args(exp):
    exp.add_argument("file")
    exp.add_argument("--format", choices=["obj", "svg"], required=True)
    exp.add_argument("--view", choices=["xy", "xz", "yz"], default="xy")
    exp.add_argument("--output", "-o")


# name -> (help, argument adder, command)
COMMANDS = {
    "represent": ("construct a scene and verify it", _represent_args, cmd_represent),
    "verify": ("verify a scene file", _verify_args, cmd_verify),
    "analyze": ("combinatorial and coplanarity analyses", _analyze_args, cmd_analyze),
    "export": ("export a scene to OBJ or SVG", _export_args, cmd_export),
    "info": ("list classes and built-ins", lambda p: None, cmd_info),
}


def build_parser(names=COMMANDS) -> argparse.ArgumentParser:
    """The parser with the subcommands `names` (all by default).

    A subcommand's prog, usage and errors do not depend on its siblings.
    With fewer than all, the root's usage still names every command, so the
    one error the root can then report (unrecognized arguments) reads the
    same; with all of them, a missing command is still called "cmd".
    """
    ap = argparse.ArgumentParser(prog="polycontact")
    every = "{" + ",".join(COMMANDS) + "}"
    sub = ap.add_subparsers(dest="cmd", required=True,
                            metavar=every if len(names) < len(COMMANDS) else None)
    for name in names:
        help_, add_arguments, func = COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        add_arguments(p)
        p.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser(argv[:1] if argv and argv[0] in COMMANDS else COMMANDS)
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
