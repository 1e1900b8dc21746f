"""Command-line surface: construct, verify, analyze, export.

Every constructor certifies its scene (`verify.certify`), and `represent`
prints that `certificate`, to stderr when stdout gets the scene.  `verify`
prints the grid extent that the grid-claim check measured, and measures
it only for scenes that claim none.  Exit codes: 0 success, 1 `verify`
failure, 2 usage or parse error, 3 construction precondition violation
or no scene certifies.

`CLASSES` maps each `represent --class` to its constructor and the
reader of its input; `_build_scene` reads the input and calls the
constructor.

A call that names a known subcommand builds that subcommand's parser
alone (`_parse_args`).  The root parser, with every subcommand
(`build_parser`), is built only for help, no command, an unknown command
or arguments the subcommand leaves over; every text and exit code is the
root parser's either way.  Nothing is kept from one call to the next.

Loading `cli` imports `core`, `geom`, `scene`, `sceneio` and `verify`,
which every scene-handling subcommand runs.  Any other name the package
exports (its `_EXPORTS`) is imported on first use by the module
`__getattr__` and kept here, so `verify` compiles no construction and
`represent --class complete` only `arrangement`; `export` imports the
exporters when it runs.  Call sites read those names off the module
(`_m.represent_complete`), so a function set on `polycontact.cli` before
or after the first call is the one that runs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from . import _SOURCE
from .core import (BUILTIN_SYSTEMS, InputError, SteinerDescriptor,
                   blocks_from_text, builtin_system, graph_from_edge_list,
                   validate_steiner)
from .scene import ConstructionError
from .sceneio import _dumps, _scene_text, read_embedding, read_scene, write_scene
from .verify import grid_extent, verify_scene


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        importlib.import_module(f"{__package__}.{module}"), name)
    return value


# call sites read the lazy names off this module, so they see what was set on it
_m = sys.modules[__name__]


def _read_text(path):
    with open(path) as fh:
        return fh.read()


# readers of a class's input: (args, class) -> the constructor's argument

def _count(args, cls):
    _need(args.n is not None, f"--n is required for {cls}")
    return args.n


def _edges(args, cls):
    _need(args.input is not None, f"--input edge list required for {cls}")
    return graph_from_edge_list(_read_text(args.input))


def _bipartite(args, cls):
    a, b = ("--a", args.a), ("--b", args.b)
    for (opt, size), (other, other_size) in ((a, b), (b, a)):
        _need(size is None or size >= 0, f"{opt} is {size}; a part size is at least 0")
        _need(size is None or other_size is not None, f"{opt} given without {other}")
    if args.a is not None:
        return _m.complete_bipartite(args.a, args.b)
    _need(args.input is not None, "--a/--b or --input required")
    return graph_from_edge_list(_read_text(args.input))


def _embedding(args, cls):
    _need(args.input is not None, "--input embedding.json required")
    return read_embedding(args.input)


# class -> (constructor, reader of its input; None: it takes none)
CLASSES = {
    "complete": ("represent_complete", _count),
    "mindeg3": ("represent_min_degree3", _edges),
    "bipartite-toroidal": ("represent_bipartite_toroidal", _bipartite),
    "bipartite-grid": ("represent_bipartite_grid", _bipartite),
    "k33": ("represent_k33_unit_triangles", None),
    "oneplanar-cubic": ("represent_oneplanar_cubic", _embedding),
    "cubic-2ec": ("represent_2ec_cubic", _edges),
    "cubic": ("represent_cubic", _edges),
    "maxdeg3": ("represent_max_degree3", _edges),
    "cycle-square": ("represent_cycle_square", _count),
    "fano": ("represent_fano", lambda args, cls: _m.FanoParams(alpha=args.alpha)),
    "s239": ("represent_s239", lambda args, cls: _m.S239Params(beta=args.beta)),
}

ANALYSES = ["f-pattern", "counting", "coplanar-points", "coplanar-polygons",
            "steiner-check"]


def _build_scene(args):
    constructor, read = CLASSES[args.cls]
    inputs = () if read is None else (read(args, args.cls),)
    return getattr(_m, constructor)(*inputs)


class _Usage(Exception):
    pass


def _need(cond, msg):
    if not cond:
        raise _Usage(msg)


def cmd_represent(args) -> int:
    """Build and certify the scene; write its file with `write_scene` (-o)
    or the same bytes, `_scene_text` and a newline, to stdout."""
    scene = _build_scene(args)
    report = scene.certificate.to_text()
    if args.output:
        print(report)
        write_scene(args.output, scene)
        print(f"wrote {args.output}")
    else:
        print(report, file=sys.stderr)
        sys.stdout.write(_scene_text(scene) + "\n")
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
    from . import export  # not a package export: loaded on first use
    scene = read_scene(args.file)
    if args.format == "obj":
        text = export.scene_to_obj(scene)
    else:
        text = export.scene_to_svg(scene, view=args.view)
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


def _command_parser(ap, name):
    """ap, given the arguments and the command of subcommand `name`."""
    _, add_arguments, func = COMMANDS[name]
    add_arguments(ap)
    ap.set_defaults(func=func)
    return ap


def build_parser() -> argparse.ArgumentParser:
    """The root parser, with every subcommand."""
    ap = argparse.ArgumentParser(prog="polycontact")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, (help_, _, _) in COMMANDS.items():
        _command_parser(sub.add_parser(name, help=help_), name)
    return ap


def _parse_args(argv):
    """argv's namespace.  When argv names a known command, that command's
    parser alone parses the rest, under the prog the root parser gives it;
    anything it leaves over, help, no command and an unknown command go to
    the root parser, so every text and exit code is the root parser's."""
    if argv and argv[0] in COMMANDS:
        ap = _command_parser(argparse.ArgumentParser(prog=f"polycontact {argv[0]}"),
                             argv[0])
        args, rest = ap.parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
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
