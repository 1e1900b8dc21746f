"""Scene file round trips, exporters and the command-line interface."""

import gc
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polycontact import (ConstructionError, Graph, Hypergraph, InputError, Polygon3,
                         edge_key, graph_from_edge_list, graph_scene, represent_complete,
                         represent_cycle_square, represent_fano,
                         represent_min_degree3, scene_from_json, scene_to_json,
                         strictify, verify_scene)
from polycontact.cli import main
from polycontact.export import scene_to_obj, scene_to_svg
from polycontact.sceneio import _dumps, read_scene, write_scene
from polycontact.verify import grid_extent

from conftest import fresh_points, gadget_chain

_PETERSEN = "".join(f"{i} {(i + 1) % 5}\n{i} {i + 5}\n{i + 5} {(i + 2) % 5 + 5}\n"
                    for i in range(5))

# K4 drawn as a square with crossing diagonals, as a 1-plane embedding file
_K4_CROSSED = {
    "vertices": [
        {"id": "1", "rotation": ["e12", "e13", "e14"]},
        {"id": "2", "rotation": ["e23", "e24", "e12"]},
        {"id": "3", "rotation": ["e34", "e13", "e23"]},
        {"id": "4", "rotation": ["e34", "e14", "e24"]},
    ],
    "edges": [
        {"id": "e12", "endpoints": ["1", "2"]},
        {"id": "e13", "endpoints": ["1", "3"]},
        {"id": "e14", "endpoints": ["1", "4"]},
        {"id": "e23", "endpoints": ["2", "3"]},
        {"id": "e24", "endpoints": ["2", "4"]},
        {"id": "e34", "endpoints": ["3", "4"]},
    ],
    "crossings": [["e13", "e24"]],
    "outer_face": ["e12", "e23", "e34", "e14"],
}


class TestSceneRoundTrip:
    def test_exact_bit_identical(self):
        scene = represent_complete(5)
        back = scene_from_json(json.loads(json.dumps(scene_to_json(scene))))
        assert back.contacts == scene.contacts
        for label in scene.polygons:
            assert back.polygons[label].corners == scene.polygons[label].corners
        assert back.certificate is None
        r1, r2 = verify_scene(scene), verify_scene(back)
        assert r1.passed and r2.passed
        assert r1.reconstructed == r2.reconstructed

    def test_float_round_trip(self):
        scene = represent_fano()
        back = scene_from_json(scene_to_json(scene))
        assert back.contacts == scene.contacts
        assert verify_scene(back).passed

    def test_hypergraph_structure_survives(self):
        scene = represent_fano()
        back = scene_from_json(scene_to_json(scene))
        assert set(back.structure.blocks) == set(scene.structure.blocks)


def _dumped(doc) -> str:
    """What `json.dump(doc, fh, indent=1)` and a newline write, token by
    token."""
    buf = io.StringIO()
    json.dump(doc, buf, indent=1)
    buf.write("\n")
    return buf.getvalue()


class TestJsonBytes:
    """Scene files, `represent` to stdout and `verify --json` are encoded
    once and written once, with the bytes of a token-by-token json.dump."""

    @pytest.mark.parametrize("build,args", [
        (lambda: represent_complete(5), ["--class", "complete", "--n", "5"]),
        (lambda: represent_cycle_square(7), ["--class", "cycle-square", "--n", "7"]),
    ], ids=["exact", "float"])
    def test_bytes(self, build, args, tmp_path, capsys):
        scene = build()
        doc = scene_to_json(scene)
        path = tmp_path / "s.json"
        write_scene(str(path), scene)
        assert path.read_text() == _dumped(doc)

        # without -o, stdout is the scene file alone and the report goes to stderr
        assert main(["represent", *args]) == 0
        captured = capsys.readouterr()
        assert captured.out == _dumped(doc)
        assert captured.err == scene.certificate.to_text() + "\n"

        assert main(["verify", str(path), "--json"]) == 0
        out = capsys.readouterr().out
        assert out == _dumped(json.loads(out))


_json_text = st.text() | st.sampled_from(
    ['"', "\\", "\n\t\x00\x1f\x7f", "é", "\u2028", "\U0001f600", ""])
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _json_text,
    lambda kids: (st.lists(kids) | st.lists(kids).map(tuple)
                  | st.dictionaries(_json_text, kids)
                  | st.dictionaries(st.integers() | _json_text, kids)),
    max_leaves=30)


class TestDumps:
    """`_dumps` is `json.dumps(indent=1)` byte for byte."""

    @given(_json_values)
    def test_matches_json(self, value):
        assert _dumps(value) == json.dumps(value, indent=1)

    def test_specials(self):
        value = {"a": [-0.0, math.nan, math.inf, -math.inf, 1e300, True, None],
                 "": {}, "b": [[], (), {1: "x", 2.5: ["y"]}], "\u00e9\"": "\\\n"}
        assert _dumps(value) == json.dumps(value, indent=1)

    def test_leaves_no_reference_cycles(self):
        # json's indenting encoder leaves cycles behind, and they hold the
        # encoded text until the next collection
        doc = scene_to_json(represent_fano())
        doc["meta"]["empty"] = []
        gc.collect()
        gc.disable()
        try:
            _dumps(doc)
            assert gc.collect() == 0
        finally:
            gc.enable()


_MAXDEG3 = "0 1\n1 2\n1 3\n3 4\n"


_EVERY_CLASS = [
    *(["--class", "cycle-square", "--n", str(n)] for n in range(6, 14)),
    ["--class", "fano"], ["--class", "s239"], ["--class", "k33"],
    ["--class", "bipartite-toroidal", "--a", "3", "--b", "4"],
    ["--class", "bipartite-grid", "--a", "3", "--b", "4"],
    ["--class", "cubic", "--input", "{petersen}"],
    ["--class", "cubic-2ec", "--input", "{petersen}"],
    ["--class", "oneplanar-cubic", "--input", "{k4x}"],
    ["--class", "complete", "--n", "5"],
    ["--class", "mindeg3", "--input", "{petersen}"],
    ["--class", "maxdeg3", "--input", "{maxdeg3}"],
]
_CLASS_IDS = ["-".join(x.strip("{}") for x in a[1::2]) for a in _EVERY_CLASS]


def _input_files(tmp_path):
    files = {"petersen": _PETERSEN, "maxdeg3": _MAXDEG3, "k4x": json.dumps(_K4_CROSSED)}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return {k: tmp_path / k for k in files}


@pytest.mark.parametrize("args", _EVERY_CLASS, ids=_CLASS_IDS)
def test_every_class_writes_json_bytes(args, tmp_path, monkeypatch):
    # the scene the command builds is written as json.dumps(indent=1) writes it
    import polycontact.cli as cli
    files = _input_files(tmp_path)
    built = []
    monkeypatch.setattr(cli, "_build_scene",
                        lambda a, build=cli._build_scene: built.append(build(a)) or built[-1])
    out = tmp_path / "scene.json"
    argv = [a.format(**files) for a in args]
    assert main(["represent", *argv, "-o", str(out)]) == 0
    assert out.read_text() == json.dumps(scene_to_json(built[0]), indent=1) + "\n"


@pytest.mark.parametrize("args", _EVERY_CLASS, ids=_CLASS_IDS)
def test_every_class_writes_exact_coordinates(args, tmp_path, capsys):
    # every coordinate is "num/den" in lowest terms, and the file verifies
    out = tmp_path / "scene.json"
    argv = [a.format(**_input_files(tmp_path)) for a in args]
    assert main(["represent", *argv, "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["arithmetic"] == "exact" and "epsilon" not in doc["meta"]
    for point in doc["points"]:
        for axis in "xyz":
            num, den = point[axis].split("/")
            x = Fraction(int(num), int(den))
            assert point[axis] == f"{x.numerator}/{x.denominator}"
    assert main(["verify", str(out), "--json"]) == 0


# one call per CLI class; `cubic` gets a bridged graph, so it draws a floorplan
_ONE_PER_CLASS = {
    "complete": ["--n", "5"],
    "mindeg3": ["--input", "{petersen}"],
    "bipartite-toroidal": ["--a", "2", "--b", "4"],
    "bipartite-grid": ["--a", "2", "--b", "5"],
    "k33": [],
    "oneplanar-cubic": ["--input", "{k4x}"],
    "cubic-2ec": ["--input", "{petersen}"],
    "cubic": ["--input", "{chain}"],
    "maxdeg3": ["--input", "{maxdeg3}"],
    "cycle-square": ["--n", "7"],
    "fano": [],
    "s239": [],
}


def _class_argv(cls, tmp_path):
    files = _input_files(tmp_path)
    chain = tmp_path / "chain"
    chain.write_text("".join(f"{u} {v}\n" for u, v in map(sorted, gadget_chain(2).edges)))
    files["chain"] = chain
    return ["--class", cls] + [a.format(**files) for a in _ONE_PER_CLASS[cls]]


def _build(argv):
    import polycontact.cli as cli
    return cli._build_scene(cli._parse_args(["represent", *argv]))


def test_one_per_class_covers_every_class():
    import polycontact.cli as cli
    assert sorted(_ONE_PER_CLASS) == sorted(cli.CLASSES)


@pytest.mark.parametrize("cls", sorted(_ONE_PER_CLASS))
def test_every_class_certifies(cls, tmp_path):
    # the constructor's certificate is the report a fresh verify gives
    scene = _build(_class_argv(cls, tmp_path))
    assert scene.certificate.passed
    assert scene.certificate.to_text() == verify_scene(scene).to_text()


@pytest.mark.parametrize("cls", sorted(_ONE_PER_CLASS))
def test_every_class_fails_closed(cls, tmp_path, monkeypatch):
    # with every verification failing, no constructor returns a scene and
    # `represent` exits 3 without writing its file
    import polycontact.verify as verify
    argv = _class_argv(cls, tmp_path)
    failing = verify.VerificationReport(violations=[verify.Finding("forced", "test")])
    monkeypatch.setattr(verify, "verify_scene", lambda scene: failing)
    with pytest.raises(ConstructionError):
        _build(argv)
    out = tmp_path / "scene.json"
    assert main(["represent", *argv, "-o", str(out)]) == 3
    assert not out.exists()


def test_strictify_fails_closed(monkeypatch):
    import polycontact.verify as verify
    scene = represent_complete(5)
    failing = verify.VerificationReport(violations=[verify.Finding("forced", "test")])
    monkeypatch.setattr(verify, "verify_scene", lambda scene: failing)
    with pytest.raises(ConstructionError, match=r"^complete scene fails verification: \[forced\]"):
        strictify(scene)


def test_represent_to_stdout_pipes_into_verify(tmp_path):
    # stdout without -o is the scene file alone; the report goes to stderr
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    scene = tmp_path / "k4.json"
    with open(scene, "w") as fh:
        rep = subprocess.run([sys.executable, "-m", "polycontact.cli", "represent",
                              "--class", "complete", "--n", "4"], env=env, stdout=fh,
                             stderr=subprocess.PIPE, text=True)
    assert rep.returncode == 0
    assert rep.stderr.startswith("pass: True\n")
    ver = subprocess.run([sys.executable, "-m", "polycontact.cli", "verify", str(scene)],
                         env=env, capture_output=True, text=True)
    assert ver.returncode == 0, ver.stdout + ver.stderr


def _triangle_pair(a_corners, b_corners, contact, arithmetic):
    polygons = {"a": Polygon3(corners=a_corners), "b": Polygon3(corners=b_corners)}
    return graph_scene(Graph.from_edges([("a", "b")]), polygons,
                       {edge_key("a", "b"): contact},
                       {"construction": "test", "arithmetic": arithmetic})


class TestPointIds:
    """A point's id follows its value, not how the value is spelled; the
    first spelling is the one written."""

    def test_float_signed_zero_shares_an_id(self):
        scene = _triangle_pair(((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
                               ((-0.0, 0.0, 0.0), (0.0, -1.0, 0.0), (-1.0, 0.0, 0.0)),
                               (0.0, -0.0, 0.0), "exact")
        doc = scene_to_json(scene)
        assert len(doc["points"]) == 5
        assert doc["points"][0] == {"id": "p0", "x": "0/1", "y": "0/1", "z": "0/1"}
        assert doc["polygons"][1]["corners"][0] == "p0"
        assert doc["contacts"][0]["point"] == "p0"

    def test_exact_spellings_of_one_share_an_id(self):
        scene = _triangle_pair(((1, 0, 0), (2, 0, 0), (1, 1, 0)),
                               ((Fraction(1), 0, 0), (1, -1, 0), (0, 0, 0)),
                               (1.0, 0.0, Fraction(0)), "exact")
        doc = scene_to_json(scene)
        assert len(doc["points"]) == 5
        assert doc["points"][0] == {"id": "p0", "x": "1/1", "y": "0/1", "z": "0/1"}
        assert doc["polygons"][1]["corners"][0] == "p0"
        assert doc["contacts"][0]["point"] == "p0"


    @pytest.mark.parametrize("build", [lambda: represent_complete(5), represent_fano],
                             ids=["k5", "fano"])
    def test_equal_objects_write_as_one_shared(self, build):
        # the writer reads each point object once; distinct but equal
        # objects, contacts as lists too, still get one id and the same bytes
        scene = build()
        assert _dumps(scene_to_json(fresh_points(scene))) == _dumps(scene_to_json(scene))


class TestExport:
    def test_obj_precision(self):
        scene = represent_fano()
        text = scene_to_obj(scene)
        vlines = [l for l in text.splitlines() if l.startswith("v ")]
        corners = {tuple(float(x) for x in l.split()[1:]) for l in vlines}
        for poly in scene.polygons.values():
            for c in poly.corners:
                assert tuple(float(x) for x in c) in corners
        assert any(l.startswith("f ") for l in text.splitlines())

    def test_obj_degenerate_lines(self):
        # no construction emits a segment or a point, but a scene file may
        # hold them (verify fails it); they export as a line and a point
        scene = graph_scene(Graph.from_edges([], vertices=["s", "p"]),
                            {"s": Polygon3(((0, 0, 0), (1, 0, 0))),
                             "p": Polygon3(((0, 1, 0),))},
                            {}, {"construction": "test", "arithmetic": "exact"})
        lines = scene_to_obj(scene).splitlines()
        assert "p 1" in lines and "l 2 3" in lines

    def test_svg_views(self):
        scene = represent_fano()
        for view in ("xy", "xz", "yz"):
            svg = scene_to_svg(scene, view=view)
            assert svg.startswith("<svg") and "<polygon" in svg


class TestCli:
    def test_represent_and_verify(self, tmp_path):
        out = tmp_path / "k5.json"
        assert main(["represent", "--class", "complete", "--n", "5",
                     "-o", str(out)]) == 0
        assert main(["verify", str(out)]) == 0

    def test_verify_broken_scene_exit_one(self, tmp_path):
        out = tmp_path / "k4.json"
        main(["represent", "--class", "complete", "--n", "4", "-o", str(out)])
        doc = json.loads(out.read_text())
        # translate one polygon's private corners upward: contacts break
        scene = scene_from_json(doc)
        victim = sorted(scene.polygons)[0]
        from polycontact.geom import Polygon3
        scene.polygons[victim] = Polygon3(
            corners=tuple((x, y, z + 10) for x, y, z in
                          scene.polygons[victim].corners))
        from polycontact.sceneio import write_scene
        write_scene(str(out), scene)
        assert main(["verify", str(out)]) == 1

    def test_construction_error_exit_three(self, tmp_path):
        assert main(["represent", "--class", "complete", "--n", "0",
                     "-o", str(tmp_path / "x.json")]) == 3

    def test_usage_error_exit_two(self, tmp_path):
        assert main(["represent", "--class", "complete",
                     "-o", str(tmp_path / "x.json")]) == 2

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
    def test_bad_epsilon_exit_two(self, eps, tmp_path, capsys):
        # verification is exact: `verify` has no --epsilon option at all
        out = tmp_path / "fano.json"
        assert main(["represent", "--class", "fano", "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out), "--epsilon", eps]) == 2
        assert "--epsilon" in capsys.readouterr().err

    def test_verify_measures_the_grid_once(self, tmp_path, capsys, monkeypatch):
        # the grid-claim check's extent is printed; only a scene that claims
        # no grid (a cycle square) is measured by the command itself
        import polycontact.cli as cli
        calls = []
        monkeypatch.setattr(cli, "grid_extent",
                            lambda *a, **k: calls.append(a) or grid_extent(*a, **k))
        grid, square = tmp_path / "k46.json", tmp_path / "c8.json"
        assert main(["represent", "--class", "bipartite-grid", "--a", "4",
                     "--b", "6", "-o", str(grid)]) == 0
        assert main(["represent", "--class", "cycle-square", "--n", "8",
                     "-o", str(square)]) == 0
        capsys.readouterr()
        assert main(["verify", str(grid), "--json"]) == 0
        ext = grid_extent(read_scene(str(grid)))
        assert json.loads(capsys.readouterr().out)["grid_extent"] == [ext.gx, ext.gy, ext.gz]
        assert verify_scene(read_scene(str(grid))).grid_extent == ext
        assert calls == []
        assert main(["verify", str(square)]) == 0
        assert len(calls) == 1
        assert verify_scene(read_scene(str(square))).grid_extent is None

    def test_no_verify_flag_is_gone(self, tmp_path):
        assert main(["represent", "--class", "complete", "--n", "4",
                     "--no-verify", "-o", str(tmp_path / "k4.json")]) == 2
        assert not (tmp_path / "k4.json").exists()

    @pytest.mark.parametrize("cls, args, build", [
        ("complete", ["--n", "6"], lambda: represent_complete(6)),
        ("mindeg3", ["--input", "{petersen}"],
         lambda: represent_min_degree3(graph_from_edge_list(_PETERSEN))),
        ("cycle-square", ["--n", "8"], lambda: represent_cycle_square(8)),
    ], ids=["complete", "mindeg3", "cycle-square"])
    def test_represent_verified_once(self, cls, args, build, tmp_path, capsys,
                                     monkeypatch):
        # the constructor's certificate is printed; the command does not
        # verify the scene a second time
        import polycontact.cli as cli
        scene = build()
        assert scene.certificate.passed
        edges = tmp_path / "petersen.edges"
        edges.write_text(_PETERSEN)
        calls = []
        monkeypatch.setattr(cli, "verify_scene", lambda *a, **k: calls.append(a))
        out = tmp_path / "scene.json"
        assert main(["represent", "--class", cls, "-o", str(out)]
                    + [a.format(petersen=edges) for a in args]) == 0
        assert not calls
        assert capsys.readouterr().out == \
            f"{scene.certificate.to_text()}\nwrote {out}\n"
        assert out.read_text() == json.dumps(scene_to_json(scene), indent=1) + "\n"

    def test_bipartite_flags(self, tmp_path):
        out = tmp_path / "k34.json"
        assert main(["represent", "--class", "bipartite-grid", "--a", "3",
                     "--b", "4", "-o", str(out)]) == 0

    @pytest.mark.parametrize("cls", ["bipartite-grid", "bipartite-toroidal"])
    @pytest.mark.parametrize("a, b, named", [("-2", "3", "--a"), ("3", "-1", "--b"),
                                             ("-1", "-1", "--a")])
    def test_negative_part_size_is_usage_error(self, cls, a, b, named, tmp_path, capsys):
        out = tmp_path / "k.json"
        assert main(["represent", "--class", cls, "--a", a, "--b", b, "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"usage error: {named} is -")
        assert not out.exists()

    @pytest.mark.parametrize("cls", ["bipartite-grid", "bipartite-toroidal"])
    @pytest.mark.parametrize("given, missing", [("--a", "--b"), ("--b", "--a")])
    def test_lone_part_size_is_usage_error(self, cls, given, missing, tmp_path, capsys):
        # one size beside an edge list is refused, not dropped for the file's graph
        edges = tmp_path / "e.txt"
        edges.write_text("0 1\n")
        out = tmp_path / "k.json"
        assert main(["represent", "--class", cls, given, "3", "--input", str(edges),
                     "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"usage error: {given} given without {missing}\n"
        assert not out.exists()

    @pytest.mark.parametrize("cls", ["bipartite-grid", "bipartite-toroidal"])
    def test_empty_part_is_valid(self, cls, tmp_path):
        out = tmp_path / "k03.json"
        assert main(["represent", "--class", cls, "--a", "0", "--b", "3", "-o", str(out)]) == 0
        assert len(read_scene(str(out)).polygons) == 3

    def test_mindeg3_input_file(self, tmp_path):
        edges = tmp_path / "petersen.edges"
        edges.write_text(_PETERSEN)
        out = tmp_path / "p.json"
        assert main(["represent", "--class", "mindeg3", "--input", str(edges),
                     "-o", str(out)]) == 0

    @pytest.mark.parametrize("cls, written", [
        ("mindeg3", True), ("maxdeg3", True), ("bipartite-grid", True),
        ("bipartite-toroidal", True), ("cubic", False), ("cubic-2ec", False),
    ])
    def test_graph_with_no_vertices(self, cls, written, tmp_path, capsys):
        # the classes that pad write an empty scene that certifies; the
        # cubic classes name the empty graph and exit 3
        edges = tmp_path / "empty.edges"
        edges.write_text("")
        out = tmp_path / "empty.json"
        rc = main(["represent", "--class", cls, "--input", str(edges), "-o", str(out)])
        err = capsys.readouterr().err
        if not written:
            assert rc == 3 and not out.exists()
            assert err == "construction error: graph is empty: the cubic classes need vertices\n"
            return
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["points"] == doc["polygons"] == doc["contacts"] == []
        assert main(["verify", str(out), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] and report["contacts"] == 0 and report["violations"] == []

    def test_oneplanar_embedding_file(self, tmp_path):
        emb = tmp_path / "k4x.json"
        emb.write_text(json.dumps(_K4_CROSSED))
        out = tmp_path / "k4x.scene.json"
        assert main(["represent", "--class", "oneplanar-cubic",
                     "--input", str(emb), "-o", str(out)]) == 0

    @pytest.mark.parametrize("labels", [
        ["x0", "x1", "x2", "x3"],
        ["a|", "a|b", "|", "b"],
        ["a#0", "a#", "#1", "b"],
        ["m|a", "m|a|b", "c|0", "k|a|0"],
    ], ids=["dummy-names", "bar", "hash", "medial-names"])
    @pytest.mark.parametrize("outer", [["e12", "e23", "e34", "e14"],
                                       ["e12", "e13", "e24"]],
                             ids=["crossing-inside", "b-configuration"])
    def test_oneplanar_labels_are_opaque(self, labels, outer, tmp_path):
        name = dict(zip("1234", labels))
        doc = json.loads(json.dumps(_K4_CROSSED))
        for rec in doc["vertices"]:
            rec["id"] = name[rec["id"]]
        for rec in doc["edges"]:
            rec["endpoints"] = [name[v] for v in rec["endpoints"]]
        doc["outer_face"] = outer
        emb = tmp_path / "k4x.json"
        emb.write_text(json.dumps(doc))
        out = tmp_path / "k4x.scene.json"
        assert main(["represent", "--class", "oneplanar-cubic",
                     "--input", str(emb), "-o", str(out)]) == 0
        assert main(["verify", str(out)]) == 0

    def test_analyze_fpattern(self, capsys):
        assert main(["analyze", "f-pattern", "--builtin", "S3410"]) == 0
        out = capsys.readouterr().out
        assert "obstruction pattern" in out

    def test_analyze_fpattern_from_file(self, tmp_path, capsys):
        from polycontact import builtin_system
        blocks = tmp_path / "s3410.blocks"
        blocks.write_text("\n".join(" ".join(sorted(b)) for b in
                                    builtin_system("S3410").blocks))
        assert main(["analyze", "f-pattern", "--input", str(blocks)]) == 0
        assert "obstruction pattern" in capsys.readouterr().out

    def test_analyze_counting(self, capsys):
        assert main(["analyze", "counting", "--builtin", "S3410",
                     "--n", "10"]) == 0
        assert "ConvexQuadObstruction" in capsys.readouterr().out

    def test_analyze_steiner_check(self, capsys):
        assert main(["analyze", "steiner-check", "--builtin", "PG3",
                     "--t", "2", "--k", "4", "--n", "13"]) == 0

    def test_analyze_coplanar(self, tmp_path, capsys):
        out = tmp_path / "fano.json"
        main(["represent", "--class", "fano", "-o", str(out)])
        assert main(["analyze", "coplanar-points", "--file", str(out)]) == 0
        assert "max coplanar" in capsys.readouterr().out
        assert main(["analyze", "coplanar-polygons", "--file", str(out)]) == 0

    def test_export_cli(self, tmp_path):
        scene = tmp_path / "k33.json"
        main(["represent", "--class", "k33", "-o", str(scene)])
        assert main(["export", str(scene), "--format", "obj",
                     "-o", str(tmp_path / "k33.obj")]) == 0
        assert main(["export", str(scene), "--format", "svg", "--view", "xz",
                     "-o", str(tmp_path / "k33.svg")]) == 0

    def test_info(self, capsys):
        assert main(["info"]) == 0
        assert "cycle-square" in capsys.readouterr().out


_ABBREVIATED = ["represent", "--cl", "complete", "--n", "3"]  # parses: --cl is --class
_PARSER_CASES = [
    ["-h"], ["represent", "-h"], ["verify", "-h"], ["analyze", "-h"],
    ["export", "-h"], ["info", "-h"], [], ["nope"], ["represent"],
    ["represent", "--class", "nope"], ["verify"],
    ["verify", "scene.json", "--epsilon", "-1"],
    ["represent", "--class", "complete", "--n", "4", "--no-verify"],
    _ABBREVIATED, ["represent", "--class", "complete", "--n", "x"],
    ["represent", "--class", "complete", "--n", "4", "-o"], ["verify", "a", "b"],
]


def _run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParser:
    """A call naming a known command builds that command's parser alone;
    every text stays the one the root parser, with every subcommand, gives."""

    @pytest.mark.parametrize("columns", ["40", "200"])
    @pytest.mark.parametrize("argv", _PARSER_CASES, ids=" ".join)
    def test_same_text_as_every_subcommand(self, argv, columns, capsys, monkeypatch):
        import polycontact.cli as cli
        monkeypatch.setenv("COLUMNS", columns)
        got = _run_main(argv, capsys)
        monkeypatch.setattr(cli, "_parse_args", lambda argv: cli.build_parser().parse_args(argv))
        assert _run_main(argv, capsys) == got
        assert got[0] == (0 if "-h" in argv or argv == _ABBREVIATED else 2)

    def test_root_texts(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        usage = "usage: polycontact [-h] {represent,verify,analyze,export,info} ...\n"
        assert _run_main([], capsys) == (
            2, "", usage + "polycontact: error: the following arguments are required: cmd\n")
        assert _run_main(["info", "x"], capsys) == (
            2, "", usage + "polycontact: error: unrecognized arguments: x\n")

    def test_parsers_built_per_call(self, tmp_path, capsys, monkeypatch):
        # one parser for a known command with nothing left over; the root
        # parser, with every subcommand, for anything else; none kept
        import argparse
        import polycontact.cli as cli
        scene = tmp_path / "k4.json"
        write_scene(str(scene), represent_complete(4))
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        root = ["polycontact"] + [f"polycontact {name}" for name in cli.COMMANDS]
        for argv, progs in [
                (["info"], ["polycontact info"]),
                (["verify", str(scene), "--json"], ["polycontact verify"]),
                (["represent", "--class", "complete", "--n", "4"], ["polycontact represent"]),
                (["-h"], root), ([], root), (["nope"], root),
                (["info", "x"], ["polycontact info"] + root),
                (["info"], ["polycontact info"])]:
            built.clear()
            main(argv)
            assert built == progs, argv
        capsys.readouterr()

    def test_no_parser_built_at_import(self):
        code = ("import argparse, sys\n"
                "made = []\n"
                "init = argparse.ArgumentParser.__init__\n"
                "def counted(self, *a, **k):\n"
                "    made.append(k)\n"
                "    init(self, *a, **k)\n"
                "argparse.ArgumentParser.__init__ = counted\n"
                "import polycontact.cli\n"
                "assert 'polycontact.cli' in sys.modules\n"
                "sys.exit(len(made))\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _two_triangle_doc(coords, arithmetic):
    """Triangles a and b of an edgeless graph, as a scene document."""
    return {"kind": "graph",
            "structure": {"vertices": ["a", "b"], "edges": []},
            "points": [{"id": f"p{i}", "x": x, "y": y, "z": z}
                       for i, (x, y, z) in enumerate(coords)],
            "polygons": [{"label": "a", "corners": ["p0", "p1", "p2"]},
                         {"label": "b", "corners": ["p3", "p4", "p5"]}],
            "contacts": [],
            "meta": {"construction": "test", "arithmetic": arithmetic}}


def _valid_exact_doc():
    return scene_to_json(represent_complete(4))


def _without(key):
    doc = _valid_exact_doc()
    del doc[key]
    return doc


def _edited(edit):
    doc = _valid_exact_doc()
    edit(doc)
    return doc


def _coordinate(value):
    return _edited(lambda d: d["points"][0].update(x=value))


def _float_corner(value):
    # b's edge at x = y = 1 runs through a's interior whatever its third
    # corner is; that corner's x coordinate is `value`
    return _two_triangle_doc(
        [("0/1", "0/1", "0/1"), ("4/1", "0/1", "0/1"), ("0/1", "4/1", "0/1"),
         ("1/1", "1/1", "-1/1"), ("1/1", "1/1", "1/1"), (value, "1/1", "0/1")],
        "exact")


def _float_epsilon(value):
    # a float scene as the earlier writer wrote it: decimal coordinates,
    # "arithmetic": "float" and an epsilon
    doc = _two_triangle_doc(
        [("0.0", "0.0", "0.0"), ("4.0", "0.0", "0.0"), ("0.0", "4.0", "0.0"),
         ("1.0", "1.0", "-1.0"), ("1.0", "1.0", "1.0"), ("2.0", "1.0", "0.0")],
        "float")
    doc["meta"]["epsilon"] = value
    return doc


class TestMalformedScene:
    """A scene file the reader cannot take is an input error: exit 2."""

    @pytest.mark.parametrize("doc", [
        lambda: [],
        lambda: "scene",
        lambda: _without("kind"),
        lambda: _without("points"),
        lambda: _without("polygons"),
        lambda: _without("contacts"),
        lambda: _coordinate("1/0"),
        lambda: _coordinate("abc"),
        lambda: _coordinate("3"),
        lambda: _edited(lambda d: d["contacts"][0].update(elements=["1"])),
        lambda: _edited(lambda d: d["polygons"][0].update(corners=[])),
        lambda: _edited(lambda d: d.update(structure=None)),
        lambda: _float_corner("nan"),
        lambda: _float_corner("inf"),
        lambda: _float_corner("-inf"),
        lambda: _float_epsilon(-1e-9),
        lambda: _float_epsilon(float("nan")),
        lambda: _float_epsilon("1e-9"),
        lambda: _coordinate(" +1_0/1 "),
        lambda: _coordinate("\u0661/1"),
        lambda: _coordinate("1/-2"),
    ], ids=["list", "string", "no-kind", "no-points", "no-polygons",
            "no-contacts", "zero-denominator", "not-a-number", "no-denominator",
            "one-element-contact", "no-corners", "null-structure",
            "nan", "inf", "minus-inf",
            "negative-epsilon", "nan-epsilon", "string-epsilon",
            "int-syntax", "arabic-indic-digit", "negative-denominator"])
    def test_exit_two(self, doc, tmp_path, capsys):
        doc = doc()
        with pytest.raises(InputError):
            scene_from_json(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 2
        assert "input error" in capsys.readouterr().err

    def test_finite_float_twin_fails_verification(self, tmp_path):
        # the same scene with a finite third corner is read, and its
        # piercing edge is a violation
        path = tmp_path / "pierced.json"
        path.write_text(json.dumps(_float_corner("2/1")))
        assert main(["verify", str(path)]) == 1


# The Fano scene as the earlier float writer wrote it: repr() decimals,
# "arithmetic": "float" and an epsilon.
_FLOAT_FANO = (
    '{"kind":"hypergraph","structure":{"vertices":["1","2","3","4","7","5","6"],'
    '"blocks":[["1","2","3"],["1","4","7"],["1","5","6"],["2","4","6"],["2","5","7"],'
    '["3","4","5"],["3","6","7"]]},"points":['
    '{"id":"p0","x":"0.0","y":"0.0","z":"0.5"},'
    '{"id":"p1","x":"0.4999999999999999","y":"-0.2886751345948132","z":"0.0"},'
    '{"id":"p2","x":"-0.5751532771085474","y":"0.05031939153678224","z":"1.0"},'
    '{"id":"p3","x":"-0.5","y":"-0.288675134594813","z":"0.0"},'
    '{"id":"p4","x":"0.33115450992810297","y":"0.47293765327748155","z":"1.0"},'
    '{"id":"p5","x":"0.24399876718044466","y":"-0.5232570448142639","z":"1.0"},'
    '{"id":"p6","x":"3.53525079574969e-17","y":"0.5773502691896258","z":"0.0"}],'
    '"polygons":[{"label":"1,2,3","corners":["p0","p1","p2"]},'
    '{"label":"1,4,7","corners":["p0","p3","p4"]},{"label":"1,5,6","corners":["p0","p5","p6"]},'
    '{"label":"2,4,6","corners":["p1","p3","p6"]},{"label":"2,5,7","corners":["p1","p5","p4"]},'
    '{"label":"3,4,5","corners":["p2","p3","p5"]},{"label":"3,6,7","corners":["p2","p6","p4"]}],'
    '"contacts":[{"point":"p0","elements":["1"]},{"point":"p1","elements":["2"]},'
    '{"point":"p2","elements":["3"]},{"point":"p3","elements":["4"]},'
    '{"point":"p5","elements":["5"]},{"point":"p6","elements":["6"]},'
    '{"point":"p4","elements":["7"]}],'
    '"meta":{"construction":"fano","arithmetic":"float","epsilon":1e-06,"alpha_degrees":85.0}}')


class TestFloatSceneRejected:
    """The reader takes exact scenes only, and names what it refuses."""

    def test_float_scene_exits_two(self, tmp_path, capsys):
        path = tmp_path / "fano.json"
        path.write_text(_FLOAT_FANO)
        assert main(["verify", str(path), "--json"]) == 2
        assert capsys.readouterr() == ("", "input error: meta.arithmetic is 'float'; "
                                           'only "exact" scenes are read\n')

    def test_decimal_coordinate_exits_two(self, tmp_path, capsys):
        doc = json.loads(_FLOAT_FANO)
        doc["meta"]["arithmetic"] = "exact"
        path = tmp_path / "fano.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err == (
            "input error: point 'p0': coordinate x is '0.0', not \"num/den\"\n")

    @pytest.mark.parametrize("value", ["1/2/3", "0.5/1", "1/", " ", 0.5, None, ["1/2"]])
    def test_coordinate_not_num_den(self, value):
        doc = _valid_exact_doc()
        doc["points"][2]["z"] = value
        with pytest.raises(InputError, match="^point 'p2': coordinate z is .*, not \"num/den\"$"):
            scene_from_json(doc)


class TestCoordinatesReadOnce:
    """A read converts each distinct coordinate string once; a malformed
    one is refused where it first appears, as before."""

    _REPEATS = [("0/1", "0/1", "0/1"), ("4/1", "0/1", "0/1"), ("0/1", "4/1", "0/1"),
                ("1/1", "1/1", "-1/1"), ("1/1", "1/1", "1/1"), ("4/1", "1/1", "0/1")]

    def test_equal_strings_share_one_fraction(self):
        scene = scene_from_json(_two_triangle_doc(self._REPEATS, "exact"))
        objects = {}
        for poly in scene.polygons.values():
            for corner in poly.corners:
                for c in corner:
                    objects.setdefault(c, set()).add(id(c))
        assert sorted(objects) == [-1, 0, 1, 4]
        assert all(len(ids) == 1 for ids in objects.values())

    @pytest.mark.parametrize("bad, message", [
        ("1/0", "zero denominator in coordinate '1/0'"),
        ("3", "point 'p4': coordinate y is '3', not \"num/den\""),
        (["1/1"], "point 'p4': coordinate y is ['1/1'], not \"num/den\""),
    ], ids=["zero-denominator", "no-slash", "unhashable"])
    def test_first_malformed_coordinate(self, bad, message):
        coords = self._REPEATS[:4] + [("1/1", bad, "0/1"), (bad, "1/1", bad)]
        with pytest.raises(InputError) as exc:
            scene_from_json(_two_triangle_doc(coords, "exact"))
        assert str(exc.value) == message


def _duplicated(where, record):
    """The complete-K4 document with `record(doc)` put first in `where`."""
    doc = _valid_exact_doc()
    doc[where].insert(0, record(doc))
    return doc


class TestDuplicateRecords:
    """A record that repeats a point id, polygon label or contact is an
    input error; the reader does not keep one of them silently."""

    @pytest.mark.parametrize("doc", [
        lambda: _duplicated("points", lambda d: {"id": "p0", "x": "99/1", "y": "0/1",
                                                 "z": "0/1"}),
        lambda: _duplicated("polygons", lambda d: {
            "label": d["polygons"][0]["label"], "corners": d["polygons"][1]["corners"]}),
        lambda: _duplicated("contacts", lambda d: {
            "point": d["contacts"][1]["point"],
            "elements": d["contacts"][0]["elements"][::-1]}),
    ], ids=["point", "polygon", "contact"])
    def test_exit_two(self, doc, tmp_path, capsys):
        doc = doc()
        with pytest.raises(InputError, match="duplicate"):
            scene_from_json(doc)
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path), "--json"]) == 2
        assert "duplicate" in capsys.readouterr().err


class TestBlockLabels:
    """A hypergraph scene's polygons are found by `block_label`, so two
    blocks may not share one, and each contact must be a vertex's."""

    def test_colliding_block_labels_exit_two(self, tmp_path, capsys):
        blocks = [["p,q", "r", "s"], ["p", "q,r", "s"]]
        with pytest.raises(InputError, match="share the label 'p,q,r,s'"):
            Hypergraph.from_blocks(blocks)
        # one pentagon through all five vertex points stands for both blocks
        corners = {"p,q": (0, 0), "r": (2, 0), "s": (3, 2), "p": (1, 3), "q,r": (-1, 2)}
        doc = {"kind": "hypergraph",
               "structure": {"vertices": list(corners), "blocks": blocks},
               "points": [{"id": v, "x": f"{x}/1", "y": f"{y}/1", "z": "0/1"}
                          for v, (x, y) in corners.items()],
               "polygons": [{"label": "p,q,r,s", "corners": list(corners)}],
               "contacts": [{"point": v, "elements": [v]} for v in corners],
               "meta": {"construction": "test", "arithmetic": "exact"}}
        path = tmp_path / "collide.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 2
        assert "share the label" in capsys.readouterr().err

    def test_contact_of_no_vertex_exit_one(self, tmp_path, capsys):
        doc = scene_to_json(represent_fano())
        doc["contacts"].append({"point": doc["contacts"][0]["point"], "elements": ["zz"]})
        path = tmp_path / "fano.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 1
        assert "[declared-mismatch] zz: declared contact for a non-element" \
            in capsys.readouterr().out
