"""Scene file round trips, exporters and the command-line interface."""

import json

import pytest

from polycontact import (InputError, graph_from_edge_list, represent_complete,
                         represent_cycle_square, represent_fano,
                         represent_min_degree3, scene_from_json,
                         scene_to_json, verify_scene)
from polycontact.cli import main
from polycontact.export import scene_to_obj, scene_to_svg
from polycontact.sceneio import read_scene
from polycontact.verify import grid_extent

_PETERSEN = "".join(f"{i} {(i + 1) % 5}\n{i} {i + 5}\n{i + 5} {(i + 2) % 5 + 5}\n"
                    for i in range(5))


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
        assert verify_scene(back, eps=1e-6).passed

    def test_hypergraph_structure_survives(self):
        scene = represent_fano()
        back = scene_from_json(scene_to_json(scene))
        assert set(back.structure.blocks) == set(scene.structure.blocks)


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
        scene = represent_complete(3)
        text = scene_to_obj(scene)
        assert any(l.startswith("l ") for l in text.splitlines())

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
        assert main(["represent", "--class", "complete", "--n", "2",
                     "-o", str(tmp_path / "x.json")]) == 3

    def test_usage_error_exit_two(self, tmp_path):
        assert main(["represent", "--class", "complete",
                     "-o", str(tmp_path / "x.json")]) == 2

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
    def test_bad_epsilon_exit_two(self, eps, tmp_path, capsys):
        out = tmp_path / "fano.json"
        assert main(["represent", "--class", "fano", "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out), "--epsilon", eps]) == 2
        assert "--epsilon" in capsys.readouterr().err

    def test_verify_grid_extent_at_given_epsilon(self, tmp_path, capsys):
        out = tmp_path / "cycle-square-7.json"
        assert main(["represent", "--class", "cycle-square", "--n", "7",
                     "-o", str(out)]) == 0
        capsys.readouterr()
        main(["verify", str(out), "--epsilon", "0.3", "--json"])
        doc = json.loads(capsys.readouterr().out)
        ext = grid_extent(read_scene(str(out)), eps=0.3)
        assert doc["grid_extent"] == [ext.gx, ext.gy, ext.gz]
        assert ext != grid_extent(read_scene(str(out)))

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

    def test_zero_epsilon_accepted(self, tmp_path, capsys):
        # eps = 0 compares float coordinates literally: fano's rounded
        # corners are no longer coplanar
        out = tmp_path / "fano.json"
        assert main(["represent", "--class", "fano", "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out), "--epsilon", "0"]) == 1
        assert "[nonplanar]" in capsys.readouterr().out

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

    def test_mindeg3_input_file(self, tmp_path):
        edges = tmp_path / "petersen.edges"
        edges.write_text(_PETERSEN)
        out = tmp_path / "p.json"
        assert main(["represent", "--class", "mindeg3", "--input", str(edges),
                     "-o", str(out)]) == 0

    def test_oneplanar_embedding_file(self, tmp_path):
        doc = {
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
        emb = tmp_path / "k4x.json"
        emb.write_text(json.dumps(doc))
        out = tmp_path / "k4x.scene.json"
        assert main(["represent", "--class", "oneplanar-cubic",
                     "--input", str(emb), "-o", str(out)]) == 0

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
    # corner is; that corner carries the non-finite coordinate
    return _two_triangle_doc(
        [("0.0", "0.0", "0.0"), ("4.0", "0.0", "0.0"), ("0.0", "4.0", "0.0"),
         ("1.0", "1.0", "-1.0"), ("1.0", "1.0", "1.0"), (value, "1.0", "0.0")],
        "float")


def _float_epsilon(value):
    doc = _float_corner("2.0")
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
    ], ids=["list", "string", "no-kind", "no-points", "no-polygons",
            "no-contacts", "zero-denominator", "not-a-number", "no-denominator",
            "one-element-contact", "no-corners", "null-structure",
            "nan", "inf", "minus-inf",
            "negative-epsilon", "nan-epsilon", "string-epsilon"])
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
        path.write_text(json.dumps(_float_corner("2.0")))
        assert main(["verify", str(path)]) == 1
