"""What `import polycontact` and each CLI call load, checked in fresh
interpreters; and that the names loaded on first use are the same objects,
and take the same wrappers, as eager imports did."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from polycontact.cli import main
from conftest import gadget_chain
from test_cli_io import _K4_CROSSED, _PETERSEN

_ROOT = Path(__file__).resolve().parents[1]
_SRC = str(_ROOT / "src")
_SPANS = str(_ROOT / "perfbench" / "spans.py")
CLI_WRAPS = sorted({attr for module, attr, _ in runpy.run_path(_SPANS)["WRAPS"]
                    if module == "polycontact.cli"})

# `polycontact.__all__` as it was when the package imported every submodule,
# less `ArithmeticContext`, removed with the float arithmetic
_ALL = [
    "Arrangement", "BridgeBlockTree", "ConstructionError",
    "DrawingError", "FanoParams", "GeometryError", "Graph", "GridExtent",
    "Hypergraph", "InputError", "ModifiedMedialGraph", "ObstructionCertificate",
    "OnePlaneEmbedding", "PairClassification", "PetersenDecomposition",
    "Polygon3", "S239Params", "Scene", "SteinerDescriptor", "VerificationReport",
    "arrangement", "arrangement_ok", "bipartite", "block_label",
    "blocks_from_text", "bridge_block_tree", "build_line_arrangement",
    "build_modified_medial", "builtin_descriptor", "builtin_system",
    "classify_pair", "complete_bipartite", "coplanar_polygon_pairs", "core",
    "core_polygon", "counting_certificate", "cubic", "cycle_square_graph",
    "cyclesq", "edge_key", "embedding_from_json", "find_bridges",
    "find_obstruction_pattern", "geom", "graph_from_edge_list", "graph_scene",
    "grid_extent", "hypergraph_scene", "max_coplanar_vertices", "oneplanar",
    "pattern_assignment_valid", "petersen_decompose", "planar",
    "polygon_properties", "read_embedding", "read_scene",
    "represent_2ec_cubic", "represent_bipartite_grid",
    "represent_bipartite_toroidal", "represent_complete", "represent_cubic",
    "represent_cycle_square", "represent_fano", "represent_k33_unit_triangles",
    "represent_max_degree3", "represent_min_degree3",
    "represent_oneplanar_cubic", "represent_s239", "scene", "scene_from_json",
    "scene_to_json", "sceneio", "schnyder", "schnyder_draw", "steiner",
    "strictify", "validate_steiner", "verify", "verify_scene", "write_scene",
]
_SUBMODULES = ["arrangement", "bipartite", "core", "cubic", "cyclesq", "geom",
               "oneplanar", "planar", "scene", "schnyder", "sceneio", "steiner",
               "verify"]

# what `import polycontact.cli` loads: the modules every scene command runs
_CLI_BASE = ["polycontact", "polycontact.cli", "polycontact.core",
             "polycontact.geom", "polycontact.scene", "polycontact.sceneio",
             "polycontact.verify"]


def _fresh(code, *args):
    """Run `code` in a new interpreter; returns the JSON of its last stdout line."""
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=dict(os.environ, PYTHONPATH=_SRC),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# imports `sys.argv[1]`, then runs `main(sys.argv[2:])` if there is more
_FOOTPRINT = """
import contextlib, importlib, io, json, sys
importlib.import_module(sys.argv[1])
rc = None
if sys.argv[2:]:
    from polycontact.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(sys.argv[2:])
print(json.dumps({"rc": rc, "networkx": "networkx" in sys.modules,
                  "dataclasses": "dataclasses" in sys.modules,
                  "loaded": sorted(m for m in sys.modules
                                   if m.split(".")[0] == "polycontact")}))
"""


class TestImportFootprint:
    def test_package_loads_no_submodule(self):
        got = _fresh(_FOOTPRINT, "polycontact")
        assert got["loaded"] == ["polycontact"]
        assert not got["networkx"]
        assert not got["dataclasses"]

    def test_find_bridges_loads_core_only(self):
        got = _fresh("import json, sys\nfrom polycontact import find_bridges\n"
                     "print(json.dumps(sorted(m for m in sys.modules"
                     " if m.split('.')[0] == 'polycontact')))")
        assert got == ["polycontact", "polycontact.core"]

    def test_cli_loads_the_verifier_only(self):
        got = _fresh(_FOOTPRINT, "polycontact.cli")
        assert got["loaded"] == _CLI_BASE
        assert not got["networkx"]
        assert not got["dataclasses"]

    @pytest.mark.parametrize("json_flag", [["--json"], []])
    def test_verify_loads_no_construction(self, tmp_path, capsys, json_flag):
        scene = tmp_path / "k5.json"
        assert main(["represent", "--class", "complete", "--n", "5",
                     "-o", str(scene)]) == 0
        got = _fresh(_FOOTPRINT, "polycontact.cli", "verify", scene, *json_flag)
        assert got["rc"] == 0
        assert got["loaded"] == _CLI_BASE
        assert not got["networkx"]
        assert not got["dataclasses"]

    def test_represent_complete_adds_arrangement_only(self, tmp_path):
        got = _fresh(_FOOTPRINT, "polycontact.cli", "represent", "--class",
                     "complete", "--n", "5", "-o", tmp_path / "k5.json")
        assert got["rc"] == 0
        assert got["loaded"] == sorted(_CLI_BASE + ["polycontact.arrangement"])
        assert not got["networkx"]
        assert not got["dataclasses"]

    @pytest.mark.parametrize("cls", ["cubic-2ec", "cubic", "maxdeg3"])
    def test_cubic_classes_load_no_networkx(self, tmp_path, cls):
        edges = {"cubic-2ec": _PETERSEN,
                 "cubic": "".join(f"{u} {v}\n" for u, v in
                                  sorted(map(sorted, gadget_chain(3).edges))),
                 "maxdeg3": "1 2\n2 3\n3 4\n4 5\n5 1\n"}[cls]
        (tmp_path / "g.txt").write_text(edges)
        got = _fresh(_FOOTPRINT, "polycontact.cli", "represent", "--class", cls,
                     "--input", tmp_path / "g.txt", "-o", tmp_path / "g.json")
        assert got["rc"] == 0
        assert "polycontact.cubic" in got["loaded"]
        assert not got["networkx"]
        assert not got["dataclasses"]


_RESOLVE = """
import importlib, json, sys, types
import polycontact
names = {}
for name in polycontact.__all__:
    obj = getattr(polycontact, name)
    if isinstance(obj, types.ModuleType):
        names[name] = obj is sys.modules["polycontact." + name]
    else:
        home = obj.__module__
        names[name] = (home.startswith("polycontact.")
                       and obj is getattr(importlib.import_module(home), name)
                       and name in vars(polycontact))
star = {}
exec("from polycontact import *", star)
try:
    polycontact.no_such_name
    missing = "resolved"
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({"names": names, "dir": sorted(set(polycontact.__all__)
                                                - set(dir(polycontact))),
                  "star": sorted(set(star) - {"__builtins__"}),
                  "missing": missing, "dataclasses": "dataclasses" in sys.modules}))
"""


class TestPublicApi:
    def test_all_is_unchanged(self):
        import polycontact
        assert polycontact.__all__ == _ALL

    def test_every_name_is_its_modules_object(self):
        got = _fresh(_RESOLVE)
        assert got["names"] == {name: True for name in _ALL}
        assert got["dir"] == []
        assert got["star"] == _ALL
        assert got["missing"] == "module 'polycontact' has no attribute 'no_such_name'"
        assert not got["dataclasses"]

    def test_submodules_resolve(self):
        import importlib

        import polycontact
        for name in _SUBMODULES:
            assert getattr(polycontact, name) is importlib.import_module(
                f"polycontact.{name}")


# wraps every `polycontact.cli` name the benchmark's tracer wraps, the way
# it does (read the attribute, set a wrapper), then runs one call per class
_TRACED = """
import contextlib, io, json, os, runpy, sys
import polycontact.cli as cli
spans, tmp = sys.argv[1], sys.argv[2]
called = set()
for module, attr, _ in runpy.run_path(spans)["WRAPS"]:
    if module == "polycontact.cli":
        def traced(*args, _fn=getattr(cli, attr), _attr=attr, **kwargs):
            called.add(_attr)
            return _fn(*args, **kwargs)
        setattr(cli, attr, traced)
scene = os.path.join(tmp, "scene.json")
runs = [["--class", "complete", "--n", "4"], ["--class", "k33"],
        ["--class", "cycle-square", "--n", "6"], ["--class", "fano"],
        ["--class", "s239"], ["--class", "bipartite-grid", "--a", "2", "--b", "3"],
        ["--class", "bipartite-toroidal", "--a", "2", "--b", "3"],
        ["--class", "oneplanar-cubic", "--input", os.path.join(tmp, "k4x.json")]]
runs += [["--class", c, "--input", os.path.join(tmp, "petersen.txt")]
         for c in ("mindeg3", "cubic-2ec", "cubic")]
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for args in runs:
        codes.append(cli.main(["represent", *args, "-o", scene]))
        codes.append(cli.main(["verify", scene, "--json"]))
print(json.dumps({"codes": codes, "called": sorted(called)}))
"""


def test_tracer_wrappers_are_what_main_calls(tmp_path):
    (tmp_path / "petersen.txt").write_text(_PETERSEN)
    (tmp_path / "k4x.json").write_text(json.dumps(_K4_CROSSED))
    got = _fresh(_TRACED, _SPANS, tmp_path)
    assert got["codes"] == [0] * len(got["codes"])
    assert got["called"] == CLI_WRAPS
