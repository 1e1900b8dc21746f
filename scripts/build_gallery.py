#!/usr/bin/env python3
"""Build one scene of every construction class, verify, and export.

Writes scene JSON, OBJ and SVG files into --out (default ./gallery) and
prints a one-line summary per scene with its grid extent.  A scene whose
constructor certified it already (`scene.certificate`) is not verified
again, and the extent a grid claim's check measured is not measured
again.
"""

import argparse
import pathlib

from polycontact import (complete_bipartite, embedding_from_json,
                         graph_from_edge_list, grid_extent,
                         represent_bipartite_grid,
                         represent_bipartite_toroidal, represent_complete,
                         represent_cubic, represent_cycle_square,
                         represent_fano, represent_k33_unit_triangles,
                         represent_min_degree3, represent_oneplanar_cubic,
                         represent_s239, verify_scene, write_scene)
from polycontact.export import scene_to_obj, scene_to_svg

# two K4 gadgets (K4 with edge c-d subdivided by the slot vertex 1) joined
# by one bridge between their slots: cubic, 10 vertices
GADGET_CHAIN = """
g0a g0b
g0a g0c
g0a g0d
g0b g0c
g0b g0d
g0c g01
g0d g01
g1a g1b
g1a g1c
g1a g1d
g1b g1c
g1b g1d
g1c g11
g1d g11
g01 g11
"""

# square 1234 with its diagonals crossing inside; outer face the square
K4_CROSSED = {
    "vertices": [{"id": "1", "rotation": ["12", "13", "14"]},
                 {"id": "2", "rotation": ["23", "24", "12"]},
                 {"id": "3", "rotation": ["34", "13", "23"]},
                 {"id": "4", "rotation": ["34", "14", "24"]}],
    "edges": [{"id": u + v, "endpoints": [u, v]}
              for u, v in ("12", "13", "14", "23", "24", "34")],
    "crossings": [["13", "24"]],
    "outer_face": ["12", "23", "34", "14"],
}


def petersen_text():
    lines = []
    for i in range(5):
        lines += [f"{i} {(i + 1) % 5}", f"{i} {i + 5}",
                  f"{i + 5} {(i + 2) % 5 + 5}"]
    return "\n".join(lines)


def build_all():
    petersen = graph_from_edge_list(petersen_text())
    return {
        "complete-k6": represent_complete(6),
        "mindeg3-petersen": represent_min_degree3(petersen),
        "bipartite-toroidal-k55": represent_bipartite_toroidal(
            complete_bipartite(5, 5)),
        "bipartite-grid-k46": represent_bipartite_grid(complete_bipartite(4, 6)),
        "k33-unit-triangles": represent_k33_unit_triangles(),
        "oneplanar-k4-crossed": represent_oneplanar_cubic(
            embedding_from_json(K4_CROSSED)),
        "cubic-gadget-chain": represent_cubic(graph_from_edge_list(GADGET_CHAIN)),
        "cycle-square-8": represent_cycle_square(8),
        "cycle-square-9": represent_cycle_square(9),
        "fano": represent_fano(),
        "s239": represent_s239(),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="gallery")
    args = ap.parse_args()
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    failures = 0
    for name, scene in build_all().items():
        report = scene.certificate  # set by the certifying constructors
        if report is None:
            report = verify_scene(scene)
        ext = report.grid_extent or grid_extent(scene)
        status = "ok" if report.passed else "FAILED"
        if not report.passed:
            failures += 1
        print(f"{name:28s} {status:6s} polygons={len(scene.polygons):3d} "
              f"extent={ext.gx}x{ext.gy}x{ext.gz}")
        write_scene(out / f"{name}.scene.json", scene)
        (out / f"{name}.obj").write_text(scene_to_obj(scene))
        (out / f"{name}.svg").write_text(scene_to_svg(scene))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
