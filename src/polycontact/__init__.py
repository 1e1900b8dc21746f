"""Contact representations of graphs and hypergraphs by touching polygons in 3D.

Constructions for every graph (a line-arrangement lift), for bipartite,
1-plane cubic, cubic, max-degree-3 and cycle-square graphs plus the two
smallest Steiner triple systems, an exact scene verifier, and
combinatorial non-realizability certificates for Steiner quadruple
systems.

`import polycontact` loads no submodule.  Each name in `_EXPORTS`, and
each submodule in `__all__`, is imported on first access (PEP 562) and
then kept in the package namespace, so `polycontact.represent_complete` is
`polycontact.arrangement.represent_complete` and compiles only the
modules that one needs.
"""

import importlib

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "arrangement": ("Arrangement", "arrangement_ok", "build_line_arrangement",
                    "represent_complete", "represent_min_degree3", "strictify"),
    "bipartite": ("complete_bipartite", "core_polygon", "represent_bipartite_grid",
                  "represent_bipartite_toroidal", "represent_k33_unit_triangles"),
    "core": ("Graph", "Hypergraph", "InputError", "OnePlaneEmbedding",
             "SteinerDescriptor", "block_label", "blocks_from_text",
             "builtin_descriptor", "builtin_system", "edge_key", "find_bridges",
             "graph_from_edge_list", "validate_steiner"),
    "cubic": ("BridgeBlockTree", "PetersenDecomposition", "bridge_block_tree",
              "petersen_decompose", "represent_2ec_cubic", "represent_cubic",
              "represent_max_degree3"),
    "cyclesq": ("cycle_square_graph", "represent_cycle_square"),
    "geom": ("GeometryError", "PairClassification",
             "Polygon3", "classify_pair", "polygon_properties"),
    "oneplanar": ("ModifiedMedialGraph", "build_modified_medial",
                  "represent_oneplanar_cubic"),
    "planar": (),
    "scene": ("ConstructionError", "Scene", "graph_scene", "hypergraph_scene"),
    "schnyder": ("DrawingError", "schnyder_draw"),
    "sceneio": ("embedding_from_json", "read_embedding", "read_scene",
                "scene_from_json", "scene_to_json", "write_scene"),
    "steiner": ("FanoParams", "ObstructionCertificate", "S239Params",
                "counting_certificate", "coplanar_polygon_pairs",
                "find_obstruction_pattern", "max_coplanar_vertices",
                "pattern_assignment_valid", "represent_fano", "represent_s239"),
    "verify": ("GridExtent", "VerificationReport", "grid_extent", "verify_scene"),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_SOURCE])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
