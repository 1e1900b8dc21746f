"""Contact representations of graphs and hypergraphs by touching polygons in 3D.

Constructions for complete, min-degree-3, bipartite, 1-plane cubic, cubic
and cycle-square graphs plus the two smallest Steiner triple systems, an
exact (or epsilon) scene verifier, and combinatorial non-realizability
certificates for Steiner quadruple systems.
"""

from .arrangement import (Arrangement, arrangement_ok, build_line_arrangement,
                          represent_complete, represent_min_degree3, strictify)
from .bipartite import (complete_bipartite, core_polygon,
                        represent_bipartite_grid, represent_bipartite_toroidal,
                        represent_k33_unit_triangles)
from .core import (Graph, Hypergraph, InputError, OnePlaneEmbedding,
                   SteinerDescriptor, block_label, blocks_from_text,
                   builtin_descriptor, builtin_system, edge_key,
                   graph_from_edge_list, validate_steiner)
from .cubic import (BridgeBlockTree, PetersenDecomposition, bridge_block_tree,
                    find_bridges, petersen_decompose, represent_2ec_cubic,
                    represent_cubic, represent_max_degree3)
from .cyclesq import cycle_square_graph, represent_cycle_square
from .geom import (ArithmeticContext, GeometryError, PairClassification,
                   Polygon3, classify_pair, polygon_properties)
from .oneplanar import (ModifiedMedialGraph, build_modified_medial,
                        represent_oneplanar_cubic)
from .scene import ConstructionError, Scene, graph_scene, hypergraph_scene
from .schnyder import DrawingError, schnyder_draw
from .sceneio import (embedding_from_json, read_embedding, read_scene,
                      scene_from_json, scene_to_json, write_scene)
from .steiner import (FanoParams, ObstructionCertificate, S239Params,
                      counting_certificate, coplanar_polygon_pairs,
                      find_obstruction_pattern, max_coplanar_vertices,
                      pattern_assignment_valid, represent_fano, represent_s239)
from .verify import GridExtent, VerificationReport, grid_extent, verify_scene

__all__ = [name for name in dir() if not name.startswith("_")]
