"""Exact zero forcing and independence machinery for small graphs.

Core objects: immutable bitmask graphs with graph6 I/O, exact solvers for the
zero forcing number and the independence number, constructive bounds relating
the two through decycling sets and path covers, vertex replacement gadgets,
isomorph-free enumeration of connected cubic graphs, and a certificate-based
batch verification harness.
"""

from .bounds import (BoundReport, DecyclingPartition, EmbeddabilityReport,
                     check_small_z_bounds, decycling_number,
                     degree_alpha_construction, embeddability_report,
                     find_partition_one_face, find_partition_two_face,
                     forcing_set_from_decycling, minimum_path_cover,
                     path_complement_mis)
from .enumeration import enumerate_connected_cubic
from .forcing import (ForcingRecord, NotForcingSetError, SolverBudgetExceeded,
                      chronological_forces, closure, enumerate_minimal_forts,
                      is_fort, is_zero_forcing_set, min_zfset_avoiding,
                      zero_forcing_number)
from .gadgets import (GadgetMap, ThreeOneTree, as_31_tree, build_tight_graph,
                      check_tight_family, cubify, generate_31_trees,
                      leaf_forcing_zfset, replace_claw_center, replace_deg1,
                      replace_deg2, tree_canonical_form)
from .graphs import (DegreeProfile, Graph, Graph6Error, GraphError, bits,
                     claw_centers, classify_degrees, complete_bipartite,
                     complete_graph, components, connected_components,
                     cycle_graph, disjoint_union, graph_from_edges,
                     induced_subgraph, is_acyclic, is_complete, is_connected,
                     mask_of, maximum_matching_bipartite, minimum_edge_cover,
                     parse_graph6, path_graph, path_order, petersen_graph,
                     prism_graph, star_graph, write_graph6)
from .harness import (BatchSummary, Certificate, RunConfig, trace_forcing,
                      verify_batch, verify_graph)
from .independence import (IndependenceCertificate, induced_edge_count,
                           is_independent, is_near_independent,
                           maximum_independent_set)

__version__ = "1.0.0"
