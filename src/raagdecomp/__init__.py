"""Structural decompositions of right-angled Artin groups.

A right-angled Artin group is presented by a finite simplicial graph: one
generator per vertex, one commutation relation per edge. This package
computes the structure that the graph dictates: join factorizations,
clique separators, graph-of-groups decompositions (relative and abelian),
and element-level data (normal forms, supports, cyclic forms, centralizer
descriptions), together with brute-force oracles that double-check the fast
paths on small instances.
"""

from .errors import (BudgetExceededError, DomainError, GraphParseError,
                     GraphValidationError, InvariantViolationError, RaagError)
from .graphs import (SimplicialGraph, clique_separators, connected_components,
                     graph_to_dot, hanging_vertices, induced_subgraph,
                     is_clique, is_complete, is_connected, join_factors, link,
                     minimum_clique_separator, parse_graph, serialize_graph,
                     star)
from .jsj import (CheckResult, GogEdge, GogNode, GraphOfGroups, JsjReport,
                  abelian_jsj, amalgam_split, gog_to_dot, gog_to_json_obj,
                  hnn_split, jsj_report, reduce, relative_jsj,
                  star_amalgam_split, validate)
from .kernels import backend_name
from .oracles import (OracleBudget, bfs_equal, brute_atoms,
                      brute_clique_separators, brute_primitive_root,
                      commuting_words, exhaustive_graphs)
from .words import (CentralizerDescriptor, CentralizerFactor, NormalForm, Word,
                    centralizer_descriptor, cyclically_reduce, equal,
                    normal_form, parse_word, power, primitive_root, retract,
                    support, word_text)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError", "CentralizerDescriptor", "CentralizerFactor",
    "CheckResult", "DomainError", "GogEdge", "GogNode", "GraphOfGroups",
    "GraphParseError", "GraphValidationError", "InvariantViolationError",
    "JsjReport", "NormalForm", "OracleBudget", "RaagError", "SimplicialGraph",
    "Word", "abelian_jsj", "amalgam_split", "backend_name", "bfs_equal",
    "brute_atoms", "brute_clique_separators", "brute_primitive_root",
    "centralizer_descriptor", "clique_separators", "commuting_words",
    "connected_components", "cyclically_reduce", "equal", "exhaustive_graphs",
    "gog_to_dot", "gog_to_json_obj", "graph_to_dot", "hanging_vertices",
    "hnn_split", "induced_subgraph", "is_clique", "is_complete",
    "is_connected", "join_factors", "jsj_report", "link",
    "minimum_clique_separator", "normal_form", "parse_graph", "parse_word",
    "power", "primitive_root", "reduce", "relative_jsj", "retract",
    "serialize_graph", "star", "star_amalgam_split", "support", "validate",
    "word_text",
]
