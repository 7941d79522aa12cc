"""The multi-dimensional loop dependence graph (MLDG) model.

An MLDG (Definition 2.2 of the paper) models a nest of the shape of Figure 1:
one outermost sequential loop whose body is a sequence of DOALL innermost
loops.  Each innermost loop is a node; each data dependence between two loops
is an edge carrying the *set* ``D_L`` of loop dependence vectors, summarised
by the lexicographically minimal vector ``delta_L``.

Public surface:

* :class:`~repro.graph.mldg.MLDG` -- the graph itself;
* :class:`~repro.graph.edges.DependenceEdge` -- one edge with its vector set;
* :mod:`~repro.graph.legality` -- legality predicates (Lemma 2.1, Thm 3.1);
* :mod:`~repro.graph.analysis` -- cycles, SCCs, topological order;
* :mod:`~repro.graph.algorithms` -- the digraph routines under them;
* :mod:`~repro.graph.builders` -- convenient construction helpers;
* :mod:`~repro.graph.random_gen` -- random legal MLDG generators;
* :mod:`~repro.graph.serialization` -- JSON and Graphviz DOT round-trips.
"""

from repro.graph.edges import DependenceEdge
from repro.graph.mldg import MLDG
from repro.graph.legality import (
    LegalityFinding,
    LegalityReport,
    VectorClass,
    check_legal,
    classify_vector,
    fusion_preventing_edges,
    fusion_preventing_vectors,
    is_fusion_legal,
    is_deadlock_free,
    is_legal,
    is_sequence_executable,
    zero_weight_cycle,
    lemma_2_1_holds,
)
from repro.graph.analysis import (
    cycle_weight,
    enumerate_cycles,
    is_acyclic,
    strongly_connected_components,
    topological_order,
)
from repro.graph.builders import mldg_from_table
from repro.graph.stats import GraphStats, mldg_stats
from repro.graph.random_gen import random_legal_mldg, random_acyclic_mldg
from repro.graph.serialization import (
    mldg_from_json,
    mldg_to_dot,
    mldg_to_json,
)

__all__ = [
    "MLDG",
    "DependenceEdge",
    "LegalityFinding",
    "LegalityReport",
    "VectorClass",
    "check_legal",
    "classify_vector",
    "is_legal",
    "is_deadlock_free",
    "zero_weight_cycle",
    "is_sequence_executable",
    "is_fusion_legal",
    "fusion_preventing_edges",
    "fusion_preventing_vectors",
    "lemma_2_1_holds",
    "enumerate_cycles",
    "cycle_weight",
    "is_acyclic",
    "strongly_connected_components",
    "topological_order",
    "mldg_from_table",
    "GraphStats",
    "mldg_stats",
    "random_legal_mldg",
    "random_acyclic_mldg",
    "mldg_to_json",
    "mldg_from_json",
    "mldg_to_dot",
]
