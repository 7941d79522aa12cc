"""Structural analyses on MLDGs: cycles, SCCs, topological order.

These wrap networkx on the plain edge relation of an
:class:`~repro.graph.mldg.MLDG` and add the vector-weighted cycle sum
:math:`\\delta_L(c) = \\sum_{e \\in c} \\delta_L(e)` used by Lemma 2.1.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import networkx as nx

from repro.graph.mldg import MLDG
from repro.vectors import IVec

__all__ = [
    "is_acyclic",
    "enumerate_cycles",
    "canonical_cycle",
    "cycle_weight",
    "strongly_connected_components",
    "topological_order",
    "condensation_order",
]


def is_acyclic(g: MLDG) -> bool:
    """True iff the MLDG has no directed cycle (self-loops count as cycles)."""
    return nx.is_directed_acyclic_graph(g.structure_digraph())


def enumerate_cycles(g: MLDG, limit: int | None = None) -> Iterator[List[str]]:
    """Yield simple cycles as node lists ``[v1, ..., vk]`` (edge ``vk -> v1`` implied).

    ``limit`` caps the number of cycles yielded; cycle counts can be
    exponential, so callers that only need a sample should set it.
    """
    count = 0
    for cyc in nx.simple_cycles(g.structure_digraph()):
        yield list(cyc)
        count += 1
        if limit is not None and count >= limit:
            return


def canonical_cycle(graph: nx.DiGraph, order: Sequence[str]) -> Optional[List[str]]:
    """One cycle of ``graph`` chosen independently of string hashing, or ``None``.

    ``nx.simple_cycles`` walks sets of node names, so the cycle it yields
    first changes with ``PYTHONHASHSEED``.  This one starts at the earliest
    node of ``order`` (program order) that lies on a cycle and is the
    shortest cycle through it; a breadth-first search visiting successors
    in ``order`` breaks ties.  Listed from that node, closing edge implied.
    """
    on_cycle = {v for v in graph.nodes if graph.has_edge(v, v)}
    for component in nx.strongly_connected_components(graph):
        if len(component) > 1:
            on_cycle |= component
    start = next((v for v in order if v in on_cycle), None)
    if start is None:
        return None
    rank = {v: k for k, v in enumerate(order)}
    parent: Dict[str, str] = {}
    frontier = [start]
    while frontier:
        reached = []
        for u in frontier:
            for w in sorted(graph.successors(u), key=rank.__getitem__):
                if w == start:
                    cycle = [u]
                    while cycle[-1] != start:
                        cycle.append(parent[cycle[-1]])
                    return cycle[::-1]
                if w not in parent:
                    parent[w] = u
                    reached.append(w)
        frontier = reached
    raise AssertionError(f"{start!r} lies on a cycle but none was found")


def cycle_weight(g: MLDG, cycle: Sequence[str]) -> IVec:
    """:math:`\\delta_L(c)`: the sum of minimal edge weights along the cycle.

    ``cycle`` lists the nodes in order; the closing edge from the last node
    back to the first is implied.  A single node denotes a self-loop.
    """
    if not cycle:
        raise ValueError("empty cycle")
    total = IVec.zero(g.dim)
    k = len(cycle)
    for idx in range(k):
        src = cycle[idx]
        dst = cycle[(idx + 1) % k]
        total = total + g.delta(src, dst)
    return total


def strongly_connected_components(g: MLDG) -> List[Tuple[str, ...]]:
    """SCCs in topological order of the condensation, nodes in program order."""
    dg = g.structure_digraph()
    comp_sets = list(nx.strongly_connected_components(dg))
    cond = nx.condensation(dg, scc=comp_sets)
    ordered = []
    for comp_id in nx.topological_sort(cond):
        members = sorted(cond.nodes[comp_id]["members"], key=g.program_index)
        ordered.append(tuple(members))
    return ordered


def topological_order(g: MLDG) -> List[str]:
    """A topological order of an acyclic MLDG, tie-broken by program order.

    Raises ``networkx.NetworkXUnfeasible`` on cyclic graphs.
    """
    dg = g.structure_digraph()
    return list(nx.lexicographical_topological_sort(dg, key=g.program_index))


def condensation_order(g: MLDG) -> List[Tuple[str, ...]]:
    """Alias for :func:`strongly_connected_components` (condensation DAG order)."""
    return strongly_connected_components(g)
