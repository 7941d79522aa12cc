"""repro.graph.algorithms against networkx, the reference implementation.

The compiler relies on two exact agreements: the numpy lowering orders
its stages by networkx's keyed topological sort of the condensation, and
``DeadlockError`` prints networkx's ``find_cycle``.  The rest must agree
up to order: SCC partitions, acyclicity and the set of simple cycles.
"""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.algorithms import (
    CycleError,
    condensation_order,
    digraph,
    find_cycle,
    is_acyclic,
    simple_cycles,
    strongly_connected_components,
    topological_sort,
)


@st.composite
def graphs(draw):
    """Up to 8 nodes in a shuffled order (so node order is not name order),
    any edges including self-loops and repeats."""
    names = draw(st.permutations([f"v{k}" for k in range(draw(st.integers(0, 8)))]))
    if not names:
        return [], []
    edges = draw(
        st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=20)
    )
    return names, edges


def _both(nodes, edges):
    ref = nx.DiGraph()
    ref.add_nodes_from(nodes)
    ref.add_edges_from(edges)
    return digraph(nodes, edges), ref


def _rotate_to_min(cycle):
    k = cycle.index(min(cycle))
    return tuple(cycle[k:] + cycle[:k])


def _is_cycle(succ, cycle):
    return len(set(cycle)) == len(cycle) and all(
        v in succ[u] for u, v in zip(cycle, cycle[1:] + cycle[:1])
    )


@given(graphs())
@settings(max_examples=300, deadline=None)
def test_same_scc_partition(graph):
    succ, ref = _both(*graph)
    ours = {frozenset(c) for c in strongly_connected_components(succ)}
    assert ours == {frozenset(c) for c in nx.strongly_connected_components(ref)}


@given(graphs())
@settings(max_examples=300, deadline=None)
def test_condensation_order_is_the_keyed_sort_of_networkx(graph):
    succ, ref = _both(*graph)
    rank = {v: k for k, v in enumerate(succ)}
    cond = nx.condensation(ref)
    expected = [
        sorted(cond.nodes[c]["members"], key=rank.get)
        for c in nx.lexicographical_topological_sort(
            cond, key=lambda c: min(rank[v] for v in cond.nodes[c]["members"])
        )
    ]
    assert condensation_order(succ) == expected


@given(graphs())
@settings(max_examples=300, deadline=None)
def test_topological_sort_and_find_cycle_match_networkx(graph):
    succ, ref = _both(*graph)
    acyclic = nx.is_directed_acyclic_graph(ref)
    assert is_acyclic(succ) == acyclic
    if acyclic:
        rank = {v: k for k, v in enumerate(succ)}
        expected = list(nx.lexicographical_topological_sort(ref, key=rank.get))
        assert topological_sort(succ) == expected
        assert find_cycle(succ) is None
    else:
        expected = [u for u, _v in nx.find_cycle(ref)]
        assert find_cycle(succ) == expected
        assert _is_cycle(succ, expected)
        with pytest.raises(CycleError) as info:
            topological_sort(succ)
        assert info.value.cycle == expected


@given(graphs())
@settings(max_examples=300, deadline=None)
def test_same_simple_cycles_up_to_rotation(graph):
    succ, ref = _both(*graph)
    ours = list(simple_cycles(succ))
    rank = {v: k for k, v in enumerate(succ)}
    for cycle in ours:
        assert _is_cycle(succ, cycle)
        assert cycle[0] == min(cycle, key=rank.get)
    normalised = [_rotate_to_min(c) for c in ours]
    assert len(set(normalised)) == len(normalised)
    assert set(normalised) == {_rotate_to_min(c) for c in nx.simple_cycles(ref)}


def test_digraph_drops_repeated_edges_and_keeps_first_seen_order():
    assert digraph("abc", [("a", "c"), ("a", "b"), ("a", "c")]) == {
        "a": ["c", "b"],
        "b": [],
        "c": [],
    }


def test_ties_go_to_the_earliest_node_in_node_order():
    succ = {"z": [], "y": ["x"], "x": []}
    assert topological_sort(succ) == ["z", "y", "x"]
    assert condensation_order({"c": [], "b": ["a"], "a": ["b"]}) == [["c"], ["b", "a"]]
