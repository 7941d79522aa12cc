"""Digraph routines over a plain adjacency dict, in node order.

A graph here is a ``dict`` from each node to the list of its successors
(:meth:`~repro.graph.mldg.MLDG.structure_digraph` builds one from an
MLDG).  The dict's order is the node order -- program order for an MLDG
-- and each list's order is the edge order.  Every routine visits nodes
and successors in those orders, so its answer depends on the graph alone,
never on string hashing.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple, TypeVar

__all__ = [
    "CycleError",
    "digraph",
    "strongly_connected_components",
    "condensation_order",
    "topological_sort",
    "find_cycle",
    "is_acyclic",
    "simple_cycles",
]

N = TypeVar("N", bound=Hashable)


class CycleError(ValueError):
    """A topological order was asked of a cyclic graph; ``cycle`` is one of
    its cycles (:func:`find_cycle`'s, closing edge implied)."""

    def __init__(self, cycle: List) -> None:
        super().__init__(f"graph has a cycle: {' -> '.join(map(str, cycle))}")
        self.cycle = cycle


def digraph(nodes: Iterable[N], edges: Iterable[Tuple[N, N]]) -> Dict[N, List[N]]:
    """The adjacency dict of ``nodes`` and ``edges``, repeated edges dropped."""
    succ: Dict[N, List[N]] = {v: [] for v in nodes}
    for u, v in edges:
        if v not in succ[u]:
            succ[u].append(v)
    return succ


def strongly_connected_components(succ: Dict[N, List[N]]) -> List[List[N]]:
    """Tarjan's SCCs, each closed component emitted as found: a successor's
    component always comes before its predecessor's."""
    index: Dict[N, int] = {}
    low: Dict[N, int] = {}
    stack: List[N] = []
    on_stack = set()
    components: List[List[N]] = []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        component.append(w)
                        if w == v:
                            break
                    components.append(component)
    return components


def condensation_order(succ: Dict[N, List[N]]) -> List[List[N]]:
    """The SCCs in topological order of the condensation, members in node
    order; among components that are ready together the one holding the
    earliest node comes first."""
    rank = {v: k for k, v in enumerate(succ)}
    components = [
        sorted(c, key=rank.__getitem__) for c in strongly_connected_components(succ)
    ]
    # number the components by their earliest node, so node order is key order
    components.sort(key=lambda c: rank[c[0]])
    comp_of = {v: k for k, c in enumerate(components) for v in c}
    dag: Dict[int, List[int]] = {k: [] for k in range(len(components))}
    for u, successors in succ.items():
        for v in successors:
            if comp_of[u] != comp_of[v]:
                dag[comp_of[u]].append(comp_of[v])
    return [components[k] for k in topological_sort(dag)]


def topological_sort(succ: Dict[N, List[N]]) -> List[N]:
    """Kahn's sort that always takes the earliest ready node in node order.

    Raises :class:`CycleError` when the graph has a cycle.
    """
    rank = {v: k for k, v in enumerate(succ)}
    nodes = list(succ)
    indegree = dict.fromkeys(succ, 0)
    for successors in succ.values():
        for v in successors:
            indegree[v] += 1
    ready = [rank[v] for v, d in indegree.items() if d == 0]
    order: List[N] = []
    while ready:
        u = nodes[heapq.heappop(ready)]
        order.append(u)
        for v in succ[u]:
            indegree[v] -= 1
            if indegree[v] == 0:
                heapq.heappush(ready, rank[v])
    if len(order) < len(nodes):
        raise CycleError(find_cycle(succ) or [])
    return order


def find_cycle(succ: Dict[N, List[N]]) -> Optional[List[N]]:
    """The first cycle a depth-first search in node order meets, or ``None``.

    Listed from the node the closing edge returns to; a self-loop is a
    one-node cycle.
    """
    done = set()
    for root in succ:
        if root in done:
            continue
        path = [root]
        on_path = {root}
        work = [iter(succ[root])]
        while work:
            for w in work[-1]:
                if w in on_path:
                    return path[path.index(w):]
                if w not in done:
                    path.append(w)
                    on_path.add(w)
                    work.append(iter(succ[w]))
                    break
            else:
                work.pop()
                v = path.pop()
                on_path.discard(v)
                done.add(v)
    return None


def is_acyclic(succ: Dict[N, List[N]]) -> bool:
    """True iff the graph has no cycle (a self-loop is one)."""
    return find_cycle(succ) is None


def simple_cycles(succ: Dict[N, List[N]]) -> Iterator[List[N]]:
    """Every simple cycle once (Johnson's algorithm), each listed from its
    earliest node in node order, closing edge implied."""
    nodes = list(succ)
    for k, start in enumerate(nodes):
        # the component of ``start`` among the nodes from ``start`` onwards
        later = set(nodes[k:])
        sub = {v: [w for w in succ[v] if w in later] for v in nodes[k:]}
        members = next(c for c in strongly_connected_components(sub) if start in c)
        if len(members) > 1 or start in succ[start]:
            yield from _circuits(start, {v: [w for w in sub[v] if w in members] for v in members})


def _circuits(start: N, succ: Dict[N, List[N]]) -> Iterator[List[N]]:
    """Johnson's CIRCUIT search: the simple cycles through ``start``."""
    path = [start]
    blocked = {start}
    blocked_by: Dict[N, Set[N]] = defaultdict(set)
    closed = [False]
    work = [iter(succ[start])]
    while work:
        v = path[-1]
        for w in work[-1]:
            if w == start:
                yield list(path)
                closed[-1] = True
            elif w not in blocked:
                path.append(w)
                blocked.add(w)
                closed.append(False)
                work.append(iter(succ[w]))
                break
        else:
            work.pop()
            path.pop()
            if not closed.pop():
                for w in succ[v]:
                    blocked_by[w].add(v)
                continue
            if closed:
                closed[-1] = True
            pending = [v]
            while pending:  # unblock v and, transitively, what waits on it
                u = pending.pop()
                if u in blocked:
                    blocked.discard(u)
                    pending.extend(blocked_by.pop(u, ()))
