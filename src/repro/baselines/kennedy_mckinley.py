"""Greedy typed-fusion partitioning (Kennedy & McKinley style).

Kennedy and McKinley fuse collections of conformable loops greedily,
splitting wherever fusion would be illegal; they "do not address the case
when fusion-preventing dependencies exist" (the paper's Section 1), so such
edges force a group boundary instead of being transformed away.

Model: nodes are processed in an order compatible with the
same-outer-iteration dependence DAG (vectors with first coordinate 0 --
outermost-carried dependencies neither prevent fusion nor constrain group
order, Section 3.1 case 1).  Each node lands in the smallest-numbered group
consistent with its predecessors:

* a non-preventing (0, k>=0) edge allows producer and consumer in the same
  group (``group(v) >= group(u)``);
* a fusion-preventing (0, k<0) edge forces ``group(v) >= group(u) + 1``;
* with ``preserve_parallelism=True`` any (0, k != 0) edge also splits,
  modelling the variant that refuses to serialise a parallel loop
  (loop distribution is applied after fusion for the same effect).

This is the classic O(V+E) greedy "fusion number" computation.  Groups are
executed in index order, one barrier each: synchronizations per outermost
iteration = number of groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.graph.algorithms import CycleError, topological_sort
from repro.graph.legality import VectorClass, classify_vector
from repro.graph.mldg import MLDG

__all__ = ["TypedFusionOutcome", "typed_fusion"]


@dataclass(frozen=True)
class TypedFusionOutcome:
    """A partition of the loops into fusable groups."""

    groups: Tuple[Tuple[str, ...], ...]  # execution order
    group_parallel: Tuple[bool, ...]  # is each fused group's inner loop DOALL?

    @property
    def syncs_per_outer_iteration(self) -> int:
        return len(self.groups)

    @property
    def fully_fused(self) -> bool:
        return len(self.groups) == 1

    @property
    def all_parallel(self) -> bool:
        return all(self.group_parallel)

    def describe(self) -> str:
        parts = []
        for grp, par in zip(self.groups, self.group_parallel):
            tag = "DOALL" if par else "serial"
            parts.append("{" + ",".join(grp) + f"}}[{tag}]")
        return " ; ".join(parts)


def typed_fusion(g: MLDG, *, preserve_parallelism: bool = False) -> TypedFusionOutcome:
    """Partition the loop sequence into maximal legally-fusable groups.

    Raises ``ValueError`` when the same-outer-iteration dependence relation
    is cyclic (then no loop-sequence execution order exists at all -- such
    graphs, like the paper's Figure 14, are beyond this baseline entirely).
    """
    order_graph: Dict[str, List[str]] = {node: [] for node in g.nodes}
    splitting: Dict[Tuple[str, str], bool] = {}
    for e in g.edges():
        zero_first = [d for d in e.vectors if d[0] == 0]
        if not zero_first:
            continue
        if e.src == e.dst:
            raise ValueError(
                f"self-dependence {e.src} within one outer iteration: "
                "not a valid loop sequence"
            )
        order_graph[e.src].append(e.dst)
        split = any(
            classify_vector(d) == VectorClass.FUSION_PREVENTING for d in zero_first
        )
        if preserve_parallelism:
            split = split or any(d[1] != 0 for d in zero_first)
        splitting[(e.src, e.dst)] = split

    try:
        order = topological_sort(order_graph)
    except CycleError:
        raise ValueError(
            "same-outer-iteration dependencies are cyclic: no sequential "
            "loop order exists for this MLDG"
        ) from None

    # a node's group is final once its predecessors, all earlier in
    # ``order``, have pushed their levels onto it
    group_of = dict.fromkeys(g.nodes, 0)
    for node in order:
        for succ in order_graph[node]:
            bump = 1 if splitting[(node, succ)] else 0
            group_of[succ] = max(group_of[succ], group_of[node] + bump)

    num_groups = max(group_of.values(), default=0) + 1
    members: List[List[str]] = [[] for _ in range(num_groups)]
    for node in g.nodes:
        members[group_of[node]].append(node)

    parallel: List[bool] = []
    for grp in members:
        grp_set = set(grp)
        ok = True
        for e in g.edges():
            if e.src in grp_set and e.dst in grp_set:
                if any(d[0] == 0 and d[1] != 0 for d in e.vectors):
                    ok = False
                    break
        parallel.append(ok)

    return TypedFusionOutcome(
        groups=tuple(tuple(grp) for grp in members),
        group_parallel=tuple(parallel),
    )
