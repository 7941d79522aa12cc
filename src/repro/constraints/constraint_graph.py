"""Constraint-graph construction (Section 2.4).

A difference-constraint system ``x_j - x_i <= w_ij`` maps to a graph with

* one vertex per unknown plus a super-source ``v_0``;
* one edge ``v_i -> v_j`` of weight ``w_ij`` per constraint;
* zero-weight edges ``v_0 -> v_i`` for every unknown,

and feasible solutions are the shortest-path distances from ``v_0``
(Theorem 2.2 scalar / Theorem 2.3 lexicographic-vector).  This module keeps
that construction in one place so the fusion algorithms (which each build a
slightly different constraint graph: Figures 5, 9, 11a, 11b) share it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generic, Hashable, List, Sequence, Tuple, TypeVar

__all__ = ["ConstraintGraph", "SUPER_SOURCE"]

Node = TypeVar("Node", bound=Hashable)
W = TypeVar("W")

#: Name of the added super-source vertex.  The paper calls it ``v_0``; the
#: leading NUL keeps it from colliding with any user-supplied loop label.
SUPER_SOURCE = "\0v0"


@dataclass
class ConstraintGraph(Generic[Node, W]):
    """A constraint graph ready for Bellman-Ford.

    ``edges`` holds ``(u, v, w)`` triples encoding ``x_v - x_u <= w``.
    ``source_edges_added`` records whether the zero edges from ``v_0`` are in.
    """

    nodes: List = field(default_factory=list)
    edges: List[Tuple] = field(default_factory=list)
    source: Hashable = SUPER_SOURCE

    @classmethod
    def build(
        cls,
        unknowns: Sequence[Node],
        constraints: Sequence[Tuple[Node, Node, W]],
        *,
        zero: W,
    ) -> "ConstraintGraph":
        """Standard construction: unknowns + ``v_0`` + zero source edges.

        ``constraints`` are ``(i, j, w)`` triples meaning ``x_j - x_i <= w``,
        which become edges ``i -> j`` of weight ``w``.
        """
        seen = set()
        nodes: List = []
        for u in unknowns:
            if u in seen:
                raise ValueError(f"duplicate unknown {u!r}")
            seen.add(u)
            nodes.append(u)
        if SUPER_SOURCE in seen:
            raise ValueError("unknown collides with the super-source name")
        g = cls(nodes=nodes + [SUPER_SOURCE], edges=[], source=SUPER_SOURCE)
        for (i, j, w) in constraints:
            if i not in seen or j not in seen:
                raise ValueError(f"constraint references unknown node: {i!r} or {j!r}")
            g.edges.append((i, j, w))
        for u in nodes:
            g.edges.append((SUPER_SOURCE, u, zero))
        return g

    def add_edge(self, u: Node, v: Node, w: W) -> None:
        self.edges.append((u, v, w))

    def without_source(self) -> "ConstraintGraph":
        """A copy with the super-source and its edges removed (for display)."""
        return ConstraintGraph(
            nodes=[n for n in self.nodes if n != self.source],
            edges=[(u, v, w) for (u, v, w) in self.edges if u != self.source],
            source=self.source,
        )

    def describe(self) -> str:
        """Readable dump used by the CLI's ``--explain`` mode."""
        lines = ["constraint graph:"]
        for (u, v, w) in self.edges:
            uu = "v0" if u == self.source else str(u)
            vv = "v0" if v == self.source else str(v)
            lines.append(f"  {uu} -> {vv}  [{w}]")
        return "\n".join(lines)
