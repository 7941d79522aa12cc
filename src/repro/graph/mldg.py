"""The multi-dimensional loop dependence graph.

Definition 2.2 of the paper: ``G = (V, E, delta_L, D_L)`` where nodes are
innermost DOALL loop nests, edges carry dependence-vector sets ``D_L``, and
``delta_L(e)`` is the lexicographic minimum of the set.  This class keeps the
*program order* of the nodes as well (the textual sequence of the innermost
loops inside the outer loop), because code generation and the baseline fusion
techniques need it; the paper leaves it implicit in its figures by drawing
loops A, B, C, ... in order.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.graph.edges import DependenceEdge
from repro.vectors import IVec

__all__ = ["MLDG"]


class MLDG:
    """A mutable multi-dimensional loop dependence graph.

    Parameters
    ----------
    dim:
        Dimension of all dependence vectors (2 for the paper's 2LDGs).

    Nodes are added in program order with :meth:`add_node` (or implicitly by
    :meth:`add_dependence`).  Dependence vectors accumulate per ordered node
    pair; the summary :math:`\\delta_L` and hard-edge flags are derived.

    >>> g = MLDG(dim=2)
    >>> g.add_dependence("A", "B", IVec(1, 1), IVec(2, 1))
    >>> g.delta("A", "B")
    IVec(1, 1)
    """

    def __init__(self, dim: int = 2) -> None:
        if dim < 1:
            raise ValueError("MLDG dimension must be >= 1")
        self._dim = dim
        self._nodes: List[str] = []
        self._node_index: Dict[str, int] = {}
        self._edges: Dict[Tuple[str, str], frozenset] = {}
        # the ordered edge objects, built on the first edges() call and
        # dropped by every mutation of _edges
        self._edge_view: Optional[Tuple[DependenceEdge, ...]] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def add_node(self, name: str) -> None:
        """Append a node in program order.  Re-adding an existing node is a no-op."""
        if not isinstance(name, str) or not name:
            raise ValueError(f"node name must be a non-empty string, got {name!r}")
        if name not in self._node_index:
            self._node_index[name] = len(self._nodes)
            self._nodes.append(name)

    def add_dependence(self, src: str, dst: str, *vectors: IVec) -> None:
        """Record loop dependence vectors from ``src`` to ``dst``.

        Vectors accumulate: calling twice for the same pair unions the sets.
        """
        if not vectors:
            raise ValueError("add_dependence needs at least one vector")
        for v in vectors:
            if not isinstance(v, IVec):
                raise TypeError(f"dependence vectors must be IVec, got {v!r}")
            if v.dim != self._dim:
                raise ValueError(
                    f"vector {v} has dimension {v.dim}, MLDG has dimension {self._dim}"
                )
        self.add_node(src)
        self.add_node(dst)
        key = (src, dst)
        existing = self._edges.get(key, frozenset())
        self._edges[key] = existing | frozenset(vectors)
        self._edge_view = None

    def remove_edge(self, src: str, dst: str) -> None:
        """Delete the edge and all its vectors; raises ``KeyError`` if absent."""
        del self._edges[(src, dst)]
        self._edge_view = None

    def remove_dependence(self, src: str, dst: str, *vectors: IVec) -> None:
        """Remove individual vectors from an edge (the edge-pruning API).

        The edge itself disappears when its last vector goes -- an edge
        with an empty ``D_L`` would have no lexicographic minimum.  Raises
        ``KeyError`` if the edge is absent and ``ValueError`` if a vector
        is not on it: pruning a dependence that was never recorded is a
        caller bug, not a no-op.
        """
        if not vectors:
            raise ValueError("remove_dependence needs at least one vector")
        key = (src, dst)
        existing = self._edges[key]
        missing = [v for v in vectors if v not in existing]
        if missing:
            raise ValueError(
                f"vectors {missing} are not on edge {src} -> {dst}: {sorted(existing)}"
            )
        remaining = existing - frozenset(vectors)
        if remaining:
            self._edges[key] = remaining
        else:
            del self._edges[key]
        self._edge_view = None

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def nodes(self) -> Tuple[str, ...]:
        """Node names in program order."""
        return tuple(self._nodes)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def program_index(self, node: str) -> int:
        """Position of ``node`` in the textual loop sequence."""
        return self._node_index[node]

    def has_node(self, name: str) -> bool:
        return name in self._node_index

    def has_edge(self, src: str, dst: str) -> bool:
        return (src, dst) in self._edges

    def edges(self) -> Iterator[DependenceEdge]:
        """All edges, in deterministic (program-order of endpoints) order."""
        if self._edge_view is None:
            index = self._node_index
            self._edge_view = tuple(
                DependenceEdge(src, dst, self._edges[(src, dst)])
                for (src, dst) in sorted(
                    self._edges, key=lambda k: (index[k[0]], index[k[1]])
                )
            )
        return iter(self._edge_view)

    def edge(self, src: str, dst: str) -> DependenceEdge:
        return DependenceEdge(src, dst, self._edges[(src, dst)])

    def D(self, src: str, dst: str) -> frozenset:
        """The dependence-vector set ``D_L(src, dst)`` (empty if no edge)."""
        return self._edges.get((src, dst), frozenset())

    def delta(self, src: str, dst: str) -> IVec:
        """The minimal loop dependence vector :math:`\\delta_L` of one edge."""
        # hot path for cycle-weight sums: avoid materialising an edge object
        return min(self._edges[(src, dst)])

    def is_hard_edge(self, src: str, dst: str) -> bool:
        return self.edge(src, dst).is_hard

    def all_vectors(self) -> Iterator[IVec]:
        """Every dependence vector of every edge."""
        for vecs in self._edges.values():
            yield from vecs

    def successors(self, node: str) -> List[str]:
        return [d for (s, d) in self._edges if s == node]

    def predecessors(self, node: str) -> List[str]:
        return [s for (s, d) in self._edges if d == node]

    # ------------------------------------------------------------------ #
    # transformation
    # ------------------------------------------------------------------ #

    def copy(self) -> "MLDG":
        g = MLDG(dim=self._dim)
        for n in self._nodes:
            g.add_node(n)
        g._edges = dict(self._edges)
        return g

    def retimed(self, r: Mapping[str, IVec]) -> "MLDG":
        """The graph after applying retiming ``r`` (Section 2.3).

        Every dependence vector on ``u -> v`` becomes ``d + r(u) - r(v)``.
        Nodes missing from ``r`` are treated as retimed by the zero vector.
        """
        zero = IVec.zero(self._dim)
        g = MLDG(dim=self._dim)
        for n in self._nodes:
            g.add_node(n)
        for (src, dst), vecs in self._edges.items():
            r_src = r.get(src, zero)
            r_dst = r.get(dst, zero)
            g._edges[(src, dst)] = frozenset(d + r_src - r_dst for d in vecs)
        return g

    def restricted_to(self, nodes: Iterable[str]) -> "MLDG":
        """The induced subgraph on the given nodes (program order preserved)."""
        keep = set(nodes)
        unknown = keep - set(self._nodes)
        if unknown:
            raise KeyError(f"unknown nodes: {sorted(unknown)}")
        g = MLDG(dim=self._dim)
        for n in self._nodes:
            if n in keep:
                g.add_node(n)
        for (src, dst), vecs in self._edges.items():
            if src in keep and dst in keep:
                g._edges[(src, dst)] = vecs
        return g

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #

    def structure_digraph(self) -> Dict[str, List[str]]:
        """The edge relation as an adjacency dict for
        :mod:`repro.graph.algorithms`: nodes in program order, each node's
        successors in edge order."""
        succ: Dict[str, List[str]] = {n: [] for n in self._nodes}
        for src, dst in self._edges:
            succ[src].append(dst)
        return succ

    # ------------------------------------------------------------------ #
    # equality / display
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MLDG):
            return NotImplemented
        return (
            self._dim == other._dim
            and self._nodes == other._nodes
            and self._edges == other._edges
        )

    def __hash__(self) -> int:  # pragma: no cover - MLDGs are mutable; hash by id
        return id(self)

    def __repr__(self) -> str:
        return f"MLDG(dim={self._dim}, nodes={len(self._nodes)}, edges={len(self._edges)})"

    def describe(self) -> str:
        """A multi-line human-readable dump used by the CLI and examples."""
        lines = [f"MLDG dim={self._dim}"]
        lines.append("  nodes: " + ", ".join(self._nodes))
        for e in self.edges():
            lines.append("  " + str(e))
        return "\n".join(lines)
