"""Construction of the fused, retimed program.

Retiming semantics (Section 2.3 and Figures 3b/12b): node ``u``'s statement
instance executed at fused iteration ``(i, j)`` performs original iteration
``(i, j) + r(u)``.  The fused loop's core ranges over the iterations where
*every* node has an original instance:

.. math::
   i \\in [\\max_u(-r_u[0]),\\; n - \\max_u r_u[0]], \\qquad
   j \\in [\\max_u(-r_u[1]),\\; m - \\max_u r_u[1]]

with prologue/epilogue (outer dimension) and per-iteration boundary code
(inner dimension) covering the rest -- exactly the structure of Figure 12b.

Body statement order: statements of different nodes joined by a retimed
``(0, ..., 0)`` dependence must keep producer-before-consumer order inside
the fused body.  The paper leaves this implicit (its examples satisfy it in
program order); in general a topological sort of the zero-vector dependence
relation is required, and a cycle there (possible -- the paper's Figure 14)
means no fused body order exists: :class:`DeadlockError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.depend.extract import extract_mldg
from repro.graph.algorithms import CycleError, digraph, topological_sort
from repro.graph.mldg import MLDG
from repro.loopir.ast_nodes import Assignment, LoopNest
from repro.retiming import Retiming
from repro.vectors import IVec

__all__ = ["FusedNode", "FusedProgram", "DeadlockError", "apply_fusion"]


class DeadlockError(Exception):
    """No valid fused body order exists (a zero-vector dependence cycle)."""

    def __init__(self, cycle: List[str]) -> None:
        super().__init__(
            "cannot order the fused body: zero-vector dependence cycle "
            + " -> ".join(cycle)
        )
        self.cycle = cycle


@dataclass(frozen=True)
class FusedNode:
    """One original DOALL loop inside the fused body."""

    label: str
    shift: IVec  # r(label)
    statements: Tuple[Assignment, ...]  # original (unshifted) statements

    def shifted_statements(self) -> Tuple[Assignment, ...]:
        """Statements rewritten for the fused indices (Figure 12b's text)."""
        return tuple(s.shifted(self.shift) for s in self.statements)


@dataclass(frozen=True)
class FusedProgram:
    """The fused loop: body order, shifts and symbolic bound information."""

    original: LoopNest
    retiming: Retiming
    body: Tuple[FusedNode, ...]  # dependence-respecting order
    mldg: MLDG  # extracted from `original`
    retimed_mldg: MLDG

    # -------------------------------------------------------------- #
    # concrete iteration geometry
    # -------------------------------------------------------------- #

    def core_outer_range(self, n: int) -> Tuple[int, int]:
        """Inclusive fused ``i`` range where every node is in-bounds."""
        shifts = [node.shift[0] for node in self.body]
        return (max(-s for s in shifts), n - max(shifts))

    def core_inner_range(self, m: int) -> Tuple[int, int]:
        """Inclusive fused ``j`` range where every node is in-bounds."""
        shifts = [node.shift[1] for node in self.body]
        return (max(-s for s in shifts), m - max(shifts))

    def full_outer_range(self, n: int) -> Tuple[int, int]:
        """Fused ``i`` values at which *some* node has an instance."""
        shifts = [node.shift[0] for node in self.body]
        return (min(-s for s in shifts), n - min(shifts))

    def full_inner_range(self, m: int) -> Tuple[int, int]:
        shifts = [node.shift[1] for node in self.body]
        return (min(-s for s in shifts), m - min(shifts))

    def node_in_bounds(self, node: FusedNode, i: int, j: int, n: int, m: int) -> bool:
        """Does node ``node`` have an original instance at fused ``(i, j)``?"""
        oi, oj = i + node.shift[0], j + node.shift[1]
        return 0 <= oi <= n and 0 <= oj <= m

    def synchronization_count(self, n: int, *, include_boundary: bool = False) -> int:
        """Barriers between parallel phases of the DOALL-fused execution.

        One phase per fused outer iteration; the count is phases minus one.
        The default counts only the core fused loop, matching the paper's
        ``n - 2`` for Figure 8 ("the prologue ... can be considered
        negligible"); ``include_boundary=True`` also counts the prologue and
        epilogue rows as phases.
        """
        lo, hi = (
            self.full_outer_range(n) if include_boundary else self.core_outer_range(n)
        )
        return max(hi - lo, 0)


def _zero_dependence_order(g_retimed: MLDG, program_order: List[str]) -> List[str]:
    """Topologically order nodes by retimed zero-vector dependencies."""
    zero = IVec.zero(g_retimed.dim)
    order_graph = digraph(
        program_order,
        ((e.src, e.dst) for e in g_retimed.edges() if e.src != e.dst and zero in e.vectors),
    )
    try:
        return topological_sort(order_graph)
    except CycleError as exc:
        raise DeadlockError(exc.cycle) from exc


def apply_fusion(
    nest: LoopNest,
    retiming: Retiming,
    *,
    mldg: Optional[MLDG] = None,
    retimed: Optional[MLDG] = None,
) -> FusedProgram:
    """Build the fused program for a loop nest under a retiming.

    ``mldg`` may be supplied when already extracted (it must match the
    nest), and ``retimed`` when ``retiming`` was already applied to it
    (a verified :class:`~repro.fusion.driver.FusionResult` carries both).
    Raises :class:`DeadlockError` when the retimed graph admits no
    fused body order, and ``ValueError`` when the retiming leaves a
    lexicographically negative dependence (fusion would be illegal --
    Theorem 3.1).
    """
    g = mldg if mldg is not None else extract_mldg(nest)
    gr = retimed if retimed is not None else retiming.apply(g)

    zero = IVec.zero(g.dim)
    for e in gr.edges():
        if e.delta < zero:
            raise ValueError(
                f"retiming leaves {e.src}->{e.dst} at {e.delta} < 0: "
                "fusion would be illegal (run LLOFRA first)"
            )

    order = _zero_dependence_order(gr, list(nest.labels))
    body = tuple(
        FusedNode(
            label=label,
            shift=retiming[label],
            statements=nest.loop(label).statements,
        )
        for label in order
    )
    return FusedProgram(
        original=nest, retiming=retiming, body=body, mldg=g, retimed_mldg=gr
    )
