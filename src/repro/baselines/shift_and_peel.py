"""Shift-and-peel fusion (Manjikian & Abdelrahman style).

The *shift* part aligns loops along the innermost dimension: delaying loop
``v`` by ``s_v`` inner iterations turns a same-outer-iteration dependence
``(0, k)`` from ``u`` into ``(0, k + s_v - s_u)``, so choosing

.. math::  s_v \\ge s_u - k \\quad \\forall (0, k) : u \\to v

(longest paths over the same-iteration dependence DAG) eliminates all
fusion-preventing dependencies.  The *peel* part pays for it: the first /
last ``max_shift`` inner iterations must be peeled out of the fused loop,
and when iterations are blocked across ``P`` processors, each block
boundary peels ``max_shift`` iterations that serialise between neighbouring
processors.  The paper's Section 1 notes the technique degrades "when the
number of peeled iterations exceeds the number of iterations per
processor" -- :meth:`ShiftAndPeelOutcome.efficient_for` makes that cutoff
checkable.

Unlike multi-dimensional retiming, shifting only the inner dimension cannot
help when a dependence *cycle* confines the shifts (negative cycle in the
alignment system) -- those inputs report failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.constraints import InfeasibleSystemError, ScalarConstraintSystem
from repro.graph.algorithms import digraph, find_cycle
from repro.graph.mldg import MLDG

__all__ = ["ShiftAndPeelOutcome", "shift_and_peel"]


@dataclass(frozen=True)
class ShiftAndPeelOutcome:
    """Alignment shifts (in inner iterations) for a legal fusion, or failure."""

    legal: bool
    shifts: Dict[str, int]  # per-loop delay, >= 0, minimal
    reason: str = ""

    @property
    def peel_count(self) -> int:
        """Iterations peeled per processor-block boundary."""
        return max(self.shifts.values(), default=0) if self.legal else 0

    @property
    def syncs_per_outer_iteration(self) -> int:
        return 1 if self.legal else -1

    def efficient_for(self, m: int, processors: int) -> bool:
        """M&A's efficiency condition: peel < iterations per processor."""
        if not self.legal:
            return False
        per_proc = (m + 1) // max(processors, 1)
        return self.peel_count < per_proc

    def describe(self) -> str:
        if not self.legal:
            return f"cannot fuse: {self.reason}"
        return f"fused with peel={self.peel_count}; shifts " + ", ".join(
            f"{k}={v}" for k, v in sorted(self.shifts.items())
        )


def shift_and_peel(g: MLDG) -> ShiftAndPeelOutcome:
    """Compute minimal inner-dimension alignment shifts for the loop nest.

    The constraint system ``s_u - s_v <= k`` for every same-outer-iteration
    vector ``(0, k) : u -> v`` is solved by Bellman-Ford; shifts are then
    normalised to be non-negative and minimal.  Outermost-carried
    dependencies are unaffected by inner shifting and impose nothing.
    """
    system = ScalarConstraintSystem(g.nodes)
    same_iter: List[Tuple[str, str]] = []
    constrained = False
    for e in g.edges():
        for d in e.vectors:
            if d[0] == 0:
                if e.src == e.dst:
                    return ShiftAndPeelOutcome(
                        legal=False,
                        shifts={},
                        reason=f"same-iteration self-dependence on {e.src}",
                    )
                # need: d[1] + s_dst - s_src >= 0  <=>  s_src - s_dst <= d[1]
                system.add_leq(e.dst, e.src, d[1])
                same_iter.append((e.src, e.dst))
                constrained = True

    cyc = find_cycle(digraph(g.nodes, same_iter))
    if cyc is not None:
        return ShiftAndPeelOutcome(
            legal=False,
            shifts={},
            reason="cyclic same-iteration dependencies: " + " -> ".join(cyc),
        )

    try:
        raw = system.solve()
    except InfeasibleSystemError as exc:
        return ShiftAndPeelOutcome(
            legal=False,
            shifts={},
            reason="alignment cycle: " + " -> ".join(map(str, exc.cycle)),
        )

    if not constrained:
        return ShiftAndPeelOutcome(legal=True, shifts={n: 0 for n in g.nodes})
    base = min(raw.values())
    shifts = {node: int(raw[node] - base) for node in g.nodes}
    return ShiftAndPeelOutcome(legal=True, shifts=shifts)
