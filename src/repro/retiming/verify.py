"""Invariant verification for retimings.

The paper's correctness arguments rest on three checkable facts; this module
makes each one a predicate so tests, the fusion driver and the CLI can verify
every produced retiming rather than trust the algorithm:

1. **cycle-weight invariance** (Section 2.3): ``delta_Lr(c) == delta_L(c)``
   for every cycle ``c``;
2. **fusion legality** (Theorem 3.1): every retimed edge has
   ``delta_Lr(e) >= (0, ..., 0)``;
3. **DOALL-ness after fusion** (Property 4.1): the fused innermost loop is
   DOALL iff no retimed dependence vector has the form ``(0, k)``, ``k != 0``.

Fact 1 is checked exactly and edge by edge, never by enumerating cycles.
Retiming shifts every vector on ``u -> v`` by ``r(u) - r(v)``, and these
shifts telescope to zero around any cycle.  So if the retimed graph has the
same nodes and edges as the original and every edge satisfies
``D_r(u, v) == {d + r(u) - r(v) : d in D(u, v)}``, every cycle -- however
many there are -- keeps its weight.  The check is one O(|E|) pass over the
retimed graph a :class:`~repro.fusion.driver.FusionResult` carries; facts 2
and 3 are read off the same graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.graph.mldg import MLDG
from repro.retiming.retiming import Retiming
from repro.vectors import lex_nonnegative

__all__ = [
    "cycle_weights_preserved",
    "edges_all_nonnegative",
    "is_doall_after_fusion",
    "RetimingVerification",
    "verify_retiming",
]


def cycle_weights_preserved(
    g: MLDG, r: Retiming, retimed: Optional[MLDG] = None
) -> bool:
    """Exact check that ``retimed`` is ``g`` under ``r``, so every cycle
    keeps its weight ``delta_L(c)``.

    ``retimed`` defaults to ``r.apply(g)``.  The node and edge sets must be
    unchanged and each edge's vector set shifted by ``r(u) - r(v)``.
    """
    gr = retimed if retimed is not None else r.apply(g)
    if set(gr.nodes) != set(g.nodes) or gr.num_edges != g.num_edges:
        return False
    for e in g.edges():
        if not gr.has_edge(e.src, e.dst):
            return False
        shift = r[e.src] - r[e.dst]
        if gr.D(e.src, e.dst) != {d + shift for d in e.vectors}:
            return False
    return True


def edges_all_nonnegative(g: MLDG) -> bool:
    """Theorem 3.1's hypothesis on an (already retimed) graph."""
    return all(lex_nonnegative(e.delta) for e in g.edges())


def is_doall_after_fusion(g: MLDG) -> bool:
    """Property 4.1 on an (already retimed) graph.

    The fused innermost loop is DOALL iff no dependence vector ``d`` has
    ``d[0] == 0`` with some non-zero later coordinate -- equivalently, every
    vector either is outermost-loop-carried or is exactly zero.
    """
    for d in g.all_vectors():
        if d[0] == 0 and not d.is_zero():
            return False
    return True


@dataclass
class RetimingVerification:
    """Full verification outcome from :func:`verify_retiming`."""

    cycles_preserved: bool
    fusion_legal: bool
    doall: bool
    problems: List[str] = field(default_factory=list)

    @property
    def ok_for_legal_fusion(self) -> bool:
        return self.cycles_preserved and self.fusion_legal

    @property
    def ok_for_parallel_fusion(self) -> bool:
        return self.ok_for_legal_fusion and self.doall


def verify_retiming(
    g: MLDG, r: Retiming, *, retimed: Optional[MLDG] = None
) -> RetimingVerification:
    """Run all three invariant checks and collect readable diagnostics.

    ``retimed`` is the retimed graph to judge (default ``r.apply(g)``);
    the fusion driver passes the one its result carries.
    """
    gr = retimed if retimed is not None else r.apply(g)
    problems: List[str] = []

    cycles_ok = cycle_weights_preserved(g, r, gr)
    if not cycles_ok:
        problems.append("cycle weights changed under retiming")

    edges = list(gr.edges())
    legal = True
    for e in edges:
        if not lex_nonnegative(e.delta):
            legal = False
            problems.append(f"retimed edge {e.src}->{e.dst} has delta {e.delta} < 0")

    doall = True
    for e in edges:
        for d in e.vectors:
            if d[0] == 0 and not d.is_zero():
                doall = False
                problems.append(
                    f"retimed vector {d} on {e.src}->{e.dst} serialises the "
                    "fused innermost loop"
                )

    return RetimingVerification(
        cycles_preserved=cycles_ok, fusion_legal=legal, doall=doall, problems=problems
    )
