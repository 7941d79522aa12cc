"""Algorithm 4: legal fusion with full parallelism for cyclic 2LDGs.

Theorem 4.2: a legal 2LDG admits a retiming after which the fused innermost
loop is DOALL **iff** neither of two constraint graphs has a negative cycle.
The retiming is computed in two phases (Section 4.3):

**Phase one (x-coordinates).**  Solve the scalar system

.. math::
   r_x(v_j) - r_x(v_i) \\le \\begin{cases}
       \\delta_L(e)[0] - 1 & e \\text{ a hard-edge} \\\\
       \\delta_L(e)[0]     & \\text{otherwise}
   \\end{cases}

(Figure 11a).  Hard-edges -- whose vector sets mix second coordinates at a
common first coordinate -- are forced to a strictly positive retimed first
coordinate, because no second-coordinate retiming could simultaneously zero
their differing vectors.

**Phase two (y-coordinates).**  For every non-hard edge whose phase-one
retimed first coordinate is exactly zero, the retimed vector must become
exactly ``(0, 0)``, so the y-coordinates satisfy the *equality*

.. math::  r_y(v_j) - r_y(v_i) = \\delta_L(e)[1],

encoded as the edge plus a negated back-edge (Figure 11b).  All other edges
are already ``>= (1, -1)`` whatever the y-coordinates do.

Either phase's negative cycle proves no DOALL retiming exists
(:class:`~repro.fusion.errors.NoParallelRetimingError`); callers then fall
back to Algorithm 5.

The construction is two-dimensional by nature (the paper's setting); the
module rejects other dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.constraints import (
    InfeasibleSystemError,
    ScalarConstraintSystem,
)
from repro.constraints.constraint_graph import ConstraintGraph
from repro.fusion.errors import NoParallelRetimingError, require_legal
from repro.graph.mldg import MLDG
from repro.resilience.budget import Budget
from repro.retiming import Retiming

__all__ = ["cyclic_parallel_retiming", "cyclic_phase_graphs", "CyclicPhaseGraphs"]


def _check_2d(g: MLDG) -> None:
    if g.dim != 2:
        raise ValueError(
            f"Algorithm 4 is defined for two-dimensional MLDGs, got dim={g.dim}"
        )


def _phase_one_system(g: MLDG) -> ScalarConstraintSystem:
    system = ScalarConstraintSystem(g.nodes)
    for e in g.edges():
        bound = e.delta[0] - (1 if e.is_hard else 0)
        system.add_leq(e.src, e.dst, bound)
    return system


def _phase_two_system(g: MLDG, r_x: Dict[str, int]) -> ScalarConstraintSystem:
    system = ScalarConstraintSystem(g.nodes)
    for e in g.edges():
        if e.is_hard:
            continue
        retimed_x = e.delta[0] + r_x[e.src] - r_x[e.dst]
        if retimed_x == 0:
            system.add_eq(e.src, e.dst, e.delta[1])
    return system


@dataclass
class CyclicPhaseGraphs:
    """Both constraint graphs of Algorithm 4, for inspection (Figure 11)."""

    x_graph: ConstraintGraph
    y_graph: ConstraintGraph


def cyclic_phase_graphs(g: MLDG) -> CyclicPhaseGraphs:
    """Build the x and y constraint graphs without solving.

    The y-graph depends on phase one's solution; when phase one is
    infeasible this raises :class:`NoParallelRetimingError`.
    """
    _check_2d(g)
    phase_one = _phase_one_system(g)
    try:
        r_x = phase_one.solve()
    except InfeasibleSystemError as exc:
        raise NoParallelRetimingError("x", exc.cycle) from exc
    return CyclicPhaseGraphs(
        x_graph=phase_one.constraint_graph(),
        y_graph=_phase_two_system(g, r_x).constraint_graph(),
    )


def cyclic_parallel_retiming(
    g: MLDG, *, check: bool = True, budget: Optional[Budget] = None
) -> Retiming:
    """Algorithm 4: a retiming giving a DOALL fused innermost loop.

    Succeeds exactly when Theorem 4.2's conditions hold; otherwise raises
    :class:`~repro.fusion.errors.NoParallelRetimingError` identifying the
    failing phase and its negative-cycle certificate.

    On the paper's running example (Figure 2) this returns
    ``r(A)=r(B)=(0,0)``, ``r(C)=(-1,0)``, ``r(D)=(-1,-1)`` (Figure 12).
    """
    _check_2d(g)
    if check:
        require_legal(g)

    try:
        r_x = _phase_one_system(g).solve(budget=budget)
    except InfeasibleSystemError as exc:
        raise NoParallelRetimingError("x", exc.cycle) from exc

    try:
        r_y = _phase_two_system(g, r_x).solve(budget=budget)
    except InfeasibleSystemError as exc:
        raise NoParallelRetimingError("y", exc.cycle) from exc

    return Retiming.from_components(r_x, r_y, dim=2)
