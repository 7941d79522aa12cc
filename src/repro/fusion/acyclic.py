"""Algorithm 3: legal fusion with full parallelism for acyclic 2LDGs.

Theorem 4.1: any legal *acyclic* MLDG admits a retiming after which the
fused innermost loop is DOALL.  The constraint system pushes every edge's
retimed weight to a strictly positive first coordinate:

.. math::  r(v_j)[0] - r(v_i)[0] \\le \\delta_L(e)[0] - 1

The paper's Figure 9 draws these constraints as vector weights with an
infinite second component, e.g. ``(-1, inf)`` -- the second coordinate is
genuinely unconstrained, because once every dependence vector is carried by
the outermost loop (first coordinate >= 1), no ``(0, k)`` dependence can
remain and Property 4.1 applies regardless of second coordinates.  Algorithm
3 accordingly zeroes the second component of the solution.

We solve the system exactly in that form (ExtVec weights with ``+inf``),
which on a DAG is trivially feasible: the constraint graph has no cycles at
all (Theorem 2.3).
"""

from __future__ import annotations

from typing import Optional

from repro.constraints import VectorConstraintSystem
from repro.constraints.constraint_graph import ConstraintGraph
from repro.fusion.errors import NotAcyclicError, require_legal
from repro.graph.analysis import canonical_cycle, is_acyclic
from repro.graph.mldg import MLDG
from repro.resilience.budget import Budget
from repro.retiming import Retiming
from repro.vectors import ExtVec, IVec, POS_INF

__all__ = ["acyclic_parallel_retiming", "acyclic_constraint_graph"]


def _acyclic_system(g: MLDG) -> VectorConstraintSystem:
    system = VectorConstraintSystem(g.nodes, dim=g.dim)
    for e in g.edges():
        delta = e.delta
        # first coordinate tightened by 1; the rest unconstrained (Figure 9)
        bound = ExtVec([delta[0] - 1] + [POS_INF] * (g.dim - 1))
        system.add_leq(e.src, e.dst, bound)
    return system


def acyclic_constraint_graph(g: MLDG) -> ConstraintGraph:
    """The Figure-9-shaped constraint graph, for inspection."""
    return _acyclic_system(g).constraint_graph()


def acyclic_parallel_retiming(
    g: MLDG, *, check: bool = True, budget: Optional[Budget] = None
) -> Retiming:
    """Algorithm 3: retiming giving a DOALL fused innermost loop (DAGs only).

    Raises :class:`~repro.fusion.errors.NotAcyclicError` on cyclic inputs and
    :class:`~repro.fusion.errors.IllegalMLDGError` on structurally illegal
    ones (when ``check`` is true).

    After this retiming every dependence vector has first coordinate >= 1,
    so the fused loop runs under the strict row schedule ``(1, 0)``.
    """
    if check:
        require_legal(g)
    if not is_acyclic(g):
        raise NotAcyclicError(canonical_cycle(g.structure_digraph(), g.nodes))

    solution = _acyclic_system(g).solve(budget=budget)
    # Algorithm 3's final step: zero every coordinate after the first (the
    # solver already resolves the unconstrained infinite coordinates to 0).
    fixed = {
        node: IVec([vec[0]] + [0] * (g.dim - 1)) for node, vec in solution.items()
    }
    return Retiming(fixed, dim=g.dim)
