"""Algorithm 2: the Legal Loop Fusion Retiming Algorithm (LLOFRA).

Theorem 3.2: for any legal 2LDG there is a retiming ``r`` with every retimed
edge weight ``delta_Lr(e) >= (0, 0)``, after which loop fusion is legal
(Theorem 3.1).  The retiming solves the difference-constraint system

.. math::  r(v_j) - r(v_i) \\le \\delta_L(e) \\qquad \\forall e : v_i \\to v_j

on the Section-2.4 constraint graph (the paper's Figure 5 for the running
example) using the lexicographic Bellman-Ford of Algorithm 1.  The system is
feasible because every cycle of a legal MLDG has weight lexicographically
greater than ``(0, 0)``.

Complexity: ``O(|V| * |E|)`` vector operations -- one Bellman-Ford run.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.constraints import InfeasibleSystemError
from repro.constraints.constraint_graph import ConstraintGraph
from repro.fusion.errors import IllegalMLDGError, require_legal
from repro.graph.legality import _llofra_system
from repro.graph.mldg import MLDG
from repro.resilience.budget import Budget
from repro.retiming import Retiming
from repro.vectors import IVec

__all__ = ["legal_fusion_retiming", "llofra", "llofra_constraint_graph"]


def llofra_constraint_graph(g: MLDG) -> ConstraintGraph:
    """The LLOFRA constraint graph (Figure 5 shape), for inspection."""
    return _llofra_system(g).constraint_graph()


def legal_fusion_retiming(
    g: MLDG,
    *,
    check: bool = True,
    budget: Optional[Budget] = None,
    solution: Optional[Dict[str, IVec]] = None,
) -> Retiming:
    """Algorithm 2: a retiming making loop fusion legal.

    Parameters
    ----------
    g:
        The MLDG to retime.
    check:
        When true (default), validate structural legality first and raise
        :class:`~repro.fusion.errors.IllegalMLDGError` with diagnostics
        instead of surfacing a bare infeasible-system error.
    budget:
        Optional :class:`~repro.resilience.budget.Budget` bounding the
        Bellman-Ford solve; exhaustion raises
        :class:`~repro.resilience.budget.BudgetExceededError`.
    solution:
        A feasible solution of this same system already in hand -- the
        :attr:`~repro.graph.legality.LegalityReport.solution` that proved
        ``g`` legal.  It is the retiming (same system, same solver), so no
        solve runs; the caller decides whether its budget allows the reuse.

    Returns the retiming whose values are the shortest-path distances from
    ``v_0`` -- exactly the function the paper reports in Figure 6
    (``r(C) = (0,-2)``, ``r(D) = (0,-3)`` for the running example).
    """
    if check:
        require_legal(g)
    if solution is not None:
        return Retiming(solution, dim=g.dim)
    try:
        solution = _llofra_system(g).solve(budget=budget)
    except InfeasibleSystemError as exc:
        # unreachable for structurally legal graphs (Theorem 3.2); reachable
        # when check=False on an illegal graph
        raise IllegalMLDGError(
            [f"LLOFRA system infeasible; negative cycle {exc.cycle}"]
        ) from exc
    return Retiming(solution, dim=g.dim)


#: Paper-style alias.
llofra = legal_fusion_retiming
