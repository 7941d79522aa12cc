"""Generic Bellman-Ford with negative-cycle certificates.

One implementation serves both of the paper's solvers:

* Problem ILP (Section 2.4) uses integer weights;
* Algorithm 1 ("TwoDimBellmanFord") uses lexicographically-ordered vector
  weights -- see :mod:`repro.constraints.vector_bellman_ford`.

The weight domain only needs ``+`` (weight extension) and ``<`` (total
order), which both ``int``/``float`` and
:class:`~repro.vectors.extended.ExtVec` provide.  Tentative distances start
at a caller-supplied ``top`` (plus infinity) and the source at ``zero``.

Two interchangeable algorithms (``algorithm=`` parameter):

* ``"slf"`` (default) -- a deque-based worklist with the smallest-label-
  first heuristic: only vertices whose distance actually improved are
  re-examined, and a vertex whose new label beats the queue head jumps the
  queue.  On benign graphs this does near-linear work where the classic
  formulation re-scans every edge per round.  A relaxation whose
  predecessor chain reaches length ``|V|`` proves a negative cycle is
  reachable (in a feasible graph every improving walk is simple); the
  certificate is then extracted by the round-based pass below, so the
  cycle reported is exactly the classic one.
* ``"rounds"`` -- the textbook ``|V| - 1`` edge-relaxation rounds, kept as
  the differential reference and as the certificate extractor.

Work is bounded the same way in both: when the solver stabilises the
certificate scan is skipped entirely (stabilisation already proves no
improving edge remains, which a debug-only assertion re-checks) and an
explicit relaxation cap (``max_rounds`` or a
:class:`~repro.resilience.budget.Budget`) turns pathological inputs into a
typed :class:`~repro.resilience.budget.BudgetExceededError` instead of a
full ``O(V * E)`` crawl.  For the worklist, one "round" is ``|V|`` vertex
examinations -- the same amortised work as one classic edge sweep -- so a
cap of ``k`` bounds both algorithms to ``O(k)`` sweeps' worth of work and
a cap of ``0`` refuses to solve at all.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Generic, Hashable, List, Optional, Sequence, Tuple, TypeVar

from repro import obs
from repro.resilience.budget import Budget, BudgetExceededError

__all__ = [
    "bellman_ford",
    "scalar_bellman_ford",
    "BellmanFordResult",
    "NegativeCycleError",
    "ALGORITHMS",
]

Node = TypeVar("Node", bound=Hashable)
W = TypeVar("W")  # weight type: needs + and <

#: Accepted values of the ``algorithm`` parameter.
ALGORITHMS = ("slf", "rounds")


class NegativeCycleError(Exception):
    """Raised by the constraint-system front-ends on infeasible systems.

    ``cycle`` lists the nodes of one negative-weight cycle (a certificate of
    infeasibility per Theorems 2.2/2.3).
    """

    def __init__(self, cycle: List) -> None:
        super().__init__(f"negative-weight cycle: {' -> '.join(map(str, cycle))}")
        self.cycle = cycle


@dataclass
class BellmanFordResult(Generic[Node, W]):
    """Distances and predecessors from one source, or a negative cycle.

    ``negative_cycle`` is ``None`` on success.  When set, ``dist``/``pred``
    hold the (meaningless beyond diagnosis) state at detection time.
    ``rounds`` counts the relaxation rounds actually executed -- for the
    worklist algorithm, one round is ``|V|`` vertex examinations (useful to
    confirm how little work benign graphs need).  ``pops`` counts vertex
    examinations directly: actual worklist pops for ``"slf"``, and the
    equivalent ``rounds * |V|`` for the classic sweeps, so the two
    algorithms report work in the same unit.
    """

    dist: Dict[Node, W]
    pred: Dict[Node, Optional[Node]]
    negative_cycle: Optional[List[Node]]
    rounds: int = field(default=0, compare=False)
    pops: int = field(default=0, compare=False)

    @property
    def feasible(self) -> bool:
        return self.negative_cycle is None


def _trace_cycle(
    pred: Dict[Node, Optional[Node]], start: Node, num_nodes: int
) -> List[Node]:
    """Walk predecessors ``num_nodes`` times to land inside the cycle, then
    collect it (standard certificate extraction)."""
    v: Optional[Node] = start
    for _ in range(num_nodes):
        assert v is not None
        v = pred[v]
    assert v is not None
    cycle = [v]
    u = pred[v]
    while u is not None and u != v:
        cycle.append(u)
        u = pred[u]
    cycle.reverse()
    return cycle


def _improving_edge(
    dist: Dict[Node, W], edges: Sequence[Tuple[Node, Node, W]], top: W
) -> Optional[Tuple[Node, Node]]:
    """The first edge still relaxable under ``dist``, or ``None``."""
    for (u, v, w) in edges:
        du = dist[u]
        if du == top:
            continue
        if du + w < dist[v]:
            return (u, v)
    return None


def _combined_cap(max_rounds: Optional[int], budget: Optional[Budget]) -> Optional[int]:
    caps = [
        c
        for c in (max_rounds, budget.max_relaxation_rounds if budget else None)
        if c is not None
    ]
    return min(caps) if caps else None


def _round_based(
    nodes: Sequence[Node],
    edges: Sequence[Tuple[Node, Node, W]],
    source: Node,
    *,
    zero: W,
    top: W,
    cap: Optional[int],
    budget: Optional[Budget],
    spent: int = 0,
) -> BellmanFordResult[Node, W]:
    """The classic ``|V| - 1`` full-sweep formulation (reference + certifier).

    ``spent`` rounds were already charged against ``cap`` by the caller
    (the worklist, before it hands over certificate extraction), and the
    result counts them too.
    """
    dist: Dict[Node, W] = {v: top for v in nodes}
    pred: Dict[Node, Optional[Node]] = {v: None for v in nodes}
    dist[source] = zero

    n = len(nodes)
    rounds = spent
    stabilized = False
    for _round in range(n - 1):
        if cap is not None and rounds >= cap:
            raise BudgetExceededError(
                "relaxation-rounds", cap, rounds + 1, "bellman-ford relaxation"
            )
        if budget is not None:
            budget.check_deadline("bellman-ford relaxation")
        changed = False
        for (u, v, w) in edges:
            du = dist[u]
            if du == top:
                continue
            candidate = du + w
            if candidate < dist[v]:
                dist[v] = candidate
                pred[v] = u
                changed = True
        rounds += 1
        if not changed:
            stabilized = True
            break

    if stabilized:
        # Early exit: a stabilised round proves no improving edge remains,
        # hence no negative cycle is reachable — the O(E) certificate scan
        # below is redundant.  Re-checked as a debug assertion (drop via -O).
        assert _improving_edge(dist, edges, top) is None, (
            "bellman-ford invariant violated: an improving edge survived a "
            "stabilised relaxation round (non-transitive weight ordering?)"
        )
        return BellmanFordResult(
            dist=dist, pred=pred, negative_cycle=None, rounds=rounds, pops=rounds * n
        )

    improving = _improving_edge(dist, edges, top)
    if improving is not None:
        # one more improvement possible => negative cycle reachable from source
        u, v = improving
        pred[v] = u
        cycle = _trace_cycle(pred, v, n)
        return BellmanFordResult(
            dist=dist, pred=pred, negative_cycle=cycle, rounds=rounds, pops=rounds * n
        )

    return BellmanFordResult(
        dist=dist, pred=pred, negative_cycle=None, rounds=rounds, pops=rounds * n
    )


def _slf_worklist(
    nodes: Sequence[Node],
    edges: Sequence[Tuple[Node, Node, W]],
    source: Node,
    *,
    zero: W,
    top: W,
    cap: Optional[int],
    budget: Optional[Budget],
) -> BellmanFordResult[Node, W]:
    """Deque-based SLF relaxation; certificates via the round-based pass.

    Budget accounting: one "round" is ``|V|`` vertex pops, checked at round
    boundaries exactly like the classic sweeps (a cap of 0 refuses any
    work, a cap of ``k`` allows ``k * |V|`` pops).
    """
    n = len(nodes)
    adjacency: Dict[Node, List[Tuple[Node, W]]] = {v: [] for v in nodes}
    for (u, v, w) in edges:
        adjacency[u].append((v, w))

    dist: Dict[Node, W] = {v: top for v in nodes}
    pred: Dict[Node, Optional[Node]] = {v: None for v in nodes}
    chain_len: Dict[Node, int] = {source: 0}
    dist[source] = zero

    worklist: deque = deque([source])
    queued = {source}
    pops = 0
    n_eff = max(1, n)

    while worklist:
        if pops % n_eff == 0:
            # round boundary: same cadence of budget checks as a full sweep
            round_number = pops // n_eff
            if cap is not None and round_number >= cap:
                raise BudgetExceededError(
                    "relaxation-rounds", cap, round_number + 1, "bellman-ford relaxation"
                )
            if budget is not None:
                budget.check_deadline("bellman-ford relaxation")
        u = worklist.popleft()
        queued.discard(u)
        pops += 1
        du = dist[u]
        base_len = chain_len.get(u, 0)
        for (v, w) in adjacency[u]:
            candidate = du + w
            if candidate < dist[v]:
                dist[v] = candidate
                pred[v] = u
                chain_len[v] = base_len + 1
                if chain_len[v] >= n:
                    # An improving walk of length |V| must repeat a vertex,
                    # and the repeated cycle must be negative (otherwise its
                    # removal would give an equal-or-better shorter walk) --
                    # infeasibility is certain.  Run the classic pass to
                    # extract the very certificate it has always reported,
                    # within the rounds the cap has left.
                    return _round_based(
                        nodes, edges, source,
                        zero=zero, top=top, cap=cap, budget=budget,
                        spent=-(-pops // n_eff),
                    )
                if v not in queued:
                    # smallest-label-first: promising vertices jump the queue
                    if worklist and candidate < dist[worklist[0]]:
                        worklist.appendleft(v)
                    else:
                        worklist.append(v)
                    queued.add(v)

    # Empty worklist: every edge out of every improved vertex was re-checked,
    # so no improving edge remains (debug-only re-check, drop via -O).
    assert _improving_edge(dist, edges, top) is None, (
        "slf invariant violated: an improving edge survived an empty worklist "
        "(non-transitive weight ordering?)"
    )
    rounds = -(-pops // n_eff)  # ceil: partial final batches count as a round
    return BellmanFordResult(
        dist=dist, pred=pred, negative_cycle=None, rounds=rounds, pops=pops
    )


def bellman_ford(
    nodes: Sequence[Node],
    edges: Sequence[Tuple[Node, Node, W]],
    source: Node,
    *,
    zero: W,
    top: W,
    max_rounds: Optional[int] = None,
    budget: Optional[Budget] = None,
    algorithm: str = "slf",
) -> BellmanFordResult[Node, W]:
    """Shortest paths from ``source`` under any totally-ordered weight domain.

    Parameters
    ----------
    nodes, edges:
        The graph; edges are ``(u, v, w)`` triples.
    source:
        Start node (the constraint graph's ``v_0``).
    zero:
        Additive identity of the weight domain (distance of the source).
    top:
        "Unreached" sentinel; must satisfy ``d + w < top`` for reachable
        distances (e.g. ``math.inf`` or ``ExtVec.top(dim)``).
    max_rounds:
        Hard cap on relaxation rounds (worklist: ``|V|``-pop batches).  If
        the solver has not stabilised within the cap, raises
        :class:`~repro.resilience.budget.BudgetExceededError` (partial
        distances cannot distinguish a negative cycle from slow
        convergence, so there is nothing sound to return).
    budget:
        Optional :class:`~repro.resilience.budget.Budget`; its
        ``max_relaxation_rounds`` combines with ``max_rounds`` (the
        tighter wins) and its deadline is checked once per round.
    algorithm:
        ``"slf"`` (default worklist) or ``"rounds"`` (classic sweeps).
        Identical answers: same distances, same feasibility verdicts, same
        certificate cycles (the worklist delegates certificate extraction
        to the classic pass); only the work profile differs.
    """
    if source not in set(nodes):
        raise ValueError(f"source {source!r} not among nodes")
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    cap = _combined_cap(max_rounds, budget)
    solve = _slf_worklist if algorithm == "slf" else _round_based
    reg = obs.default_registry()
    reg.counter("solver.bellman_ford.calls").inc()
    with obs.trace_span(
        "solver.bellman_ford",
        algorithm=algorithm,
        nodes=len(nodes),
        edges=len(edges),
    ) as sp:
        try:
            result = solve(nodes, edges, source, zero=zero, top=top, cap=cap, budget=budget)
        except BudgetExceededError:
            reg.counter("solver.bellman_ford.budget_exceeded").inc()
            sp.set(outcome="budget-exceeded")
            raise
        reg.counter("solver.bellman_ford.rounds").inc(result.rounds)
        reg.counter("solver.bellman_ford.pops").inc(result.pops)
        if cap is not None:
            # budget consumption: rounds actually spent under an active cap
            reg.counter("solver.budget.rounds_consumed").inc(result.rounds)
        if result.negative_cycle is not None:
            reg.counter("solver.bellman_ford.negative_cycles").inc()
        sp.set(rounds=result.rounds, pops=result.pops, feasible=result.feasible)
    return result


def scalar_bellman_ford(
    nodes: Sequence[Node],
    edges: Sequence[Tuple[Node, Node, int]],
    source: Node,
    *,
    max_rounds: Optional[int] = None,
    budget: Optional[Budget] = None,
    algorithm: str = "slf",
) -> BellmanFordResult[Node, float]:
    """Problem ILP's solver: integer weights, ``math.inf`` as unreached."""
    return bellman_ford(
        nodes,
        edges,
        source,
        zero=0,
        top=math.inf,
        max_rounds=max_rounds,
        budget=budget,
        algorithm=algorithm,
    )
