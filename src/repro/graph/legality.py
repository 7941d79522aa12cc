"""Legality predicates for MLDGs and for loop fusion.

Three related notions, carefully separated because the paper's own examples
distinguish them:

**Legal MLDG.**  Every dependence cycle has weight lexicographically
``>= (0,...,0)`` -- exactly the feasibility condition of the LLOFRA
difference-constraint system (Theorem 2.3), decided in polynomial time by
one Bellman-Ford run.  This is the notion the paper's algorithms actually
require, and the one its own examples satisfy.

**Deadlock freedom.**  The strictly stronger ``> (0,...,0)`` bound of
Theorem 4.4: a cycle of weight *exactly* zero means a chain of statement
instances that each require the other to execute first, so no schedule at
all exists.  Notably, the paper's own Figure 14 contains such a cycle
(``B -> C -> D -> E -> B`` sums to ``(0,0)``) and is nonetheless used as a
legal input to Algorithm 5 -- the paper's per-cycle reasoning (Lemma 2.1's
proof) only asks each cycle to *contain* an outermost-carried dependence
vector, which Figure 14's ``E -> B`` edge provides via its non-minimal
vector ``(1,1)``.  We therefore keep deadlock freedom out of
:func:`check_legal` (so the paper's examples all pass) and expose it as
:func:`is_deadlock_free`; code generation refuses to emit a fused body for
deadlocked graphs.  Deciding it is polynomial: a zero-weight cycle forces
every one of its edges to ``(0,...,0)`` after the LLOFRA retiming, so an
acyclicity check on the zero-weight retimed subgraph suffices.

**Sequence executability.**  The *stronger* property that the original
loop-sequence program (Figure 1) runs correctly as written: every dependence
vector has a non-negative first coordinate, and same-outer-iteration
dependencies flow strictly forward through the textual loop order.  Graphs
extracted from real programs always satisfy this; the paper's Figure 14 does
*not* (its edge ``D -> C`` carries ``(0,-2)``), yet the paper treats it as a
legal 2LDG -- evidence that "legal" means schedulable, not
sequence-executable.

**Legal fusion** (Theorem 3.1): fusing the loop bodies preserves all
dependencies iff every edge satisfies :math:`\\delta_L(e) \\ge (0,\\ldots,0)`
lexicographically (with zero-weight edges ordered topologically inside the
fused body; always possible for a legal MLDG).

Lemma 2.1 note
--------------
Lemma 2.1 states every cycle of a legal 2LDG has weight ``>= (1, -1)``.
Figure 14's cycle ``C -> D -> C`` has weight ``(0, 1) < (1, -1)``, so the
lemma as stated is narrower than the paper's own usage; the load-bearing
bound is strict positivity.  :func:`lemma_2_1_holds` checks the literal
``(1,-1)`` bound for completeness.

Sign-convention note
--------------------
The paper's Section 3.1 prose lists the per-vector cases with the second
coordinate's inequality direction inverted relative to Theorem 3.1, the
worked examples, and Figures 4/8 (which explicitly call ``(0,-2)`` and
``(0,-3)`` fusion-preventing).  We follow Theorem 3.1 and the examples: a
vector ``d`` with ``d[0] == 0`` is *fusion-preventing* exactly when its
remaining coordinates are lexicographically negative (the consumer iteration
of the fused loop would precede the producer iteration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.constraints import InfeasibleSystemError, VectorConstraintSystem
from repro.graph.analysis import canonical_cycle, cycle_weight, enumerate_cycles
from repro.graph.edges import DependenceEdge
from repro.graph.mldg import MLDG
from repro.vectors import IVec, lex_nonnegative

__all__ = [
    "VectorClass",
    "classify_vector",
    "LegalityFinding",
    "LegalityReport",
    "check_legal",
    "is_legal",
    "is_deadlock_free",
    "zero_weight_cycle",
    "is_sequence_executable",
    "is_fusion_legal",
    "fusion_preventing_edges",
    "fusion_preventing_vectors",
    "lemma_2_1_holds",
]


class VectorClass:
    """Names for the Section 3.1 case analysis of one dependence vector."""

    OUTER_CARRIED = "outer-carried"  # d[0] > 0: always fusion-safe
    FORWARD = "forward-or-independent"  # d[0] == 0, rest >= 0: fusion-safe
    FUSION_PREVENTING = "fusion-preventing"  # d[0] == 0, rest < 0
    ILLEGAL = "illegal"  # d[0] < 0: backwards in the outermost loop


def classify_vector(d: IVec) -> str:
    """Classify one loop dependence vector per Section 3.1 (see module note)."""
    if d[0] < 0:
        return VectorClass.ILLEGAL
    if d[0] > 0:
        return VectorClass.OUTER_CARRIED
    rest = tuple(d)[1:]
    if rest >= tuple([0] * len(rest)):
        return VectorClass.FORWARD
    return VectorClass.FUSION_PREVENTING


@dataclass(frozen=True)
class LegalityFinding:
    """One structured legality violation.

    ``kind`` names the violated condition; ``cycle`` carries the
    negative-cycle certificate (node names) when the violation is a cycle,
    ``edge``/``vector`` the offending edge and dependence vector when it is
    edge-local.  ``message`` is the human-readable form (identical to the
    string in :attr:`LegalityReport.violations`).
    """

    kind: str  # "negative-cycle" | "negative-outer-distance"
    #        | "doall-self-dependence" | "backward-same-iteration"
    message: str
    cycle: Optional[Tuple[str, ...]] = None
    edge: Optional[Tuple[str, str]] = None
    vector: Optional[IVec] = None

    def __str__(self) -> str:
        return self.message


@dataclass
class LegalityReport:
    """Outcome of a legality check with human-readable violations.

    ``violations`` is the legacy string form; ``findings`` carries the same
    violations as structured :class:`LegalityFinding` records, in the same
    order.  ``solution`` is the feasible LLOFRA solution that proved a legal
    graph legal (``None`` when illegal), so later consumers -- the
    zero-weight-cycle check, the fusion driver -- need not solve again.
    """

    legal: bool
    violations: List[str] = field(default_factory=list)
    findings: List[LegalityFinding] = field(default_factory=list)
    solution: Optional[Dict[str, IVec]] = field(default=None, repr=False, compare=False)

    def __bool__(self) -> bool:
        return self.legal


def _llofra_system(g: MLDG) -> VectorConstraintSystem:
    """The LLOFRA difference-constraint system ``r(v) - r(u) <= delta_L(e)``.

    One definition serves legality (Theorem 2.3), the zero-weight-cycle
    check and Algorithm 2 (:mod:`repro.fusion.legal`).
    """
    system = VectorConstraintSystem(g.nodes, dim=g.dim)
    for e in g.edges():
        system.add_leq(e.src, e.dst, e.delta)
    return system


def check_legal(g: MLDG) -> LegalityReport:
    """Legality: every dependence cycle has weight ``>= (0,...,0)``.

    Decided in polynomial time, without cycle enumeration: the condition is
    exactly the feasibility of the LLOFRA difference-constraint system
    (Theorem 2.3).  On failure the report carries the negative-cycle
    certificate.
    """
    findings: List[LegalityFinding] = []
    solution = None
    try:
        solution = _llofra_system(g).solve()
    except InfeasibleSystemError as exc:
        cyc = " -> ".join(map(str, exc.cycle))
        findings.append(
            LegalityFinding(
                kind="negative-cycle",
                message=f"dependence cycle with lexicographically negative weight: {cyc}",
                cycle=tuple(map(str, exc.cycle)),
            )
        )
    return LegalityReport(
        legal=not findings,
        violations=[f.message for f in findings],
        findings=findings,
        solution=solution,
    )


def is_legal(g: MLDG) -> bool:
    """Boolean form of :func:`check_legal`."""
    return check_legal(g).legal


def zero_weight_cycle(
    g: MLDG, *, solution: Optional[Dict[str, IVec]] = None
) -> Optional[List[str]]:
    """A zero-weight dependence cycle if one exists, else ``None``.

    Requires a legal graph (raises ``ValueError`` otherwise).  Zero-weight
    cycles are instance-level deadlocks; see the module docstring for why
    the paper's Figure 14 nonetheless contains one.  Pass the
    :attr:`LegalityReport.solution` of ``g`` to skip solving LLOFRA again.
    The cycle is :func:`~repro.graph.analysis.canonical_cycle`'s choice, so
    its text is the same in every process.
    """
    if solution is None:
        try:
            solution = _llofra_system(g).solve()
        except InfeasibleSystemError as exc:
            raise ValueError(
                f"graph is not legal (negative cycle {exc.cycle}); "
                "zero_weight_cycle is only meaningful on legal MLDGs"
            ) from exc
    # Retiming shifts every vector of an edge by the same r(u) - r(v), which
    # keeps their lexicographic order: the retimed delta is delta + r(u) - r(v).
    zero = IVec.zero(g.dim)
    zero_graph: Dict[str, List[str]] = {n: [] for n in g.nodes}
    for e in g.edges():
        if e.delta + solution.get(e.src, zero) - solution.get(e.dst, zero) == zero:
            zero_graph[e.src].append(e.dst)
    return canonical_cycle(zero_graph, g.nodes)


def is_deadlock_free(g: MLDG) -> bool:
    """Theorem 4.4's strict hypothesis: every cycle ``> (0,...,0)``."""
    return zero_weight_cycle(g) is None


def is_sequence_executable(g: MLDG) -> LegalityReport:
    """The stronger check: the Figure-1 loop sequence runs correctly as written.

    Requires, for every dependence vector ``d`` on every edge ``u -> v``:

    1. ``d[0] >= 0`` -- no dependence on a future outermost iteration;
    2. if ``d[0] == 0`` then ``u`` strictly precedes ``v`` in program order
       (self-dependencies must be outermost-loop-carried: the innermost
       loops are DOALL).
    """
    findings: List[LegalityFinding] = []
    for e in g.edges():
        for d in e.vectors:
            if d[0] < 0:
                findings.append(
                    LegalityFinding(
                        kind="negative-outer-distance",
                        message=f"{e.src}->{e.dst} vector {d}: negative outermost distance",
                        edge=e.key,
                        vector=d,
                    )
                )
            elif d[0] == 0:
                if e.src == e.dst:
                    findings.append(
                        LegalityFinding(
                            kind="doall-self-dependence",
                            message=f"{e.src}->{e.dst} vector {d}: self-dependence must be "
                            "outermost-loop-carried (DOALL body)",
                            edge=e.key,
                            vector=d,
                        )
                    )
                elif g.program_index(e.src) >= g.program_index(e.dst):
                    findings.append(
                        LegalityFinding(
                            kind="backward-same-iteration",
                            message=f"{e.src}->{e.dst} vector {d}: same-iteration dependence "
                            "flows backwards in program order",
                            edge=e.key,
                            vector=d,
                        )
                    )
    return LegalityReport(
        legal=not findings,
        violations=[f.message for f in findings],
        findings=findings,
    )


def fusion_preventing_vectors(g: MLDG) -> Iterator[Tuple[DependenceEdge, IVec]]:
    """Yield ``(edge, vector)`` pairs whose vector is fusion-preventing."""
    for e in g.edges():
        for d in e.vectors:
            if classify_vector(d) == VectorClass.FUSION_PREVENTING:
                yield e, d


def fusion_preventing_edges(g: MLDG) -> List[DependenceEdge]:
    """Edges carrying at least one fusion-preventing dependence vector."""
    out: List[DependenceEdge] = []
    seen = set()
    for e, _d in fusion_preventing_vectors(g):
        if e.key not in seen:
            seen.add(e.key)
            out.append(e)
    return out


def is_fusion_legal(g: MLDG) -> bool:
    """Theorem 3.1: direct fusion is legal iff every edge has
    :math:`\\delta_L(e) \\ge (0, \\ldots, 0)` lexicographically.

    Because :math:`\\delta_L` is the lexicographic minimum of the edge's
    vector set, this is equivalent to every individual vector being
    non-negative.
    """
    return all(lex_nonnegative(e.delta) for e in g.edges())


def lemma_2_1_holds(g: MLDG, limit: int | None = 10_000) -> bool:
    """Check Lemma 2.1's literal bound over (up to ``limit``) simple cycles.

    The lemma claims every cycle of a legal 2LDG has weight
    :math:`\\delta_L(c) \\ge (1, -1)`.  Figures 2 and 8 satisfy it; Figure 14
    does not (see the module docstring) -- only the strictly-positive bound
    actually used by the theorems holds there.
    """
    bound = tuple([1] + [-1] * (g.dim - 1))
    for cyc in enumerate_cycles(g, limit=limit):
        if tuple(cycle_weight(g, cyc)) < bound:
            return False
    return True
