"""MLDG edge pruning: drop dependences the tests prove absent.

:func:`prune_mldg` takes a nest and its extracted MLDG and removes every
edge vector whose *every* inducing read carries a provably-absent
:class:`~repro.analysis.tests.DependenceEvidence` certificate.  Fewer
vectors means weaker ``delta_L`` minima, fewer hard-edges and fewer
fusion-preventing edges -- strictly more fusion and parallelism, justified
by a machine-checkable proof per removal.

:class:`PruneMLDGPass` is the pipeline stage (registered between
``extract-mldg`` and ``legality`` in the strict pipeline, and after
extraction in the resilient one).  It is deliberately conservative about
when it runs at all:

* **fault injection** -- under an active injector
  (:func:`repro.resilience.faults.active_fault`) the extracted graph may
  already be perturbed, so the certificates (computed against the *source*)
  would not describe the graph being pruned; the pass skips and counts
  ``analysis.prune.skipped``.
* **opt-out** -- ``SessionOptions.prune_edges = False`` disables the pass,
  which is how the equivalence tests compare pruned and unpruned output.

Every removal is certificate-carrying: the pass attaches the serialized
evidence to its trace span and counts ``analysis.prune.removed_vectors`` /
``analysis.prune.removed_edges``.  The pass reads the dependence records
and the analysis report the lint pass already computed; when it removes a
vector it drops the artifact's legality report, so legality is decided
again on the pruned graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro import obs
from repro.analysis.engine import AnalysisReport, analyze_nest
from repro.analysis.tests import DependenceEvidence, Verdict
from repro.core.passes import Artifact, Pass
from repro.depend.extract import DependenceRecord
from repro.graph.mldg import MLDG
from repro.loopir.ast_nodes import LoopNest
from repro.resilience.faults import active_fault
from repro.vectors import IVec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.session import Session

__all__ = ["PrunedEdge", "PruneResult", "prune_mldg", "PruneMLDGPass"]


@dataclass(frozen=True)
class PrunedEdge:
    """One pruned edge vector with its absence certificate."""

    src: str
    dst: str
    vector: IVec
    evidence: DependenceEvidence

    def to_dict(self) -> Dict[str, Any]:
        return {
            "src": self.src,
            "dst": self.dst,
            "vector": list(self.vector),
            "evidence": self.evidence.to_dict(),
        }

    def __str__(self) -> str:
        return (
            f"{self.src} -> {self.dst} {self.vector} "
            f"({self.evidence.test}: {self.evidence.reason})"
        )


@dataclass(frozen=True)
class PruneResult:
    """What one pruning run removed (empty when nothing was provable)."""

    pruned: Tuple[PrunedEdge, ...]
    removed_edges: Tuple[Tuple[str, str], ...]
    report: Optional[AnalysisReport] = None

    @property
    def removed_vector_count(self) -> int:
        return len(self.pruned)

    @property
    def removed_edge_count(self) -> int:
        return len(self.removed_edges)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "pruned": [p.to_dict() for p in self.pruned],
            "removedEdges": [list(e) for e in self.removed_edges],
        }


def prune_mldg(
    nest: LoopNest,
    g: MLDG,
    *,
    records: Optional[List[DependenceRecord]] = None,
    report: Optional[AnalysisReport] = None,
) -> Tuple[MLDG, PruneResult]:
    """A copy of ``g`` with every provably-absent vector removed.

    A vector is removed only when *all* dependence records inducing it on
    that edge certify :data:`Verdict.ABSENT`; an edge disappears when its
    last vector does.  ``g`` itself is never mutated.  Pass ``report`` to
    reuse an existing analysis instead of recomputing one.
    """
    if report is None:
        report = analyze_nest(nest, records=records)
    evidence_by_key: Dict[Tuple[str, str, IVec], DependenceEvidence] = {}
    for d in report.dependences:
        if d.verdict is Verdict.ABSENT:
            key = (d.record.src, d.record.dst, d.record.vector)
            evidence_by_key.setdefault(key, d.evidence)

    pruned: List[PrunedEdge] = []
    removed_edges: List[Tuple[str, str]] = []
    out = g.copy()
    for (src, dst), vectors in sorted(report.prunable_vectors().items()):
        on_edge = [v for v in vectors if v in out.D(src, dst)]
        if not on_edge:
            continue  # the extracted graph never materialized this edge
        out.remove_dependence(src, dst, *on_edge)
        if not out.has_edge(src, dst):
            removed_edges.append((src, dst))
        for v in on_edge:
            pruned.append(PrunedEdge(src, dst, v, evidence_by_key[(src, dst, v)]))

    return out, PruneResult(
        pruned=tuple(pruned),
        removed_edges=tuple(removed_edges),
        report=report,
    )


class PruneMLDGPass(Pass):
    """Pipeline stage: certificate-carrying MLDG edge pruning."""

    name = "prune-mldg"
    span_name = "pipeline.prune"

    def run(self, artifact: Artifact, session: "Session") -> None:
        assert artifact.nest is not None and artifact.mldg is not None
        if not getattr(session.options, "prune_edges", True):
            obs.counter("analysis.prune.skipped").inc()
            return
        if active_fault() is not None:
            # An injector may have perturbed the extracted graph; the
            # certificates describe the source, not the perturbation.
            obs.counter("analysis.prune.skipped").inc()
            artifact.notes.append(
                "edge pruning skipped: fault injection is active"
            )
            return
        pruned_graph, result = prune_mldg(
            artifact.nest,
            artifact.mldg,
            records=artifact.records,
            report=artifact.analysis,
        )
        artifact.prune = result
        artifact.analysis = result.report
        if not result.pruned:
            return
        with obs.trace_span(
            "analysis.prune.certificates",
            removed_vectors=result.removed_vector_count,
            removed_edges=result.removed_edge_count,
            certificates=[p.to_dict() for p in result.pruned],
        ):
            pass
        obs.counter("analysis.prune.removed_vectors").inc(
            result.removed_vector_count
        )
        obs.counter("analysis.prune.removed_edges").inc(result.removed_edge_count)
        artifact.mldg = pruned_graph
        artifact.legality = None  # decided again on the pruned graph
        artifact.notes.append(
            "pruned "
            f"{result.removed_vector_count} provably-absent dependence "
            f"vector(s) ({result.removed_edge_count} edge(s) removed): "
            + "; ".join(str(p) for p in result.pruned)
        )
