"""The analysis driver: classify every dependence, derive access regions.

:func:`analyze_nest` runs the full engine over one nest -- domain
inference and a :class:`~repro.analysis.tests.DependenceEvidence`
certificate per dependence record -- and packages the result as an
:class:`AnalysisReport` with ``to_dict`` (schema ``repro-analysis/1``) and
``render_text`` views.  The per-array access regions are computed on first
read, since only LF403 (bounded domains) and the two views use them.
Spans (``analysis.*``) and verdict counters flow through :mod:`repro.obs`.

The report is also the shared backend of the LF4xx lint rules
(:mod:`repro.analysis.rules`) and of the MLDG edge-pruning pass
(:mod:`repro.analysis.prune`): a vector is *prunable* exactly when every
record inducing it has a provably-absent certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.analysis.affine import UNKNOWN, affine_access
from repro.analysis.dataflow import ArrayRegion, access_regions
from repro.analysis.domain import IterationDomain, domain_of_nest
from repro.analysis.tests import (
    SCAN_CAP,
    DependenceEvidence,
    Verdict,
    classify,
    verify_evidence,
)
from repro.depend.extract import DependenceRecord, dependence_table
from repro.loopir.ast_nodes import LoopNest
from repro.loopir.parser import parse_program
from repro.vectors import IVec

__all__ = [
    "ANALYSIS_SCHEMA",
    "ClassifiedDependence",
    "AnalysisReport",
    "classify_record",
    "analyze_nest",
    "analyze_source",
]

#: Schema tag of the JSON document produced by :meth:`AnalysisReport.to_dict`.
ANALYSIS_SCHEMA = "repro-analysis/1"


@dataclass(frozen=True)
class ClassifiedDependence:
    """One dependence record together with its evidence certificate."""

    record: DependenceRecord
    evidence: DependenceEvidence

    @property
    def verdict(self) -> Verdict:
        return self.evidence.verdict

    def check(self, *, probe: int = 12) -> bool:
        """Re-verify the certificate by enumeration (see
        :func:`repro.analysis.tests.verify_evidence`)."""
        writer = affine_access(self.record.producer.target)
        reader = (
            affine_access(self.record.ref)
            if self.record.ref is not None
            else UNKNOWN
        )
        return verify_evidence(self.evidence, writer, reader, probe=probe)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "array": self.record.array,
            "src": self.record.src,
            "dst": self.record.dst,
            "vector": list(self.record.vector),
            "evidence": self.evidence.to_dict(),
        }


def classify_record(
    rec: DependenceRecord, domain: IterationDomain, *, cap: int = SCAN_CAP
) -> DependenceEvidence:
    """Classify one extracted dependence record over ``domain``.

    A record without its consuming ``ref`` (programmatically built tables)
    classifies against :data:`UNKNOWN` and therefore stays *may* -- never
    prunable, which is the sound default.
    """
    writer = affine_access(rec.producer.target)
    reader = affine_access(rec.ref) if rec.ref is not None else UNKNOWN
    return classify(writer, reader, domain, array=rec.array, cap=cap)


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the analysis engine derived from one nest.

    The dataflow fixpoints (:func:`~repro.analysis.dataflow.reaching_definitions`,
    :func:`~repro.analysis.dataflow.liveness`) are not part of the report:
    no rule reads them.
    """

    nest: LoopNest
    domain: IterationDomain
    dependences: Tuple[ClassifiedDependence, ...]
    path: str = "<nest>"

    @cached_property
    def regions(self) -> Dict[str, ArrayRegion]:
        """Per-array access regions, computed on first read."""
        with obs.trace_span("analysis.dataflow"):
            return access_regions(self.nest, self.domain)

    def by_verdict(self, verdict: Verdict) -> List[ClassifiedDependence]:
        return [d for d in self.dependences if d.verdict is verdict]

    def counts(self) -> Dict[str, int]:
        return {v.value: len(self.by_verdict(v)) for v in Verdict}

    def evidence_for(self, rec: DependenceRecord) -> Optional[DependenceEvidence]:
        for d in self.dependences:
            if d.record is rec:
                return d.evidence
        return None

    def prunable_vectors(self) -> Dict[Tuple[str, str], List[IVec]]:
        """Edge vectors every inducing record proves absent.

        A single ``(src, dst, vector)`` triple can be induced by several
        reads; it is prunable only when *all* of them certify
        :data:`Verdict.ABSENT`.
        """
        verdicts: Dict[Tuple[str, str, IVec], List[Verdict]] = {}
        for d in self.dependences:
            key = (d.record.src, d.record.dst, d.record.vector)
            verdicts.setdefault(key, []).append(d.verdict)
        prunable: Dict[Tuple[str, str], List[IVec]] = {}
        for (src, dst, vector), vs in verdicts.items():
            if all(v is Verdict.ABSENT for v in vs):
                prunable.setdefault((src, dst), []).append(vector)
        return prunable

    def to_dict(self) -> Dict[str, Any]:
        regions = {}
        for name, region in sorted(self.regions.items()):
            regions[name] = {
                "written": (
                    None
                    if region.written is None
                    else [iv.to_dict() for iv in region.written]
                ),
                "read": (
                    None
                    if region.read is None
                    else [iv.to_dict() for iv in region.read]
                ),
            }
        return {
            "schema": ANALYSIS_SCHEMA,
            "path": self.path,
            "domain": self.domain.to_dict(),
            "dependences": [d.to_dict() for d in self.dependences],
            "summary": self.counts(),
            "prunable": [
                {"src": src, "dst": dst, "vectors": [list(v) for v in vectors]}
                for (src, dst), vectors in sorted(self.prunable_vectors().items())
            ],
            "regions": regions,
        }

    def render_text(self) -> str:
        lines = [f"analysis of {self.path}"]
        lines.append(f"  domain: {self.domain.describe()}")
        counts = self.counts()
        lines.append(
            "  dependences: "
            + ", ".join(f"{counts[v.value]} {v.value}" for v in Verdict)
        )
        for d in self.dependences:
            ev = d.evidence
            mark = {"must": "!", "may": "?", "absent": "-"}[ev.verdict.value]
            lines.append(
                f"  {mark} {d.record.src} -> {d.record.dst} "
                f"{d.record.vector} via '{d.record.array}': "
                f"{ev.verdict.value} ({ev.test}) {ev.reason}"
            )
        prunable = self.prunable_vectors()
        if prunable:
            for (src, dst), vectors in sorted(prunable.items()):
                vecs = ", ".join(str(v) for v in vectors)
                lines.append(f"  prunable: {src} -> {dst} {{{vecs}}}")
        else:
            lines.append("  prunable: none")
        for name, region in sorted(self.regions.items()):
            dim = region.read_escapes_written()
            if dim is not None:
                lines.append(
                    f"  region: '{name}' reads escape the written hull in "
                    f"dim {dim} (boundary reads hit initial memory)"
                )
        return "\n".join(lines)


def analyze_nest(
    nest: LoopNest,
    *,
    records: Optional[List[DependenceRecord]] = None,
    path: str = "<nest>",
    cap: int = SCAN_CAP,
) -> AnalysisReport:
    """Run the full analysis engine over a nest.

    ``records`` defaults to the nest's own dependence table; nests that
    violate the single-writer model (LF101) analyze with an empty table
    rather than raising, so the linter can keep going.
    """
    with obs.trace_span("analysis.nest", path=path):
        domain = domain_of_nest(nest)
        if records is None:
            try:
                records = dependence_table(nest, check=False)
            except ValueError:
                records = []
        classified: List[ClassifiedDependence] = []
        # A verdict depends only on the array and the two references'
        # offsets, and a nest repeats those pairs: classify each pair once.
        known: Dict[Tuple[Any, ...], DependenceEvidence] = {}
        with obs.trace_span("analysis.classify", records=len(records)):
            for rec in records:
                target = rec.producer.target
                key = (
                    rec.array,
                    target.array,
                    target.offset,
                    None if rec.ref is None else rec.ref.offset,
                )
                evidence = known.get(key)
                if evidence is None:
                    evidence = known[key] = classify_record(rec, domain, cap=cap)
                obs.counter(f"analysis.verdict.{evidence.verdict.value}").inc()
                classified.append(ClassifiedDependence(rec, evidence))
        return AnalysisReport(
            nest=nest, domain=domain, dependences=tuple(classified), path=path
        )


def analyze_source(source: str, *, path: str = "<input>") -> AnalysisReport:
    """Parse DSL text and analyze it (parse errors propagate)."""
    return analyze_nest(parse_program(source), path=path)
