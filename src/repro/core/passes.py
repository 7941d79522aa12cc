"""The compilation pipeline as small, first-class passes.

An :class:`Artifact` is the mutable unit of work flowing through a
:class:`~repro.core.manager.PassManager`: the request (source text or an
already-built nest, the strategy, the resilience knobs) plus every product
the passes attach (nest, MLDG, fusion result, fused program, notes,
diagnostics).  Each :class:`Pass` is a named class with a ``run(artifact,
session)`` method; the manager adds the uniform span/metrics/error
envelope so the passes themselves stay one-screen small.

One analysis per compile: the front end's products -- the model
findings, the dependence records, the extracted MLDG, the analysis report
and the legality report with its LLOFRA solution -- ride on the artifact.
The first pass that needs one computes it; every later pass reads it
(docs/ARCHITECTURE.md, "One analysis per compile").

The standard sequences (:func:`strict_passes`, :func:`resilient_passes`)
reproduce the historical ``fuse_program`` / ``fuse_program_resilient``
behavior bit for bit -- the golden shim tests in
``tests/test_golden_shims.py`` hold them to that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from repro.codegen import apply_fusion
from repro.codegen.fused import DeadlockError, FusedProgram
from repro.depend.extract import DependenceRecord, dependence_table, mldg_from_records
from repro.fusion.driver import FusionResult, Strategy, fuse
from repro.fusion.errors import FusionError, require_legal
from repro.graph.legality import LegalityReport
from repro.graph.mldg import MLDG
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import lint_context, nest_context
from repro.loopir import LoopNest, parse_program
from repro.loopir.validate import ModelFinding, ValidationError, model_findings

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.analysis.engine import AnalysisReport
    from repro.analysis.prune import PruneResult
    from repro.core.session import Session
    from repro.resilience.ladder import ResilientFusionResult

__all__ = [
    "Artifact",
    "Pass",
    "ParsePass",
    "ValidatePass",
    "LintPass",
    "ExtractMLDGPass",
    "LegalityPass",
    "FusePass",
    "VerifyRetimingPass",
    "CodegenPass",
    "ResilientFusePass",
    "strict_passes",
    "resilient_passes",
]


@dataclass
class Artifact:
    """One compilation unit: the request plus everything passes attach."""

    # request ---------------------------------------------------------- #
    source: Optional[str] = None
    strategy: Union[Strategy, str] = Strategy.AUTO
    min_rung: Union[str, object] = "none"
    verify_execution: bool = True
    bounds: Optional[Sequence[int]] = None

    # products --------------------------------------------------------- #
    nest: Optional[LoopNest] = None
    mldg: Optional[MLDG] = None
    fusion: Optional[FusionResult] = None
    fused: Optional[FusedProgram] = None
    resilient: Optional["ResilientFusionResult"] = None
    partitioned: Optional[LoopNest] = None
    prune: Optional["PruneResult"] = None
    notes: List[str] = field(default_factory=list)
    diagnostics: List[Diagnostic] = field(default_factory=list)

    # shared front-end products (computed once, read by later passes) - #
    findings: Optional[List[ModelFinding]] = None
    records: Optional[List[DependenceRecord]] = None
    analysis: Optional["AnalysisReport"] = None
    #: legality of :attr:`mldg` (reset when pruning replaces the graph)
    legality: Optional[LegalityReport] = None


class Pass:
    """One stage of the pipeline.

    ``name`` identifies the pass in metrics (``core.pass.<name>.*``) and
    diagnostics; ``span_name`` is the trace span the manager opens around
    ``run`` (the historical ``pipeline.*`` names are kept so existing
    trace consumers keep working).
    """

    name: str = "?"
    span_name: str = "pipeline.?"

    def run(self, artifact: Artifact, session: "Session") -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class ParsePass(Pass):
    """DSL text -> :class:`LoopNest` (no-op when a nest was handed in)."""

    name = "parse"
    span_name = "pipeline.parse"

    def run(self, artifact: Artifact, session: "Session") -> None:
        if artifact.nest is None:
            assert artifact.source is not None, "no source and no nest"
            artifact.nest = parse_program(artifact.source)


class ValidatePass(Pass):
    """The §1 model gate: error findings raise :class:`ValidationError`."""

    name = "validate"
    span_name = "pipeline.validate"

    def run(self, artifact: Artifact, session: "Session") -> None:
        assert artifact.nest is not None
        findings = model_findings(artifact.nest)
        artifact.findings = findings
        if findings:
            raise ValidationError([f.message for f in findings], findings=findings)


class LintPass(Pass):
    """Non-blocking static diagnostics; ride along on the artifact.

    The lint context computes the dependence records, the extracted MLDG,
    the analysis report and the extracted graph's legality; the pass keeps
    them on the artifact for the passes after it.
    """

    name = "lint"
    span_name = "pipeline.lint"

    def run(self, artifact: Artifact, session: "Session") -> None:
        assert artifact.nest is not None
        ctx = nest_context(
            artifact.nest, source=artifact.source, findings=artifact.findings
        )
        result = lint_context(ctx)
        artifact.records, artifact.mldg = ctx.records, ctx.mldg
        artifact.analysis = ctx.analysis()
        artifact.legality = ctx.legal_report()
        artifact.diagnostics = result.diagnostics
        session.extend_diagnostics(result.diagnostics)


class ExtractMLDGPass(Pass):
    """Dependence extraction: program -> MLDG (kept from lint when it ran)."""

    name = "extract-mldg"
    span_name = "pipeline.extract"

    def run(self, artifact: Artifact, session: "Session") -> None:
        assert artifact.nest is not None
        if artifact.mldg is None:
            artifact.records = dependence_table(artifact.nest, check=False)
            artifact.mldg = mldg_from_records(artifact.nest, artifact.records)


class LegalityPass(Pass):
    """Theorem 3.1 structural legality; illegal graphs stop the pipeline.

    Reuses the report lint computed unless pruning replaced the graph.
    """

    name = "legality"
    span_name = "pipeline.legality"

    def run(self, artifact: Artifact, session: "Session") -> None:
        assert artifact.mldg is not None
        artifact.legality = require_legal(artifact.mldg, artifact.legality)


class FusePass(Pass):
    """Graph-level fusion: ``fuse()`` with the session's budget and the
    artifact's legality report."""

    name = "fuse"
    span_name = "pipeline.fuse"

    def run(self, artifact: Artifact, session: "Session") -> None:
        assert artifact.mldg is not None
        artifact.fusion = fuse(
            artifact.mldg,
            strategy=artifact.strategy,
            budget=session.effective_budget,
            legality=artifact.legality,
        )
        artifact.notes.extend(artifact.fusion.notes)


class VerifyRetimingPass(Pass):
    """Re-assert the verification certificate carried by the fusion result.

    ``fuse()`` never returns an unverified retiming, so this pass is a
    cheap invariant check -- but as a first-class stage it makes the
    pipeline's contract explicit and gives reordered/custom pipelines a
    place to hang stronger checks.
    """

    name = "verify-retiming"
    span_name = "pipeline.verify-retiming"

    def run(self, artifact: Artifact, session: "Session") -> None:
        assert artifact.fusion is not None
        verification = artifact.fusion.verification
        if not verification.ok_for_legal_fusion:
            raise FusionError(
                "internal error: fusion result carries a failing verification: "
                + "; ".join(verification.problems)
            )


class CodegenPass(Pass):
    """Apply the retiming to the program text (Figure-12b shape)."""

    name = "codegen"
    span_name = "pipeline.codegen"

    def run(self, artifact: Artifact, session: "Session") -> None:
        assert artifact.nest is not None and artifact.fusion is not None
        try:
            artifact.fused = apply_fusion(
                artifact.nest,
                artifact.fusion.retiming,
                mldg=artifact.fusion.original,
                retimed=artifact.fusion.retimed,
            )
        except DeadlockError as exc:
            artifact.fused = None
            artifact.notes.append(f"no fused body order exists: {exc}")


class ResilientFusePass(Pass):
    """The degradation ladder as the fuse stage (docs/RESILIENCE.md).

    The rung descent itself is selected by the session
    (:meth:`Session.ladder_descent`), making the ladder a pass-sequence
    variant rather than a hard-coded list; every rung is still gated at
    graph *and* program level before it may come to rest.
    """

    name = "resilient-fuse"
    span_name = "pipeline.fuse"

    def run(self, artifact: Artifact, session: "Session") -> None:
        from repro.resilience.ladder import fuse_resilient
        from repro.resilience.pipeline import program_gate

        assert artifact.nest is not None and artifact.mldg is not None
        gate = program_gate(artifact.nest, artifact.mldg)
        resilient = fuse_resilient(
            artifact.mldg,
            budget=session.effective_budget,
            min_rung=artifact.min_rung,
            verify_execution=artifact.verify_execution,
            bounds=artifact.bounds,
            gate=gate,
            legality=artifact.legality,
        )
        artifact.resilient = resilient
        artifact.notes.extend(resilient.notes)

        from repro.resilience.report import Rung

        fused_artifact = resilient.artifact
        artifact.fused = (
            fused_artifact if isinstance(fused_artifact, FusedProgram) else None
        )
        artifact.partitioned = (
            fused_artifact
            if resilient.rung is Rung.PARTITION and isinstance(fused_artifact, LoopNest)
            else None
        )


def strict_passes() -> Tuple[Pass, ...]:
    """The strict pipeline: any stage failure raises its typed error.

    Edge pruning sits between extraction and legality so the structural
    check -- and everything downstream -- sees the already-proven-minimal
    graph.  (Imported lazily: :mod:`repro.analysis.prune` subclasses
    :class:`Pass` from this module.)
    """
    from repro.analysis.prune import PruneMLDGPass

    return (
        ParsePass(),
        ValidatePass(),
        LintPass(),
        ExtractMLDGPass(),
        PruneMLDGPass(),
        LegalityPass(),
        FusePass(),
        VerifyRetimingPass(),
        CodegenPass(),
    )


def resilient_passes() -> Tuple[Pass, ...]:
    """The hardened pipeline: the fuse stage degrades instead of raising.

    No separate legality pass: the ladder owns legality so that a graph
    over budget caps can still degrade to the original program without
    paying (or requiring) the structural check.
    """
    from repro.analysis.prune import PruneMLDGPass

    return (
        ParsePass(),
        ValidatePass(),
        LintPass(),
        ExtractMLDGPass(),
        PruneMLDGPass(),
        ResilientFusePass(),
    )
