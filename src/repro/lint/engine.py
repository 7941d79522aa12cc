"""The analyzer engine: run every registered rule over a program or MLDG.

Entry points:

* :func:`lint_source` -- DSL text in, :class:`LintResult` out.  Parse
  failures become an ``LF001`` diagnostic instead of an exception, and
  ``lint: disable=`` suppression comments are honored.
* :func:`lint_nest` -- an already-parsed :class:`LoopNest` (spans are
  available when the nest came from the parser).
* :func:`lint_mldg` -- an abstract dependence graph with no source program
  (gallery figures, random graphs); only graph-layer rules fire.

The :class:`LintContext` caches the shared expensive artifacts (model
findings, the dependence table, the analysis report, the legality report)
so each rule stays a simple generator; :func:`nest_context` builds one
that the compile pipeline then shares with its later passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis import rules as _analysis_rules  # noqa: F401  (populates the registry)
from repro.analysis.engine import AnalysisReport, analyze_nest
from repro.depend.extract import (
    DependenceRecord,
    dependence_table,
    mldg_from_records,
    records_by_edge,
)
from repro.graph.legality import LegalityReport, check_legal
from repro.graph.mldg import MLDG
from repro.lint import rules as _rules  # noqa: F401  (imports populate the registry)
from repro.lint.diagnostics import Diagnostic, LintResult, Severity
from repro.lint.registry import all_rules
from repro.loopir.ast_nodes import LoopNest, SourceSpan
from repro.loopir.parser import FILE_WIDE, ParseError, collect_lint_suppressions, parse_program
from repro.loopir.validate import ModelFinding, model_findings
from repro.vectors import IVec

__all__ = [
    "LintContext",
    "nest_context",
    "lint_context",
    "lint_source",
    "lint_nest",
    "lint_mldg",
    "diagnostics_from_legality",
    "diagnostics_from_model_findings",
]


@dataclass
class LintContext:
    """Everything a rule may inspect, with lazily cached shared analyses."""

    nest: Optional[LoopNest] = None
    mldg: Optional[MLDG] = None
    records: Optional[List[DependenceRecord]] = None
    path: str = "<input>"
    source: Optional[str] = None

    _model: Optional[List[ModelFinding]] = field(default=None, repr=False)
    _legal: Optional[LegalityReport] = field(default=None, repr=False)
    _edge_index: Optional[Dict[Tuple[str, str], List[DependenceRecord]]] = field(
        default=None, repr=False
    )
    _analysis: Optional[AnalysisReport] = field(default=None, repr=False)

    def analysis(self) -> Optional[AnalysisReport]:
        """The semantic analysis report (LF4xx rules, LF103 witnesses).

        ``None`` without a nest or without a dependence table -- multiple
        writers (LF101) make the table ambiguous, so the analysis layer
        stays silent rather than guessing.
        """
        if self.nest is None or self.records is None:
            return None
        if self._analysis is None:
            self._analysis = analyze_nest(
                self.nest, records=self.records, path=self.path
            )
        return self._analysis

    def model_findings(self) -> List[ModelFinding]:
        if self.nest is None:
            return []
        if self._model is None:
            self._model = model_findings(self.nest)
        return self._model

    def legal_report(self) -> Optional[LegalityReport]:
        if self.mldg is None:
            return None
        if self._legal is None:
            self._legal = check_legal(self.mldg)
        return self._legal

    def span_for_edge(
        self, src: str, dst: str, vector: Optional[IVec] = None
    ) -> Optional[SourceSpan]:
        """Source span of the read inducing the edge (or one of its vectors)."""
        if self.records is None:
            return None
        if self._edge_index is None:
            self._edge_index = records_by_edge(self.records)
        recs = self._edge_index.get((src, dst), [])
        if vector is not None:
            for rec in recs:
                if rec.vector == vector:
                    return _record_span(rec)
        return _record_span(recs[0]) if recs else None


def _record_span(rec: DependenceRecord) -> Optional[SourceSpan]:
    if rec.ref is not None and rec.ref.span is not None:
        return rec.ref.span
    return rec.consumer.span


def _sort_key(d: Diagnostic) -> Tuple:
    if d.span is None:
        return (1, 0, 0, d.code)
    return (0, d.span.line, d.span.col, d.code)


def _apply_suppressions(
    diagnostics: List[Diagnostic], suppressions: Dict[int, Set[str]]
) -> List[Diagnostic]:
    if not suppressions:
        return diagnostics
    file_wide = suppressions.get(FILE_WIDE, set())
    kept = []
    for d in diagnostics:
        codes = set(file_wide)
        if d.span is not None:
            codes |= suppressions.get(d.span.line, set())
        if d.code not in codes:
            kept.append(d)
    return kept


def _run(ctx: LintContext, suppressions: Optional[Dict[int, Set[str]]] = None) -> LintResult:
    diagnostics: List[Diagnostic] = []
    for r in all_rules():
        diagnostics.extend(r.run(ctx))
    diagnostics = _apply_suppressions(diagnostics, suppressions or {})
    diagnostics.sort(key=_sort_key)
    return LintResult(diagnostics=diagnostics, path=ctx.path)


def nest_context(
    nest: LoopNest,
    *,
    path: str = "<nest>",
    source: Optional[str] = None,
    findings: Optional[List[ModelFinding]] = None,
) -> LintContext:
    """The lint context of a nest, with its dependence table and MLDG.

    When no statement-level model violation prevents it, the nest's
    dependence table is computed and its MLDG built from it, so the
    graph-layer rules run too.  Pass ``findings`` when the nest's model
    findings are already known.  The compile pipeline keeps the context's
    products (records, MLDG, analysis, legality) so no later pass
    recomputes them.
    """
    ctx = LintContext(nest=nest, path=path, source=source, _model=findings)
    # Multiple writers make the dependence table ambiguous; graph extraction
    # is only meaningful without LF101 findings.
    if not any(f.code == "LF101" for f in ctx.model_findings()):
        ctx.records = dependence_table(nest, check=False)
        ctx.mldg = mldg_from_records(nest, ctx.records)
    return ctx


def lint_context(ctx: LintContext) -> LintResult:
    """Run every rule over ``ctx``; ``ctx.source`` enables suppression comments."""
    suppressions = collect_lint_suppressions(ctx.source) if ctx.source else None
    return _run(ctx, suppressions)


def lint_nest(
    nest: LoopNest,
    *,
    path: str = "<nest>",
    source: Optional[str] = None,
) -> LintResult:
    """Lint a parsed (or programmatically built) loop nest.

    ``source`` (when the nest came from DSL text) enables suppression
    comments.
    """
    return lint_context(nest_context(nest, path=path, source=source))


def lint_source(source: str, *, path: str = "<input>") -> LintResult:
    """Lint DSL text; parse errors become an ``LF001`` diagnostic."""
    try:
        nest = parse_program(source)
    except ParseError as exc:
        diag = Diagnostic(
            code="LF001",
            severity=Severity.ERROR,
            message=str(exc),
            span=SourceSpan(line=exc.line, col=getattr(exc, "col", 1)),
            hint="see docs/DSL.md for the grammar",
        )
        return LintResult(diagnostics=[diag], path=path)
    return lint_nest(nest, path=path, source=source)


def lint_mldg(g: MLDG, *, path: str = "<mldg>") -> LintResult:
    """Lint an abstract MLDG (graph-layer rules only)."""
    return _run(LintContext(mldg=g, path=path))


# ---------------------------------------------------------------------- #
# conversions used by the fusion pipeline to attach diagnostics to errors
# ---------------------------------------------------------------------- #

_LEGALITY_CODE = {
    "negative-cycle": "LF202",
    "negative-outer-distance": "LF102",
    "doall-self-dependence": "LF103",
    "backward-same-iteration": "LF104",
}


def diagnostics_from_legality(report: LegalityReport) -> List[Diagnostic]:
    """Structured diagnostics for a failed legality check (driver gating)."""
    return [
        Diagnostic(
            code=_LEGALITY_CODE.get(f.kind, "LF202"),
            severity=Severity.ERROR,
            message=f.message,
        )
        for f in report.findings
    ]


def diagnostics_from_model_findings(findings: List[ModelFinding]) -> List[Diagnostic]:
    """Structured diagnostics for program-model violations (pipeline gating)."""
    return [
        Diagnostic(
            code=f.code,
            severity=Severity.ERROR,
            message=f.message,
            span=f.span,
            hint=f.hint,
        )
        for f in findings
    ]
