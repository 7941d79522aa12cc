"""The built-in analyzer rules.

Importing this module populates the registry.  Codes are grouped by layer:

========  ======================  ========================================
``LF0xx``  source                 parse failures
``LF1xx``  program model (§1)     single assignment, constant distances,
                                  DOALL innermost loops, read ordering
``LF2xx``  MLDG / fusion          fusion-preventing edges (Thm 3.1),
                                  illegal cycles (Lemma 2.1 / Thm 2.3),
                                  deadlock cycles, hard-edges (Def. 2.2)
``LF3xx``  hygiene                dead arrays, domain-escaping writes
========  ======================  ========================================

Model-layer rules delegate to :func:`repro.loopir.validate.model_findings`
so the linter and :func:`~repro.loopir.validate.validate_program` can never
disagree; graph-layer rules build on :mod:`repro.graph.legality` and
:mod:`repro.lint.doall`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from repro.analysis.tests import Verdict
from repro.graph.legality import fusion_preventing_vectors, zero_weight_cycle
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.doall import static_doall_races
from repro.lint.registry import rule

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.engine import AnalysisReport, ClassifiedDependence
    from repro.lint.engine import LintContext
    from repro.loopir.ast_nodes import SourceSpan

__all__ = ["MODEL_RULE_CODES"]

#: Model-layer codes whose findings come from ``model_findings``.
MODEL_RULE_CODES = ("LF101", "LF102", "LF103", "LF104")


# ---------------------------------------------------------------------- #
# LF0xx -- source layer
# ---------------------------------------------------------------------- #


@rule(
    "LF001",
    "parse-error",
    Severity.ERROR,
    "source",
    "the DSL source does not parse (syntax or shape error)",
)
def check_parse_error(ctx: "LintContext") -> Iterator[Diagnostic]:
    """Emitted by the engine when parsing fails; never fires on a valid tree."""
    return iter(())


# ---------------------------------------------------------------------- #
# LF1xx -- program-model layer (Section 1 / Figure 1)
# ---------------------------------------------------------------------- #


def _model_checker(code: str):
    def check(ctx: "LintContext") -> Iterator[Diagnostic]:
        for f in ctx.model_findings():
            if f.code == code:
                yield Diagnostic(
                    code=code,
                    severity=Severity.ERROR,
                    message=f.message,
                    span=f.span,
                    hint=f.hint,
                )

    return check


rule(
    "LF101",
    "multiple-assignment",
    Severity.ERROR,
    "model",
    "an array is written by more than one statement "
    "(the model is single-assignment per array)",
)(_model_checker("LF101"))

rule(
    "LF102",
    "future-iteration-read",
    Severity.ERROR,
    "model",
    "a read depends on a future outermost iteration (negative first "
    "dependence coordinate)",
)(_model_checker("LF102"))


def _race_evidence(
    report: "AnalysisReport", span: "Optional[SourceSpan]"
) -> "Optional[ClassifiedDependence]":
    """The classified inner-carried self-dependence behind an LF103 finding.

    Matched by the racing read's source span when available, falling back
    to the first inner-carried self-dependence otherwise.
    """
    racy = [
        d
        for d in report.dependences
        if d.record.src == d.record.dst
        and d.record.vector[0] == 0
        and any(c != 0 for c in d.record.vector[1:])
    ]
    if span is not None:
        for d in racy:
            if d.record.ref is not None and d.record.ref.span == span:
                return d
    return racy[0] if racy else None


@rule(
    "LF103",
    "static-doall-race",
    Severity.ERROR,
    "model",
    "a claimed-DOALL innermost loop carries an inner-iteration dependence "
    "(equal outermost coordinate, nonzero inner offset)",
)
def check_doall_race(ctx: "LintContext") -> Iterator[Diagnostic]:
    """Static complement of ``runtime_doall_violations``.

    With source available, the model analysis pinpoints the racing read and
    the dependence tests sharpen the verdict: a *must* race gains a concrete
    witness iteration pair, and a race that is provably absent within the
    declared (concrete) bounds downgrades to a warning -- the program-model
    gate still rejects the loop, but the diagnostic says why it is safe at
    these bounds.  For an abstract MLDG the self-edges are inspected
    directly.
    """
    if ctx.nest is not None:
        report = ctx.analysis()
        for f in ctx.model_findings():
            if f.code != "LF103":
                continue
            severity = Severity.ERROR
            message, hint = f.message, f.hint
            d = _race_evidence(report, f.span) if report is not None else None
            if d is not None:
                ev = d.evidence
                if ev.verdict is Verdict.MUST and ev.witness is not None:
                    producer, consumer = ev.witness
                    message += (
                        f"; must-race witness: iterations {tuple(producer)} "
                        f"and {tuple(consumer)} touch the same cell of "
                        f"'{d.record.array}'"
                    )
                elif ev.verdict is Verdict.ABSENT:
                    severity = Severity.WARNING
                    message += (
                        f"; may-race downgraded: provably absent over "
                        f"{ev.domain.describe()} ({ev.test}: {ev.reason})"
                    )
                    hint = (
                        "the program-model gate still rejects claimed-DOALL "
                        "loops with syntactic inner-carried dependences; fix "
                        "the offsets to clear LF103 entirely"
                    )
                else:
                    message += "; may-race: the dependence tests cannot decide"
            yield Diagnostic(
                code="LF103",
                severity=severity,
                message=message,
                span=f.span,
                hint=hint,
            )
        return
    if ctx.mldg is None:
        return
    for race in static_doall_races(ctx.mldg):
        yield Diagnostic(
            code="LF103",
            severity=Severity.ERROR,
            message=f"loop {race.src} is not DOALL: {race}",
            hint="make the self-dependence outermost-loop-carried "
            "(first coordinate >= 1) or split the loop",
        )


rule(
    "LF104",
    "read-before-write",
    Severity.ERROR,
    "model",
    "a value is read before the statement that produces it executes "
    "(same outermost iteration)",
)(_model_checker("LF104"))


# ---------------------------------------------------------------------- #
# LF2xx -- MLDG / fusion layer
# ---------------------------------------------------------------------- #


@rule(
    "LF201",
    "fusion-preventing-edge",
    Severity.WARNING,
    "graph",
    "an edge carries a fusion-preventing dependence vector "
    "(delta_L(e) < (0,...,0)); direct fusion is illegal (Theorem 3.1)",
)
def check_fusion_preventing(ctx: "LintContext") -> Iterator[Diagnostic]:
    g = ctx.mldg
    if g is None:
        return
    report = ctx.legal_report()
    if report is not None and report.legal:
        note = (
            "a legal retiming (Algorithm 2, LLOFRA) can repair it by "
            "shifting the consumer to a later outermost iteration"
        )
        hint = (
            "run fusion with strategy 'auto' or 'legal-only'; the retimed edge "
            "becomes non-negative"
        )
    else:
        note = "no retiming can repair it: the graph carries an illegal cycle"
        hint = "fix the illegal cycle (LF202) first"
    for e, d in fusion_preventing_vectors(g):
        yield Diagnostic(
            code="LF201",
            severity=Severity.WARNING,
            message=(
                f"edge {e.src} -> {e.dst} carries fusion-preventing vector {d}: "
                f"fusing directly would reverse this dependence; {note}"
            ),
            span=ctx.span_for_edge(e.src, e.dst, d),
            hint=hint,
        )


@rule(
    "LF202",
    "illegal-cycle",
    Severity.ERROR,
    "graph",
    "a dependence cycle has lexicographically negative weight; no legal "
    "schedule exists (Theorem 2.3)",
)
def check_illegal_cycle(ctx: "LintContext") -> Iterator[Diagnostic]:
    report = ctx.legal_report()
    if report is None or report.legal:
        return
    for f in report.findings:
        yield Diagnostic(
            code="LF202",
            severity=Severity.ERROR,
            message=f.message,
            hint="every cycle must satisfy delta_L(c) >= (0,...,0); raise an "
            "outermost-carried distance on one of the cycle's edges",
        )


@rule(
    "LF203",
    "zero-weight-cycle",
    Severity.WARNING,
    "graph",
    "a dependence cycle has weight exactly (0,...,0): an instance-level "
    "deadlock -- the fused body admits no statement order (cf. Lemma 2.1's "
    "bound delta_L(c) >= (1,-1))",
)
def check_zero_weight_cycle(ctx: "LintContext") -> Iterator[Diagnostic]:
    g = ctx.mldg
    if g is None:
        return
    report = ctx.legal_report()
    if report is None or not report.legal:
        return  # only meaningful on legal graphs (LF202 already fired)
    cyc = zero_weight_cycle(g, solution=report.solution)
    if cyc is not None:
        chain = " -> ".join(cyc + [cyc[0]])
        yield Diagnostic(
            code="LF203",
            severity=Severity.WARNING,
            message=(
                f"zero-weight dependence cycle {chain}: a chain of statement "
                "instances each requiring the others to run first; code "
                "generation for a fused body will fail (DeadlockError), only "
                "wavefront execution over the retimed space remains"
            ),
            hint="give one edge of the cycle a strictly positive distance, "
            "or accept hyperplane (wavefront) execution",
        )


@rule(
    "LF204",
    "hard-edge",
    Severity.INFO,
    "graph",
    "a parallelism hard-edge (Definition 2.2): two dependence vectors agree "
    "on the first coordinate but differ later, so retiming must move the "
    "endpoints to different outermost iterations to recover DOALL",
)
def check_hard_edges(ctx: "LintContext") -> Iterator[Diagnostic]:
    g = ctx.mldg
    if g is None:
        return
    for e in g.edges():
        if e.is_hard:
            vecs = ", ".join(str(v) for v in sorted(e.vectors))
            yield Diagnostic(
                code="LF204",
                severity=Severity.INFO,
                message=(
                    f"hard-edge {e.src} -> {e.dst} {{{vecs}}}: vectors share "
                    "a first coordinate but differ later; any DOALL fusion "
                    "must retime across this edge (Definition 2.2)"
                ),
                span=ctx.span_for_edge(e.src, e.dst),
            )


# ---------------------------------------------------------------------- #
# LF3xx -- hygiene layer
# ---------------------------------------------------------------------- #


@rule(
    "LF301",
    "dead-array",
    Severity.INFO,
    "hygiene",
    "an array is written but never read; a dead store unless it is a "
    "program output",
)
def check_dead_arrays(ctx: "LintContext") -> Iterator[Diagnostic]:
    nest = ctx.nest
    if nest is None:
        return
    read = {r.array for lp in nest.loops for s in lp.statements for r in s.reads()}
    for lp in nest.loops:
        for stmt in lp.statements:
            arr = stmt.target.array
            if arr not in read:
                yield Diagnostic(
                    code="LF301",
                    severity=Severity.INFO,
                    message=(
                        f"array '{arr}' (written in loop {lp.label}) is never "
                        "read; dead store unless it is a program output"
                    ),
                    span=stmt.target.span or stmt.span,
                    hint=f"delete the statement if '{arr}' is not consumed "
                    "outside the nest",
                )


@rule(
    "LF302",
    "domain-escaping-write",
    Severity.WARNING,
    "hygiene",
    "a statement writes at a nonzero subscript offset, so boundary "
    "iterations store outside the [0,n] x [0,m] iteration domain",
)
def check_domain_escaping_writes(ctx: "LintContext") -> Iterator[Diagnostic]:
    nest = ctx.nest
    if nest is None:
        return
    for lp in nest.loops:
        for stmt in lp.statements:
            off = stmt.target.offset
            if not off.is_zero():
                yield Diagnostic(
                    code="LF302",
                    severity=Severity.WARNING,
                    message=(
                        f"loop {lp.label} writes {stmt.target} at offset "
                        f"{off}: iterations at the domain boundary store "
                        "cells outside the iteration domain"
                    ),
                    span=stmt.target.span or stmt.span,
                    hint="write the array at [i][j] and shift the reads "
                    "instead; retiming assumes writes stay in-domain",
                )
