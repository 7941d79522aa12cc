"""The verified degradation ladder.

:func:`fuse_resilient` tries the paper's strategies strongest-first:

====  ===========  ==============================================
rung  label        strategy
====  ===========  ==============================================
4     doall        Algorithm 3 (acyclic) / Algorithm 4 (cyclic)
3     hyperplane   Algorithm 5 (LLOFRA + wavefront schedule)
2     legal-only   Algorithm 2 (LLOFRA, serial fused loop)
1     partition    greedy direct fusion of legally-fusible runs
0     none         original program unchanged
====  ===========  ==============================================

Every rung is *gated*: its answer is re-verified against the pristine
input graph (``verify_retiming`` plus, by default, operational dataflow
execution against the order-free reference), so a rung whose algorithm
misbehaves — an exception, a budget exhaustion, or a computed-but-wrong
answer — is degraded past, never returned.  The descent is recorded in a
:class:`~repro.resilience.report.RecoveryReport`.

The three retiming rungs call the strict pipeline's
:func:`repro.fusion.fuse` with a forced strategy, so they share its
verified results, its L1/L2 cache rows and the legality report's LLOFRA
solution (Theorem 4.4: Algorithm 5 is LLOFRA plus a schedule).

The fault seams (:func:`repro.resilience.faults.pass_through`) feed each
rung's *algorithm* the possibly-corrupted intermediates while the gates
always judge against the true input: under fault injection the ladder
either returns a verified-correct (possibly degraded) answer or raises a
typed error, by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.codegen.fused import DeadlockError
from repro.constraints import InfeasibleSystemError
from repro.fusion.driver import Parallelism, Strategy, fuse
from repro.fusion.errors import FusionError, require_legal
from repro.graph.analysis import is_acyclic
from repro.graph.legality import LegalityReport
from repro.graph.mldg import MLDG
from repro.resilience import faults
from repro.resilience.budget import Budget, BudgetExceededError
from repro.resilience.partition import PartitionedFusion, greedy_partition, validate_partition
from repro.resilience.report import (
    RS001,
    RS002,
    RS003,
    RS004,
    RecoveryReport,
    Rung,
    RungAttempt,
    rung_diagnostic,
    rung_from_label,
)
from repro.retiming import ROW_SCHEDULE, Retiming, hyperplane_for_schedule
from repro.retiming.verify import verify_retiming
from repro.vectors import IVec
from repro.verify.dataflow import OrderViolation, verify_retimed_execution

__all__ = [
    "ResilienceError",
    "RungRejected",
    "ResilientFusionResult",
    "fuse_resilient",
]

#: A program-level gate: called with the rung's verified graph-level answer,
#: returns ``(artifact, notes)`` or raises :class:`RungRejected`.
Gate = Callable[..., Tuple[Any, List[str]]]

_DESCENT = (Rung.DOALL, Rung.HYPERPLANE, Rung.LEGAL_FUSION, Rung.PARTITION, Rung.ORIGINAL)


def _descent() -> Tuple[Rung, ...]:
    """The rung sequence to walk, strongest-first.

    The active :class:`repro.core.Session` may select a ladder variant
    (``SessionOptions.ladder``); otherwise the full built-in descent.
    """
    from repro.core.context import current_session

    session = current_session()
    if session is not None:
        labels = session.ladder_descent()
        if labels is not None:
            return tuple(rung_from_label(label) for label in labels)
    return _DESCENT


class ResilienceError(FusionError):
    """The ladder came to rest below the caller's ``min_rung``.

    ``report`` carries the full descent; ``diagnostics`` is never empty
    (at minimum the RS004 record, plus everything the failed rungs left).
    """

    def __init__(self, message: str, report: RecoveryReport) -> None:
        diags = report.diagnostics
        super().__init__(message, diags)
        self.report = report


class RungRejected(Exception):
    """Internal control flow: a rung's answer failed a verification gate."""

    def __init__(self, message: str, notes: Optional[Sequence[str]] = None) -> None:
        super().__init__(message)
        self.notes = list(notes or [])


@dataclass
class ResilientFusionResult:
    """Where the ladder came to rest, plus everything it computed there.

    ``report`` is attached by :func:`fuse_resilient` just before returning
    (the rung runners don't own the descent record).
    """

    rung: Rung
    report: Optional[RecoveryReport] = None
    retiming: Optional[Retiming] = None
    schedule: Optional[IVec] = None
    hyperplane: Optional[IVec] = None
    partition: Optional[PartitionedFusion] = None
    artifact: Any = None
    notes: List[str] = field(default_factory=list)

    @property
    def parallelism(self) -> Parallelism:
        if self.rung is Rung.DOALL:
            return Parallelism.DOALL
        if self.rung is Rung.HYPERPLANE:
            return Parallelism.HYPERPLANE
        return Parallelism.SERIAL

    @property
    def degraded(self) -> bool:
        return self.rung is not _DESCENT[0]


def _exec_ok(
    g: MLDG,
    retiming: Retiming,
    bounds: Tuple[int, ...],
    *,
    mode: str,
    schedule: Optional[IVec] = None,
) -> Tuple[bool, Optional[str]]:
    """Operational execution check, folded to (accepted, note).

    A deadlocked reference (zero-weight cycle) is fatal for serial/doall
    claims — the fused loop could never run in those orders — but *not*
    for the hyperplane claim: the paper's Figure 14 is exactly a legal
    wavefront fusion whose row-serial execution deadlocks, so there the
    graph-level guarantees (cycle preservation, legality, schedule
    strictness) stand alone and we accept with a note.
    """
    try:
        ok = verify_retimed_execution(g, retiming, bounds, mode=mode, schedule=schedule)
    except OrderViolation as exc:
        return False, f"execution order violation: {exc}"
    except ValueError as exc:
        text = str(exc)
        if "deadlock" in text or "no fused body order" in text:
            if mode == "hyperplane":
                return True, f"execution check skipped ({text})"
            return False, text
        return False, text
    if not ok:
        return False, f"{mode} execution does not match the order-free reference"
    return True, None


def _strictness_violation(retimed: MLDG, s: IVec) -> Optional[str]:
    """Check Lemma 4.3 strictness of ``s`` on the *true* retimed vectors."""
    if all(c == 0 for c in s):
        return f"schedule {s} is the zero vector"
    for d in sorted(set(retimed.all_vectors())):
        if any(c != 0 for c in d) and s.dot(d) <= 0:
            return f"schedule {s} is not strict for retimed dependence vector {d}"
    return None


def fuse_resilient(
    g: MLDG,
    *,
    budget: Optional[Budget] = None,
    min_rung: Union[Rung, str] = Rung.ORIGINAL,
    verify_execution: bool = True,
    bounds: Optional[Sequence[int]] = None,
    gate: Optional[Gate] = None,
    legality: Optional[LegalityReport] = None,
) -> ResilientFusionResult:
    """Fuse ``g`` with graceful, verified degradation.

    Parameters
    ----------
    g:
        The MLDG to fuse.  Structurally illegal inputs raise
        :class:`~repro.fusion.errors.IllegalMLDGError` (with diagnostics)
        up front — no transformation of an illegal program is meaningful.
    budget:
        Optional resource budget; exhaustion degrades instead of crashing.
    min_rung:
        Lowest acceptable rung (a :class:`Rung` or its label).  If every
        rung at or above it fails, raises :class:`ResilienceError`.
    verify_execution:
        Gate each rung with operational dataflow execution against the
        order-free reference (strongest check; costs
        ``O(prod(bounds) * |V|)`` per rung).
    bounds:
        Iteration box for the execution check (default 4 per dimension).
    gate:
        Optional program-level hook called as ``gate(rung, retiming=...,
        schedule=..., partition=...)`` after the graph-level gates accept;
        it returns ``(artifact, notes)`` or raises :class:`RungRejected`
        to degrade past the rung.  Used by
        :func:`repro.resilience.pipeline.fuse_program_resilient` to run
        codegen + bit-exact equivalence per rung.
    legality:
        :func:`~repro.graph.legality.check_legal`'s report on ``g`` when the
        caller already has it (the compile pipeline's lint pass made one).
    """
    if isinstance(min_rung, str):
        min_rung = rung_from_label(min_rung)
    budget = (budget or Budget()).start()
    report = RecoveryReport(budget=budget)
    tracer = obs.current_tracer()
    if tracer.active:
        report.trace_id = tracer.trace_id
    reg = obs.default_registry()
    reg.counter("resilience.ladder.runs").inc()
    t_start = time.perf_counter()

    oversize: Optional[BudgetExceededError] = None
    try:
        budget.check_graph(g.num_nodes, g.num_edges, "ladder entry")
    except BudgetExceededError as exc:
        oversize = exc
        report.notes.append(f"graph exceeds budget caps: {exc}")

    if oversize is None:
        legality = require_legal(g, legality)

    box = tuple(int(b) for b in bounds) if bounds is not None else (4,) * g.dim

    result: Optional[ResilientFusionResult] = None
    with obs.trace_span(
        "resilience.ladder",
        nodes=g.num_nodes,
        edges=g.num_edges,
        min_rung=min_rung.label,
    ) as ladder_span:
        for rung in _descent():
            if rung < min_rung:
                break
            attempt = _attempt_rung(
                g,
                rung,
                report,
                budget=budget,
                oversize=oversize,
                verify_execution=verify_execution,
                box=box,
                gate=gate,
                legality=legality,
            )
            if attempt.status == "ok":
                result = getattr(attempt, "_result")
                result.notes = list(attempt.notes)
                report.final_rung = rung
                break

        report.total_ms = (time.perf_counter() - t_start) * 1000.0
        if result is None:
            reg.counter(f"resilience.diagnostic.{RS004}").inc()
            ladder_span.set(outcome="exhausted")
            report.record(
                RungAttempt(
                    rung=min_rung,
                    status="rejected",
                    message="no rung at or above min_rung succeeded",
                    diagnostics=[
                        rung_diagnostic(
                            RS004,
                            f"ladder exhausted: no strategy at or above "
                            f"{min_rung.label!r} produced a verified result",
                            error=True,
                        )
                    ],
                )
            )
            raise ResilienceError(
                f"resilient fusion failed: no strategy at or above rung "
                f"{min_rung.label!r} produced a verified result",
                report,
            )
        reg.counter(f"resilience.final_rung.{report.final_rung.label}").inc()
        ladder_span.set(final_rung=report.final_rung.label)
    result.report = report
    report.parallelism = result.parallelism.value
    return result


def _attempt_rung(
    g: MLDG,
    rung: Rung,
    report: RecoveryReport,
    *,
    budget: Budget,
    oversize: Optional[BudgetExceededError],
    verify_execution: bool,
    box: Tuple[int, ...],
    gate: Optional[Gate],
    legality: Optional[LegalityReport],
) -> RungAttempt:
    """Span- and counter-wrapped :func:`_attempt_rung_inner`."""
    reg = obs.default_registry()
    reg.counter(f"resilience.rung.{rung.label}").inc()
    with obs.trace_span(f"resilience.rung.{rung.label}") as sp:
        attempt = _attempt_rung_inner(
            g,
            rung,
            report,
            budget=budget,
            oversize=oversize,
            verify_execution=verify_execution,
            box=box,
            gate=gate,
            legality=legality,
        )
        reg.counter(f"resilience.rung.{rung.label}.{attempt.status}").inc()
        for diag in attempt.diagnostics:
            reg.counter(f"resilience.diagnostic.{diag.code}").inc()
        sp.set(status=attempt.status)
    return attempt


def _attempt_rung_inner(
    g: MLDG,
    rung: Rung,
    report: RecoveryReport,
    *,
    budget: Budget,
    oversize: Optional[BudgetExceededError],
    verify_execution: bool,
    box: Tuple[int, ...],
    gate: Optional[Gate],
    legality: Optional[LegalityReport],
) -> RungAttempt:
    t0 = time.perf_counter()
    attempt = RungAttempt(rung=rung, status="skipped")
    report.record(attempt)

    if rung is not Rung.ORIGINAL:
        if oversize is not None:
            attempt.message = f"skipped: {oversize}"
            attempt.diagnostics.append(
                rung_diagnostic(RS003, f"{rung.label}: {oversize}")
            )
            return attempt
        if budget.deadline_exceeded():
            attempt.message = "skipped: deadline exhausted"
            attempt.diagnostics.append(
                rung_diagnostic(
                    RS003,
                    f"{rung.label}: deadline of {budget.deadline_ms:g} ms "
                    f"exhausted after {budget.elapsed_ms():.1f} ms",
                )
            )
            return attempt

    try:
        result = _run_rung(
            g,
            rung,
            budget=budget,
            verify_execution=verify_execution,
            box=box,
            gate=gate,
            legality=legality,
        )
    except RungRejected as exc:
        attempt.status = "rejected"
        attempt.message = str(exc)
        attempt.notes.extend(exc.notes)
        attempt.diagnostics.append(rung_diagnostic(RS002, f"{rung.label}: {exc}"))
    except (
        FusionError,
        BudgetExceededError,
        InfeasibleSystemError,
        DeadlockError,
        OrderViolation,
        ValueError,
    ) as exc:
        attempt.status = "failed"
        attempt.error = type(exc).__name__
        attempt.message = str(exc)
        attempt.diagnostics.append(
            rung_diagnostic(RS001, f"{rung.label}: {type(exc).__name__}: {exc}")
        )
        attempt.diagnostics.extend(getattr(exc, "diagnostics", []))
    else:
        attempt.status = "ok"
        attempt.notes.extend(result.notes)
        result.notes = []
        attempt._result = result  # type: ignore[attr-defined]
    finally:
        attempt.wall_ms = (time.perf_counter() - t0) * 1000.0
    return attempt


def _run_rung(
    g: MLDG,
    rung: Rung,
    *,
    budget: Budget,
    verify_execution: bool,
    box: Tuple[int, ...],
    gate: Optional[Gate],
    legality: Optional[LegalityReport],
) -> ResilientFusionResult:
    """Compute one rung's answer and push it through every gate.

    Raises :class:`RungRejected` when a verification gate refuses the
    computed answer; lets algorithm errors propagate for the caller to
    classify.  Note the asymmetry that makes fault injection sound: the
    algorithms run on the fault seams' outputs, the gates on ``g`` itself.
    """
    if rung is Rung.ORIGINAL:
        artifact, notes = (None, [])
        if gate is not None:
            artifact, notes = gate(rung)
        return ResilientFusionResult(
            rung=rung,
            retiming=Retiming.zero(dim=g.dim),
            artifact=artifact,
            notes=["original program returned unchanged"] + notes,
        )

    if rung is Rung.PARTITION:
        g_alg = faults.pass_through("mldg", g)
        partition = greedy_partition(g_alg)
        reason = validate_partition(g, partition)
        if reason is not None:
            raise RungRejected(reason)
        if verify_execution:
            for cluster in partition.fused_clusters:
                sub = g.restricted_to(cluster.labels)
                mode = "doall" if cluster.doall else "serial"
                ok, note = _exec_ok(sub, Retiming.zero(dim=g.dim), box, mode=mode)
                if not ok:
                    raise RungRejected(
                        f"cluster {'+'.join(cluster.labels)}: {note}"
                    )
        artifact, notes = (None, [])
        if gate is not None:
            artifact, notes = gate(rung, partition=partition)
        return ResilientFusionResult(
            rung=rung,
            retiming=Retiming.zero(dim=g.dim),
            partition=partition,
            artifact=artifact,
            notes=[f"partition: {partition.describe()}"] + notes,
        )

    # retiming rungs: the strict path's fuse() on the fault seam's graph -- #
    g_alg = faults.pass_through("mldg", g)
    known = legality if g_alg is g else None
    schedule: Optional[IVec] = None
    hyperplane: Optional[IVec] = None
    notes: List[str] = []

    if rung is Rung.DOALL:
        if is_acyclic(g_alg):
            result = fuse(g_alg, Strategy.ACYCLIC, budget=budget, legality=known)
            notes.append("Algorithm 3 (acyclic DOALL fusion)")
        else:
            result = fuse(g_alg, Strategy.CYCLIC, budget=budget, legality=known)
            notes.append("Algorithm 4 (cyclic DOALL fusion)")
        r = faults.pass_through("retiming", result.retiming)
        schedule = ROW_SCHEDULE
    elif rung is Rung.HYPERPLANE:
        result = fuse(g_alg, Strategy.HYPERPLANE, budget=budget, legality=known)
        r = faults.pass_through("retiming", result.retiming)
        schedule = faults.pass_through("schedule", result.schedule)
        hyperplane = hyperplane_for_schedule(schedule)
        notes.append("Algorithm 5 (hyperplane/wavefront fusion)")
    else:  # Rung.LEGAL_FUSION
        result = fuse(g_alg, Strategy.LEGAL_ONLY, budget=budget, legality=known)
        r = faults.pass_through("retiming", result.retiming)
        notes.append("Algorithm 2 (LLOFRA, serial fused loop)")

    # gates: always against the TRUE graph ------------------------------ #
    # fuse() verified its answer on g_alg; that stands only when no seam
    # changed the graph or the retiming
    if g_alg is g and r is result.retiming:
        verification, retimed = result.verification, result.retimed
    else:
        retimed = r.apply(g)
        verification = verify_retiming(g, r, retimed=retimed)
    if rung is Rung.DOALL:
        if not verification.ok_for_parallel_fusion:
            raise RungRejected(
                "verification rejected the DOALL retiming: "
                + "; ".join(verification.problems)
            )
    elif not verification.ok_for_legal_fusion:
        raise RungRejected(
            f"verification rejected the {rung.label} retiming: "
            + "; ".join(verification.problems)
        )
    if rung is Rung.HYPERPLANE:
        assert schedule is not None
        strictness = _strictness_violation(retimed, schedule)
        if strictness is not None:
            raise RungRejected(strictness)

    if verify_execution:
        mode = {
            Rung.DOALL: "doall",
            Rung.HYPERPLANE: "hyperplane",
            Rung.LEGAL_FUSION: "serial",
        }[rung]
        ok, note = _exec_ok(g, r, box, mode=mode, schedule=schedule)
        if not ok:
            raise RungRejected(note or "execution check failed")
        if note:
            notes.append(note)

    artifact, gate_notes = (None, [])
    if gate is not None:
        artifact, gate_notes = gate(rung, retiming=r, schedule=schedule)

    return ResilientFusionResult(
        rung=rung,
        retiming=r,
        schedule=schedule,
        hyperplane=hyperplane,
        artifact=artifact,
        notes=notes + gate_notes,
    )
