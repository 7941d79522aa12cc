"""Batch compilation: independent programs, in process or one per worker.

:func:`run_batch` (the engine behind :meth:`Session.fuse_many` and
``repro-fuse batch``) has two paths, chosen by ``jobs`` alone (default 1):

* ``jobs == 1`` compiles the programs one after the other in this
  process, under the session: its caches, registry, budget and fault
  injector apply, and :class:`LoopNest` inputs are used as they are.
  When the session traces, each program gets its own
  :class:`~repro.obs.Tracer`, whose id is assigned *before* the compile,
  so a program whose compile (or whose exception's own ``__str__``)
  misbehaves still keeps it -- :func:`run_batch` asserts exactly that.
* ``jobs > 1`` forks ``min(jobs, len(programs))`` workers of the serve
  :class:`~repro.serve.supervisor.Supervisor` and sends each program to
  one as a ``repro-serve/1`` request with ``emit`` off, carrying the
  session's options and store path.  Its deadline is the smaller of
  ``timeout_ms`` and what remains of the session budget's deadline, whose
  clock covers the whole batch as at ``jobs == 1``; a program whose
  deadline is spent before it is sent fails with ``BudgetExceededError``.
  Node, edge and relaxation caps and a fault injector cannot cross the
  wire, so a session that has them raises :class:`ValueError`.  A worker
  that dies or sends a malformed reply (``SV001``), or does not answer
  in time (``SV002``), is replaced and costs only its own entry.  Pass
  counters, diagnostics and spans stay in the workers; an entry's trace
  id is its worker's.

One failed program never aborts the batch: its typed error is recorded
and the batch continues.  The aggregate is a :class:`BatchReport` (JSON
schema ``repro-batch/1``) with text and JSON renderings.
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.core import context as _context
from repro.fusion.driver import Strategy
from repro.lint.diagnostics import Diagnostic
from repro.loopir import LoopNest
from repro.loopir.printer import format_program
from repro.resilience.budget import Budget, BudgetExceededError
from repro.serve.supervisor import Supervisor
from repro.serve.wire import SV001, SV002, CompileRequest, WireError, error_payload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.session import Session

__all__ = [
    "BATCH_SCHEMA",
    "BatchEntry",
    "BatchReport",
    "run_batch",
]

BATCH_SCHEMA = "repro-batch/1"

#: How long past its deadline a worker may take to report the typed
#: ``BudgetExceededError`` it raises itself before it counts as hung.
_REPLY_GRACE_S = 1.0


@dataclass
class BatchEntry:
    """The outcome of compiling one program of a batch."""

    index: int
    name: str
    status: str = "ok"  # "ok" | "error"
    strategy: Optional[str] = None
    parallelism: Optional[str] = None
    rung: Optional[str] = None
    notes: List[str] = field(default_factory=list)
    diagnostics: List[Diagnostic] = field(default_factory=list)
    error: Optional[Dict[str, Any]] = None
    trace_id: Optional[str] = None
    tracer: Optional[obs.Tracer] = field(default=None, repr=False)
    wall_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "name": self.name,
            "status": self.status,
            "strategy": self.strategy,
            "parallelism": self.parallelism,
            "rung": self.rung,
            "notes": list(self.notes),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "error": self.error,
            "traceId": self.trace_id,
            "wallMs": round(self.wall_ms, 3),
        }


@dataclass
class BatchReport:
    """Everything one :meth:`Session.fuse_many` run produced."""

    jobs: int
    resilient: bool
    entries: List[BatchEntry]
    total_ms: float = 0.0

    @property
    def ok_count(self) -> int:
        return sum(1 for e in self.entries if e.ok)

    @property
    def error_count(self) -> int:
        return sum(1 for e in self.entries if not e.ok)

    @property
    def ok(self) -> bool:
        return self.error_count == 0

    def entry(self, name: str) -> BatchEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(f"no batch entry named {name!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": BATCH_SCHEMA,
            "jobs": self.jobs,
            "resilient": self.resilient,
            "okCount": self.ok_count,
            "errorCount": self.error_count,
            "totalMs": round(self.total_ms, 3),
            "programs": [e.to_dict() for e in self.entries],
        }

    def render_text(self) -> str:
        lines = [
            f"batch: {len(self.entries)} programs, jobs={self.jobs}, "
            f"{self.ok_count} ok, {self.error_count} failed"
            + (" (resilient)" if self.resilient else "")
        ]
        width = max((len(e.name) for e in self.entries), default=0)
        for e in self.entries:
            if e.ok:
                outcome = (
                    f"rung={e.rung}" if e.rung is not None
                    else f"strategy={e.strategy}"
                )
                detail = f"{outcome}, parallelism={e.parallelism}"
            else:
                assert e.error is not None
                detail = f"{e.error['type']}: {e.error['message']}"
            extras = []
            if e.diagnostics:
                extras.append(f"{len(e.diagnostics)} diagnostics")
            if e.trace_id is not None:
                extras.append(f"trace={e.trace_id}")
            tail = f"  [{', '.join(extras)}]" if extras else ""
            lines.append(
                f"  {e.name.ljust(width)}  {e.status:5s}  {detail}{tail}"
            )
        return "\n".join(lines)


def _work(
    programs: Sequence[Any], names: Optional[Sequence[str]]
) -> List[Tuple[BatchEntry, Union[str, LoopNest]]]:
    """One fresh entry per program, paired with its source."""
    if names is not None and len(names) != len(programs):
        raise ValueError(
            f"{len(names)} names for {len(programs)} programs"
        )
    out: List[Tuple[BatchEntry, Union[str, LoopNest]]] = []
    for k, item in enumerate(programs):
        if isinstance(item, tuple) and len(item) == 2:
            name, item = str(item[0]), item[1]
        else:
            name = names[k] if names is not None else f"program[{k}]"
        out.append((BatchEntry(index=k, name=name), item))
    return out


def _compile_one(
    session: "Session",
    entry: BatchEntry,
    source: Union[str, LoopNest],
    *,
    strategy: Optional[Union[Strategy, str]],
    resilient: bool,
    timeout_ms: Optional[float] = None,
) -> BatchEntry:
    t0 = time.perf_counter()
    tracer = obs.Tracer() if session.tracer is not None else None
    if tracer is not None:
        # assigned eagerly: whatever happens below, the entry keeps the id
        # that joins it to its tracer
        entry.trace_id = tracer.trace_id
    try:
        budget = None
        if timeout_ms is not None:
            budget = Budget(deadline_ms=timeout_ms).start()
        with _context.budget_scope(budget) if budget is not None else nullcontext():
            # the per-program tracer, when there is one, wins over the session's
            with session.activate(), (
                obs.overriding_tracer(tracer) if tracer is not None else nullcontext()
            ):
                with obs.trace_span("batch.program", program=entry.name):
                    if resilient:
                        out = session.fuse_program_resilient(source)
                        entry.rung = out.rung.label
                        entry.parallelism = out.resilient.parallelism.value
                    else:
                        out = session.fuse_program(source, strategy=strategy)
                        entry.strategy = out.fusion.strategy.value
                        entry.parallelism = out.fusion.parallelism.value
                    entry.notes = list(out.notes)
                    entry.diagnostics = list(out.diagnostics)
    except Exception as exc:  # one bad program never sinks the batch
        entry.status = "error"
        entry.error = error_payload(exc)
        try:
            entry.diagnostics = list(getattr(exc, "diagnostics", None) or [])
        except Exception:
            entry.diagnostics = []
    finally:
        entry.wall_ms = (time.perf_counter() - t0) * 1000.0
        if tracer is not None:
            entry.tracer = tracer
    return entry


def _deadline_ms(budget: Any, timeout_ms: Optional[float]) -> Optional[float]:
    """The smaller of ``timeout_ms`` and what remains of the session
    budget's deadline; :class:`BudgetExceededError` once that is spent."""
    limits = [] if timeout_ms is None else [(timeout_ms, 0.0)]
    if budget is not None and budget.deadline_ms is not None:
        limits.append((budget.deadline_ms, budget.elapsed_ms()))
    if not limits:
        return None
    limit, used = min(limits, key=lambda lu: lu[0] - lu[1])
    if limit - used <= 0:
        raise BudgetExceededError("deadline-ms", limit, used, "batch dispatch")
    return limit - used


def _drain(
    supervisor: Supervisor,
    queue: deque[Tuple[BatchEntry, Union[str, LoopNest]]],
    wire: Dict[str, Any],
    budget: Any,
    timeout_ms: Optional[float],
) -> None:
    """Compile the programs of ``queue`` until it is empty, each in one
    call on one worker, without retry."""
    while True:
        try:
            entry, source = queue.popleft()
        except IndexError:
            return
        t0 = time.perf_counter()
        try:
            deadline = _deadline_ms(budget, timeout_ms)
            text = source if isinstance(source, str) else format_program(source)
            req = CompileRequest(
                source=text, name=entry.name, deadline_ms=deadline, emit=False, **wire
            )
            wait_s = None if deadline is None else deadline / 1000.0 + _REPLY_GRACE_S
            try:
                resp = supervisor.call(supervisor.acquire(None), req.to_dict(), wait_s)
            except (EOFError, TimeoutError, WireError) as exc:
                # the supervisor replaced the worker; only this entry pays
                entry.status = "error"
                code = SV002 if isinstance(exc, TimeoutError) else SV001
                entry.error = {**error_payload(exc), "code": code}
                continue
            entry.trace_id, entry.notes = resp.trace_id, list(resp.notes)
            entry.strategy, entry.rung = resp.strategy, resp.rung
            entry.parallelism = resp.parallelism
            entry.diagnostics = [Diagnostic.from_dict(d) for d in resp.diagnostics]
            if not resp.ok:
                entry.status, entry.error = "error", resp.error
        except Exception as exc:  # a request the wire refuses, a spent deadline
            entry.status, entry.error = "error", error_payload(exc)
        finally:
            entry.wall_ms = (time.perf_counter() - t0) * 1000.0


def _run_on_workers(
    session: "Session",
    work: List[Tuple[BatchEntry, Union[str, LoopNest]]],
    jobs: int,
    budget: Any,
    *,
    strategy: Optional[Union[Strategy, str]],
    resilient: bool,
    timeout_ms: Optional[float],
) -> None:
    """Drain ``work`` on ``jobs`` worker processes, one thread per worker."""
    opts = session.options
    chosen = strategy if strategy is not None else opts.strategy
    store = session.caches.store
    wire = dict(
        strategy=chosen.value if isinstance(chosen, Strategy) else str(chosen),
        resilient=resilient,
        min_rung=opts.min_rung,
        ladder=opts.ladder_labels(),
        prune_edges=opts.prune_edges,
        verify_execution=opts.verify_execution,
        # each worker opens its own handle on the same file
        store_path=store.path if store is not None else None,
    )
    queue = deque(work)
    # forked before any pipeline code of this call runs, and in an empty
    # context, so no scope of the caller leaks into the workers
    with contextvars.Context().run(Supervisor, jobs) as supervisor:
        if budget is not None:
            # one clock for the whole batch, as at jobs=1 (first start wins)
            budget.start()
        args = (supervisor, queue, wire, budget, timeout_ms)
        threads = [threading.Thread(target=_drain, args=args) for _ in range(jobs)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()


def run_batch(
    session: "Session",
    programs: Sequence[Any],
    *,
    jobs: Optional[int] = None,
    strategy: Optional[Union[Strategy, str]] = None,
    resilient: bool = False,
    names: Optional[Sequence[str]] = None,
    timeout_ms: Optional[float] = None,
) -> BatchReport:
    """Compile ``programs`` under ``session``; see the module docstring.

    ``programs`` items are DSL text, :class:`LoopNest` objects, or
    ``(name, source)`` pairs; ``names`` labels positional items.  Entries
    come back in input order regardless of completion order.

    ``jobs`` defaults to 1: workers cost a fork each and a round trip
    per program, and on small batches or small programs they lose to the
    in-process loop (docs/PERFORMANCE.md).  ``timeout_ms`` gives each
    program its own deadline (in process through
    :func:`repro.core.context.budget_scope`, so the shared session is
    never mutated).
    """
    work = _work(programs, names)
    jobs = 1 if jobs is None else max(1, int(jobs))
    budget = session.effective_budget
    if jobs > 1 and (
        (budget is not None and budget.is_work_limiting)
        or session.options.injector is not None
    ):
        raise ValueError(
            "a session budget with node, edge or relaxation caps, or a "
            "fault injector, cannot reach worker processes; compile with "
            "jobs=1"
        )
    entries = [entry for entry, _ in work]
    t0 = time.perf_counter()
    with (
        obs.overriding_registry(session.registry)
        if session.registry is not None
        else nullcontext()
    ):
        obs.default_registry().counter("core.batch.runs").inc()
        if jobs == 1:
            for entry, source in work:
                _compile_one(
                    session,
                    entry,
                    source,
                    strategy=strategy,
                    resilient=resilient,
                    timeout_ms=timeout_ms,
                )
            if session.tracer is not None:
                # trace ids survive *any* outcome, including exceptions
                # whose own __str__ raises
                missing = [e.name for e in entries if e.trace_id is None]
                assert not missing, f"batch entries lost their trace ids: {missing}"
        elif work:
            _run_on_workers(
                session,
                work,
                min(jobs, len(work)),
                budget,
                strategy=strategy,
                resilient=resilient,
                timeout_ms=timeout_ms,
            )
        report = BatchReport(
            jobs=jobs,
            resilient=resilient,
            entries=entries,
            total_ms=(time.perf_counter() - t0) * 1000.0,
        )
        reg = obs.default_registry()
        reg.counter("core.batch.programs").inc(len(entries))
        reg.counter("core.batch.errors").inc(report.error_count)
        return report
