"""Batch compilation: a thread pool over independent programs.

:func:`run_batch` (the engine behind :meth:`Session.fuse_many` and
``repro-fuse batch``) compiles each program through the session's
pipeline on a worker pool.  Worker threads start with a clean context and
explicitly enter the session's scope, so concurrent sessions never leak
caches, budgets, tracers or registries into each other -- the isolation
tests in ``tests/test_core_batch.py`` hammer exactly that.

Per program the report records status, strategy/parallelism (or the rung
the ladder came to rest on), the structured diagnostics, notes and -- when
the session traces -- a per-program trace id joining the entry to its own
:class:`~repro.obs.Tracer`.  The trace id is assigned *before* the
compile and the tracer attached in a ``finally``, so a program whose
compile (or whose exception's own ``__str__``) misbehaves still keeps its
id -- :func:`run_batch` asserts exactly that.  One failed program never
aborts the batch; its typed error is recorded and the batch continues.

``timeout_ms`` arms a per-program deadline
:class:`~repro.resilience.budget.Budget` through
:func:`repro.core.context.budget_scope`, so concurrent workers can run
under different deadlines against one shared session.  ``pool="process"``
compiles each program in a worker *process* over the ``repro-serve/1``
envelopes (crash isolation for untrusted inputs; the supervised,
retrying variant of this mode is :mod:`repro.serve`).

The aggregate is a :class:`BatchReport` (JSON schema ``repro-batch/1``)
with text and JSON renderings.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.core import context as _context
from repro.fusion.driver import Strategy
from repro.lint.diagnostics import Diagnostic
from repro.loopir import LoopNest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.session import Session

__all__ = [
    "BATCH_POOLS",
    "BATCH_SCHEMA",
    "DEFAULT_BATCH_JOBS",
    "BatchEntry",
    "BatchReport",
    "run_batch",
]

BATCH_POOLS = ("thread", "process")
#: Worker count when neither the call nor the session picked one.
DEFAULT_BATCH_JOBS = 4

BATCH_SCHEMA = "repro-batch/1"


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


def _normalize(
    programs: Sequence[Any], names: Optional[Sequence[str]]
) -> List[Tuple[str, Union[str, LoopNest]]]:
    if names is not None and len(names) != len(programs):
        raise ValueError(
            f"{len(names)} names for {len(programs)} programs"
        )
    out: List[Tuple[str, Union[str, LoopNest]]] = []
    for k, item in enumerate(programs):
        if isinstance(item, tuple) and len(item) == 2:
            name, src = item
            out.append((str(name), src))
        else:
            name = names[k] if names is not None else f"program[{k}]"
            out.append((name, item))
    return out


def _error_dict(exc: BaseException) -> Dict[str, Any]:
    """A JSON-safe error record that survives hostile exceptions.

    ``str(exc)`` and ``exc.diagnostics`` run arbitrary user-adjacent code;
    if either raises, the record still comes back (and the batch worker's
    own error handler -- which calls this -- cannot blow up and strand the
    entry without its trace id)."""
    try:
        message = str(exc)
    except Exception:
        message = f"<unprintable {type(exc).__name__}>"
    try:
        diagnostics = [
            d.to_dict() for d in getattr(exc, "diagnostics", None) or []
        ]
    except Exception:
        diagnostics = []
    return {
        "type": type(exc).__name__,
        "message": message,
        "diagnostics": diagnostics,
    }


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
            from repro.resilience.budget import Budget

            budget = Budget(deadline_ms=timeout_ms).start()
        with _context.budget_scope(budget) if budget is not None else _noop_ctx():
            with session._program_scope(tracer):
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
        entry.error = _error_dict(exc)
        try:
            entry.diagnostics = list(getattr(exc, "diagnostics", None) or [])
        except Exception:
            entry.diagnostics = []
    finally:
        entry.wall_ms = (time.perf_counter() - t0) * 1000.0
        if tracer is not None:
            entry.tracer = tracer
    return entry


def _noop_ctx():
    from contextlib import nullcontext

    return nullcontext()


def _compile_one_process(
    session: "Session",
    entry: BatchEntry,
    source: Union[str, LoopNest],
    executor: ProcessPoolExecutor,
    *,
    strategy: Optional[Union[Strategy, str]],
    resilient: bool,
    timeout_ms: Optional[float],
) -> BatchEntry:
    """Compile one program in a worker *process* over repro-serve/1."""
    from repro.loopir.printer import format_program
    from repro.serve import worker as serve_worker
    from repro.serve.wire import request_from_program

    t0 = time.perf_counter()
    try:
        text = source if isinstance(source, str) else format_program(source)
        chosen = strategy if strategy is not None else session.options.strategy
        store = session.caches.store
        req = request_from_program(
            entry.name,
            text,
            strategy=chosen.value if isinstance(chosen, Strategy) else str(chosen),
            resilient=resilient,
            min_rung=session.options.min_rung,
            deadline_ms=timeout_ms,
            ladder=session.options.ladder_labels(),
            prune_edges=session.options.prune_edges,
            verify_execution=session.options.verify_execution,
            # worker processes open their own handle on the same file
            store_path=store.path if store is not None else None,
        )
        resp = executor.submit(serve_worker.compile_request, req.to_dict()).result()
        entry.trace_id = resp.get("traceId")
        if resp.get("status") == "ok":
            entry.strategy = resp.get("strategy")
            entry.rung = resp.get("rung")
            entry.parallelism = resp.get("parallelism")
            entry.notes = list(resp.get("notes") or [])
        else:
            entry.status = "error"
            entry.error = resp.get("error") or {
                "type": "WorkerError",
                "message": "worker returned a malformed response",
                "diagnostics": [],
            }
        entry.diagnostics = [
            Diagnostic.from_dict(d) for d in resp.get("diagnostics") or []
        ]
    except Exception as exc:  # pool broke / pickling / crash: record, go on
        entry.status = "error"
        entry.error = _error_dict(exc)
    finally:
        entry.wall_ms = (time.perf_counter() - t0) * 1000.0
    return entry


def run_batch(
    session: "Session",
    programs: Sequence[Any],
    *,
    jobs: Optional[int] = None,
    strategy: Optional[Union[Strategy, str]] = None,
    resilient: bool = False,
    names: Optional[Sequence[str]] = None,
    timeout_ms: Optional[float] = None,
    pool: str = "thread",
) -> BatchReport:
    """Compile ``programs`` concurrently under ``session``.

    ``programs`` items are DSL text, :class:`LoopNest` objects, or
    ``(name, source)`` pairs; ``names`` labels positional items.  Entries
    come back in input order regardless of completion order.

    ``timeout_ms`` puts each program under its own deadline
    :class:`~repro.resilience.budget.Budget` (via
    :func:`repro.core.context.budget_scope`, so the shared session object
    is never mutated).  ``pool`` selects the worker flavor: ``"thread"``
    (default; shared caches, cheapest) or ``"process"`` (crash isolation;
    each program travels as a ``repro-serve/1`` envelope through
    :func:`repro.serve.worker.compile_request`).  The supervised,
    retrying, admission-controlled variant of process mode is the
    :mod:`repro.serve` daemon.
    """
    if pool not in BATCH_POOLS:
        raise ValueError(f"unknown pool {pool!r}; expected one of {BATCH_POOLS}")
    items = _normalize(programs, names)
    if jobs is None:
        jobs = DEFAULT_BATCH_JOBS
    jobs = max(1, int(jobs))
    reg_scope = (
        obs.overriding_registry(session.registry)
        if session.registry is not None
        else None
    )
    t0 = time.perf_counter()
    entries = [BatchEntry(index=k, name=name) for k, (name, _) in enumerate(items)]
    try:
        if reg_scope is not None:
            reg_scope.__enter__()
        obs.default_registry().counter("core.batch.runs").inc()
        if pool == "process":
            with ProcessPoolExecutor(max_workers=jobs) as executor:
                with ThreadPoolExecutor(
                    max_workers=jobs, thread_name_prefix="repro-batch"
                ) as waiters:
                    futures = [
                        waiters.submit(
                            _compile_one_process,
                            session,
                            entry,
                            src,
                            executor,
                            strategy=strategy,
                            resilient=resilient,
                            timeout_ms=timeout_ms,
                        )
                        for entry, (_, src) in zip(entries, items)
                    ]
                    for f in futures:
                        f.result()
        elif jobs == 1:
            for entry, (_, src) in zip(entries, items):
                _compile_one(
                    session,
                    entry,
                    src,
                    strategy=strategy,
                    resilient=resilient,
                    timeout_ms=timeout_ms,
                )
        else:
            with ThreadPoolExecutor(
                max_workers=jobs, thread_name_prefix="repro-batch"
            ) as workers:
                futures = [
                    workers.submit(
                        _compile_one,
                        session,
                        entry,
                        src,
                        strategy=strategy,
                        resilient=resilient,
                        timeout_ms=timeout_ms,
                    )
                    for entry, (_, src) in zip(entries, items)
                ]
                for f in futures:
                    f.result()
        if session.tracer is not None and pool == "thread":
            # the satellite contract: trace ids survive *any* outcome,
            # including exceptions whose own __str__ raises
            missing = [e.name for e in entries if e.trace_id is None]
            assert not missing, f"batch entries lost their trace ids: {missing}"
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
    finally:
        if reg_scope is not None:
            reg_scope.__exit__(None, None, None)
