"""The code that runs *inside* serve worker processes.

:func:`serve` is the main loop of every worker the
:class:`~repro.serve.supervisor.Supervisor` forks: receive one request
dict on the worker's pipe, run :func:`compile_request`, send the response
dict back, repeat.  The contract of :func:`compile_request` is the
backbone of the service's fault model:

* It takes and returns **plain dicts** (the ``repro-serve/1`` envelopes),
  so nothing unpicklable ever crosses the process boundary.
* It **never raises**: every compile failure -- parse error, validation,
  fusion, budget exhaustion -- comes back as a well-formed ``error``
  response.  The only ways a call can fail are infrastructure faults
  (the worker died or stopped answering), which is exactly what the
  supervisor's retry logic keys on.
* The **chaos seam**: when the worker was started with faults allowed
  (``serve(conn, allow_faults=True)``), a request's ``fault`` spec is
  entered via the ordinary :func:`repro.resilience.faults.inject` context
  before the compile, and the request passes through the ``"worker"``
  injection point.  A :class:`~repro.resilience.faults.WorkerCrash`
  SIGKILLs the process right here; a
  :class:`~repro.resilience.faults.WorkerHang` stalls it;
  algorithm-level injectors (``mldg``/``retiming``/...) ride into the
  pipeline exactly like the in-process chaos matrix.

Cache tiers (docs/SERVING.md, docs/CACHING.md): the fusion/retiming/
kernel memo caches (L1) are **per-worker** -- fork-started workers inherit
a warm copy of the parent's caches when they are forked and diverge
afterwards.  Cross-process sharing happens one tier down: when the
request carries ``storePath`` (stamped by the service from its config),
the worker's session reads through and writes through that sqlite L2
store (:mod:`repro.store`), so a result compiled by one worker warms
every other worker and every later daemon restart.  Each worker opens
its *own* handle on the shared file -- a worker crash mid-write cannot
poison siblings (WAL transactions either commit or vanish).  Metrics
recorded in a worker stay in that worker; the latency and outcome
numbers the service aggregates all travel in the response envelope, and
an L2 hit is additionally flagged in the response ``notes``.
"""

from __future__ import annotations

import gc
import os
import time
from contextlib import ExitStack
from typing import Any, Dict

__all__ = ["serve", "compile_request", "faults_allowed", "resolve_backend"]

_STATE: Dict[str, Any] = {"allow_faults": False}


def serve(conn: Any, allow_faults: bool = False) -> None:
    """Worker main loop: one request at a time off ``conn`` until EOF.

    ``allow_faults`` gates the chaos seam -- a production daemon started
    without ``--chaos`` ignores ``fault`` specs entirely, so a hostile
    request cannot SIGKILL workers.
    """
    _STATE["allow_faults"] = bool(allow_faults)
    # what the fork inherited is never collected here: the collector then
    # neither walks it per request nor copies its pages by writing to them
    gc.freeze()
    while True:
        try:
            req_dict = conn.recv()
        except EOFError:
            return
        conn.send(compile_request(req_dict))


def faults_allowed() -> bool:
    """Whether this process honors request ``fault`` specs (chaos mode)."""
    if _STATE["allow_faults"]:
        return True
    return os.environ.get("REPRO_SERVE_CHAOS", "0").lower() in ("1", "true", "on")


def compile_request(req_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Compile one ``repro-serve/1`` request dict into a response dict."""
    from repro import obs
    from repro.serve.wire import (
        CompileRequest,
        CompileResponse,
        WireError,
        error_payload,
        source_digest,
    )

    t0 = time.perf_counter()
    pid = os.getpid()
    try:
        req = CompileRequest.from_dict(req_dict)
    except WireError as exc:
        return CompileResponse(
            status="error",
            name=str(req_dict.get("name", "program")) if isinstance(req_dict, dict) else "program",
            request_id=str(req_dict.get("requestId", "")) if isinstance(req_dict, dict) else "",
            error=error_payload(exc),
            code=exc.code,
            worker_pid=pid,
            worker_ms=(time.perf_counter() - t0) * 1000.0,
        ).to_dict()

    tracer = obs.Tracer()
    resp = CompileResponse(
        status="error",
        name=req.name,
        request_id=req.request_id,
        source_digest=req.digest,
        trace_id=tracer.trace_id,
        worker_pid=pid,
    )
    try:
        with ExitStack() as stack:
            _enter_fault(stack, req)
            with tracer.span("serve.worker.compile", request=req.request_id):
                _compile(req, tracer, resp)
    except Exception as exc:  # typed compile errors -> error response
        resp.status = "error"
        resp.error = error_payload(exc)
        try:
            resp.diagnostics = [
                d.to_dict() for d in getattr(exc, "diagnostics", None) or []
            ]
        except Exception:
            resp.diagnostics = []
    finally:
        resp.worker_ms = (time.perf_counter() - t0) * 1000.0
    # belt and braces: the response must survive the trip back through
    # pickle whatever the pipeline attached
    try:
        return resp.to_dict()
    except Exception as exc:  # pragma: no cover - defensive
        return CompileResponse(
            status="error",
            name=req.name,
            request_id=req.request_id,
            source_digest=source_digest(req.source),
            error=error_payload(exc),
            worker_pid=pid,
            worker_ms=(time.perf_counter() - t0) * 1000.0,
        ).to_dict()


def _enter_fault(stack: ExitStack, req: "Any") -> None:
    """Enter the request's chaos context and hit the ``"worker"`` seam."""
    from repro.resilience import faults

    if req.fault is None or not faults_allowed():
        return
    injector, seed = faults.injector_from_spec(req.fault)
    # retries re-seed deterministically: a WorkerCrash(probability<1) can
    # kill attempt 0 and spare attempt 1, all replayable
    stack.enter_context(faults.inject(injector, seed=seed + req.attempt))
    faults.pass_through("worker", req.to_dict())


def _compile(req: "Any", tracer: "Any", resp: "Any") -> None:
    """Run the session pipeline for ``req``, filling ``resp`` in place."""
    from repro import obs
    from repro.codegen import emit_fused_program
    from repro.core.session import Session, SessionOptions
    from repro.loopir.printer import format_program
    from repro.perf.memo import structural_hash
    from repro.resilience.budget import Budget

    budget = (
        Budget(deadline_ms=req.deadline_ms).start()
        if req.deadline_ms is not None
        else None
    )
    session = Session(
        options=SessionOptions(
            strategy=req.strategy,
            min_rung=req.min_rung,
            ladder=req.ladder,
            backend=req.backend,
            prune_edges=req.prune_edges,
            verify_execution=req.verify_execution,
            store_path=req.store_path,
        ),
        budget=budget,
        tracer=tracer,
    )
    l2_hits_before = obs.default_registry().counter("store.hits").value
    if req.resilient:
        out = session.fuse_program_resilient(req.source)
        resp.rung = out.rung.label
        resp.parallelism = out.resilient.parallelism.value
        resp.recovery = out.report.to_dict()
        if req.emit:
            resp.emitted = out.emitted_code()
    else:
        out = session.fuse_program(req.source, strategy=req.strategy)
        resp.strategy = out.fusion.strategy.value
        resp.parallelism = out.fusion.parallelism.value
        resp.retiming = {
            name: list(vec) for name, vec in out.fusion.retiming.as_dict().items()
        }
        if req.emit:
            resp.emitted = (
                emit_fused_program(out.fused)
                if out.fused is not None
                else format_program(out.nest)
            )
    resp.status = "ok"
    resp.structural_hash = structural_hash(out.mldg)
    resp.notes = list(out.notes)
    resolve_backend(req.backend, session, out, resp)
    l2_hits = obs.default_registry().counter("store.hits").value - l2_hits_before
    if l2_hits > 0:
        # visible evidence of cross-worker warmth in response/bench output
        resp.notes.append(f"store: {int(l2_hits)} L2 hit(s) (pid {os.getpid()})")
    resp.diagnostics = [d.to_dict() for d in out.diagnostics]


def resolve_backend(backend: str, session: "Any", out: "Any", resp: "Any") -> None:
    """Echo the effective execution backend on the response.

    Explicit requests echo verbatim (the precedence contract: an explicit
    per-request backend always beats the daemon default and the planner).
    ``"auto"`` is resolved through the planner's stage-mix rule, which
    does not depend on the iteration-space size.  The removed
    ``"parallel"`` backend resolves like ``"auto"``, with a note.
    """
    from repro.core.backends import DEPRECATED_BACKENDS

    if backend in DEPRECATED_BACKENDS:
        resp.notes.append(
            f"backend {backend!r} was removed; resolved as "
            f"{DEPRECATED_BACKENDS[backend]!r}"
        )
        backend = DEPRECATED_BACKENDS[backend]
    if backend != "auto":
        resp.backend = backend
        return
    fused = getattr(out, "fused", None)
    if fused is None:
        # nothing executable came out of the pipeline (e.g. a rung below
        # fusion); the ground-truth interpreter is the only honest answer
        resp.backend = "interp"
        return
    fusion = getattr(out, "fusion", None)
    if fusion is None:
        fusion = getattr(out, "resilient", None)
    schedule = getattr(fusion, "schedule", None)
    is_doall = getattr(fusion, "is_doall", None)
    if is_doall is None:
        is_doall = schedule is None
    plan = session.planner.plan_execution(
        fused, schedule=schedule, is_doall=bool(is_doall), requested="auto",
    )
    resp.backend = plan.backend
    resp.plan = plan.to_dict()
