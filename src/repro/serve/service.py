"""The compilation service: admission -> breaker -> supervised dispatch.

:class:`CompileService` is transport-agnostic -- the HTTP daemon, the
loadgen benchmark and the tests all call :meth:`CompileService.handle`
directly.  One request flows through four rings of defense:

1. **Admission** (:mod:`repro.serve.admission`): over quota -> typed
   ``shed`` response (``SV003``) with ``Retry-After``; nobody else's
   deadline is spent on it.
2. **Circuit breaker** (:mod:`repro.serve.breaker`): workload classes
   (keyed by structural hash, bootstrapped by source digest) that keep
   crashing/hanging workers -> instant ``rejected`` (``SV004``).
3. **Supervised dispatch** (:mod:`repro.serve.supervisor`): the request
   takes an idle worker process and is compiled there, alone, under its
   deadline.  A worker crash (``SV001``) restarts that one worker and
   retries with exponential backoff and seeded jitter; a hang (``SV002``)
   SIGKILLs and restarts that one worker.
4. **Degraded fallback** (``SV005``): the *final* attempt never errors on
   infrastructure -- it compiles in-process through the resilience
   ladder's lower rungs under a small grace budget, so the client always
   receives a runnable (possibly original) program with a
   :class:`~repro.resilience.report.RecoveryReport`.

Typed *compile* errors (parse/validation/fusion/budget) are deterministic
and come back from the worker as well-formed ``error`` responses -- they
are never retried and never trip the breaker.
"""

from __future__ import annotations

import random
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from repro import obs
from repro.serve import worker as serve_worker
from repro.serve.supervisor import Supervisor
from repro.serve.wire import (
    SV001,
    SV002,
    SV003,
    SV004,
    SV005,
    SV006,
    SV007,
    CompileRequest,
    CompileResponse,
    WireError,
    error_payload,
)

__all__ = ["CompileService", "ServeConfig"]

#: Cap on the ``source digest -> structural hash`` alias map (LRU): a
#: long-running daemon fed unique programs must not grow without bound.
#: Losing an alias is benign -- the class falls back to its digest key
#: until a worker re-reports the structural hash.
MAX_HASH_ALIASES = 65_536


def _seconds(ms: Optional[float], reserve_ms: float = 0.0) -> Optional[float]:
    """A remaining budget in ms, less ``reserve_ms``, as a wait timeout."""
    return None if ms is None else max(0.0, ms - reserve_ms) / 1000.0


@dataclass
class ServeConfig:
    """Tunables for one :class:`CompileService` (docs/SERVING.md)."""

    #: Worker processes.
    workers: int = 2
    #: Admission quota; ``None`` = ``workers * 4`` (two dispatch rounds of
    #: headroom per worker before shedding starts).
    max_inflight: Optional[int] = None
    #: Deadline applied to requests that do not carry their own.
    default_deadline_ms: float = 10_000.0
    #: Worker dispatch attempts per request (the last failure falls back
    #: to the in-process ladder instead of erroring).
    max_attempts: int = 3
    #: Exponential backoff between crash retries: ``base * 2**(n-1)``
    #: capped at ``cap``, stretched by up to ``jitter`` (seeded).
    backoff_base_ms: float = 25.0
    backoff_cap_ms: float = 1_000.0
    backoff_jitter: float = 0.5
    #: Circuit breaker: consecutive infrastructure failures per workload
    #: class before tripping, and how long the class stays open.
    breaker_threshold: int = 3
    breaker_cooldown_ms: float = 1_000.0
    #: Weakest rung the degraded fallback accepts, and the grace budget it
    #: runs under when the request's own deadline is already spent.
    fallback_min_rung: str = "none"
    fallback_grace_ms: float = 250.0
    #: Below this remaining budget a worker round-trip is pointless.
    min_attempt_ms: float = 5.0
    #: Honor request ``fault`` specs in workers (chaos testing only).
    allow_faults: bool = False
    #: Seed for the backoff-jitter rng (deterministic load tests).
    seed: int = 0
    #: Default ladder variant (a ``LADDER_VARIANTS`` name or rung-label
    #: sequence) applied to requests that carry no ``ladder`` of their
    #: own -- on worker dispatch *and* the in-process fallback alike, so
    #: both paths compile the same descent (``None`` = full).
    ladder: Optional[Union[str, Sequence[str]]] = field(default=None)
    #: Execution backend (:mod:`repro.core.backends`) threaded into worker
    #: and fallback session options; requests carrying ``backend`` win.
    #: ``"auto"`` defers to the execution planner (:mod:`repro.plan`) --
    #: the worker resolves it and echoes the pick on the response
    #: (the removed ``"parallel"`` backend resolves like ``"auto"``).
    backend: str = "interp"
    #: Path of the shared L2 compile store (:mod:`repro.store`).  Stamped
    #: onto requests that carry no ``storePath`` of their own, so every
    #: worker process (and the in-process fallback) opens its own handle
    #: on one daemon-wide sqlite file.  ``None`` = no disk tier.
    store_path: Optional[str] = None

    def resolved_max_inflight(self) -> int:
        return self.max_inflight if self.max_inflight is not None else self.workers * 4


class CompileService:
    """A fault-tolerant compile service over supervised worker processes."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        from repro.serve.admission import AdmissionController
        from repro.serve.breaker import CircuitBreaker

        self.config = config if config is not None else ServeConfig()
        # resolve before the workers exist so a bad variant name fails
        # fast without leaking worker processes
        self._ladder_labels = self._resolve_config_ladder()
        from repro.core.backends import backend_names, selectable_backends

        if self.config.backend not in selectable_backends():
            raise ValueError(
                f"unknown execution backend {self.config.backend!r}; "
                f"known: {list(backend_names()) + ['auto']}"
            )
        # forked here, before any HTTP thread exists
        self.supervisor = Supervisor(
            self.config.workers, allow_faults=self.config.allow_faults
        )
        self.admission = AdmissionController(
            self.config.resolved_max_inflight(),
            default_deadline_ms=self.config.default_deadline_ms,
        )
        self.breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            cooldown_ms=self.config.breaker_cooldown_ms,
        )
        self._rng = random.Random(self.config.seed)
        self._rng_lock = threading.Lock()
        self._alias_lock = threading.Lock()
        self._hash_by_digest: "OrderedDict[str, str]" = OrderedDict()
        self._started = time.monotonic()

    def _resolve_config_ladder(self) -> Optional[Tuple[str, ...]]:
        """Resolve ``config.ladder`` to explicit rung labels once, so a
        bad variant name fails at construction and the same labels ride
        the wire to workers that the fallback compiles with."""
        if self.config.ladder is None:
            return None
        from repro.core.session import SessionOptions

        return SessionOptions(ladder=self.config.ladder).ladder_labels()

    # ------------------------------------------------------------------ #
    # entry points
    # ------------------------------------------------------------------ #

    def handle_dict(self, req_dict: Any) -> Dict[str, Any]:
        """Transport-facing entry: dict in, dict out, never raises."""
        try:
            req = CompileRequest.from_dict(req_dict)
        except WireError as exc:
            obs.default_registry().counter("serve.malformed").inc()
            name = "program"
            if isinstance(req_dict, dict):
                name = str(req_dict.get("name", "program"))
            return CompileResponse(
                status="error",
                name=name,
                error=error_payload(exc),
                code=SV006,
            ).to_dict()
        return self.handle(req).to_dict()

    def handle(self, req: CompileRequest) -> CompileResponse:
        """Serve one request through all four rings; always returns a
        well-formed :class:`CompileResponse`."""
        reg = obs.default_registry()
        reg.counter("serve.requests").inc()
        t0 = time.perf_counter()
        with obs.trace_span("serve.request", request=req.request_id, program=req.name):
            ticket = self.admission.try_admit(req.deadline_ms)
            if ticket is None:
                resp = CompileResponse(
                    status="shed",
                    name=req.name,
                    request_id=req.request_id,
                    source_digest=req.digest,
                    code=SV003,
                    retry_after_ms=round(self.admission.retry_after_ms(), 3),
                    notes=["admission control: inflight quota exhausted"],
                )
            else:
                probe_token: Optional[int] = None
                try:
                    key = self._class_key(req.digest)
                    admit = self.breaker.allow(key)
                    if not admit:
                        reg.counter("serve.rejected").inc()
                        resp = CompileResponse(
                            status="rejected",
                            name=req.name,
                            request_id=req.request_id,
                            source_digest=req.digest,
                            code=SV004,
                            retry_after_ms=round(self.breaker.retry_after_ms(key), 3),
                            notes=[f"circuit breaker open for workload class {key}"],
                        )
                    else:
                        probe_token = admit.probe_token
                        resp = self._dispatch(req, ticket.budget, key)
                except Exception as exc:  # supervisor must never crash
                    reg.counter("serve.internal_errors").inc()
                    resp = CompileResponse(
                        status="error",
                        name=req.name,
                        request_id=req.request_id,
                        source_digest=req.digest,
                        error=error_payload(exc),
                        code=SV007,
                    )
                finally:
                    # a half-open probe that ended on an uncharged path
                    # (queue timeout, fallback, internal error)
                    # must not leave the class stuck probing forever; the
                    # key is re-resolved because the fallback may have
                    # rekeyed the class mid-request
                    self.breaker.record_abandoned(
                        self._class_key(req.digest), probe_token
                    )
                    ticket.release((time.perf_counter() - t0) * 1000.0)
        resp.total_ms = round((time.perf_counter() - t0) * 1000.0, 3)
        reg.counter(f"serve.status.{resp.status}").inc()
        reg.histogram("serve.latency_ms").observe(resp.total_ms)
        return resp

    # ------------------------------------------------------------------ #
    # dispatch: retry + backoff + worker restart
    # ------------------------------------------------------------------ #

    def _dispatch(
        self, req: CompileRequest, budget: Any, key: str
    ) -> CompileResponse:
        reg = obs.default_registry()
        attempts = crashes = timeouts = 0
        last_code: Optional[str] = None
        queue_ms: Optional[float] = None
        while attempts < self.config.max_attempts:
            remaining = budget.remaining_ms()
            if remaining is not None and remaining <= self.config.min_attempt_ms:
                last_code = last_code or SV002
                break
            t_wait = time.perf_counter()
            worker = self.supervisor.acquire(
                _seconds(remaining, self.config.min_attempt_ms)
            )
            queue_ms = (queue_ms or 0.0) + (time.perf_counter() - t_wait) * 1000.0
            if worker is None:  # no worker came free within the budget
                timeouts += 1
                reg.counter("serve.timeouts").inc()
                last_code = SV002
                break
            attempts += 1
            remaining = budget.remaining_ms()
            wire = self._wire(req, attempts - 1, remaining)
            # one request per worker: whatever goes wrong on it is this
            # request's doing, so each fault restarts only this worker
            # and charges this request's class
            try:
                resp = CompileResponse.from_dict(worker.call(wire, _seconds(remaining)))
            except EOFError:
                crashes += 1
                reg.counter("serve.worker_crashes").inc()
                last_code = SV001
                self.supervisor.restart(worker, "crash")
                self.breaker.record_failure(key)
                if attempts < self.config.max_attempts:
                    reg.counter("serve.retries").inc()
                    self._backoff(attempts, budget)
                continue
            except TimeoutError:
                timeouts += 1
                reg.counter("serve.timeouts").inc()
                last_code = SV002
                self.supervisor.restart(worker, "hang")
                self.breaker.record_failure(key)
                break  # the deadline is spent: on to the fallback
            except WireError:
                # a worker answered gibberish; treat like a crash
                crashes += 1
                reg.counter("serve.worker_crashes").inc()
                last_code = SV001
                self.supervisor.restart(worker, "babble")
                self.breaker.record_failure(key)
                continue
            self.supervisor.release(worker)
            # a well-formed worker response -- the infrastructure is fine,
            # whatever the compile outcome was
            self.breaker.record_success(key)
            self._learn_hash(req.digest, resp.structural_hash)
            if attempts > 1:
                resp.notes.append(
                    f"succeeded on attempt {attempts} after "
                    f"{crashes} crash(es) and {timeouts} timeout(s)"
                )
            return self._finalize(resp, attempts, crashes, timeouts, queue_ms)
        with self.supervisor.hold_forks():  # it compiles in this process
            return self._fallback(
                req, budget, attempts, crashes, timeouts, last_code, queue_ms
            )

    def _wire(
        self, req: CompileRequest, attempt: int, remaining: Optional[float]
    ) -> Dict[str, Any]:
        """The request dict for one worker attempt, config defaults stamped."""
        wire = req.to_dict()
        wire["attempt"] = attempt
        wire["deadlineMs"] = remaining
        if req.ladder is None and self._ladder_labels is not None:
            # the config-level default descent rides the wire so the
            # worker compiles the same ladder the fallback would
            wire["ladder"] = list(self._ladder_labels)
        if wire.get("backend", "interp") == "interp":
            # config-level backend applies to requests that kept the
            # wire default; an explicit non-default request wins
            wire["backend"] = self.config.backend
        if wire.get("storePath") is None and self.config.store_path is not None:
            # the daemon-wide L2 store rides the wire; each worker
            # opens its own handle on the shared sqlite file
            wire["storePath"] = self.config.store_path
        return wire

    def _backoff(self, attempt: int, budget: Any) -> None:
        """Exponential backoff with seeded jitter, clamped to the budget."""
        delay_ms = min(
            self.config.backoff_cap_ms,
            self.config.backoff_base_ms * (2 ** (attempt - 1)),
        )
        with self._rng_lock:
            delay_ms *= 1.0 + self.config.backoff_jitter * self._rng.random()
        remaining = budget.remaining_ms()
        if remaining is not None:
            delay_ms = min(delay_ms, max(0.0, remaining - self.config.min_attempt_ms))
        if delay_ms > 0:
            time.sleep(delay_ms / 1000.0)

    # ------------------------------------------------------------------ #
    # the degraded fallback (SV005)
    # ------------------------------------------------------------------ #

    def _fallback(
        self,
        req: CompileRequest,
        budget: Any,
        attempts: int,
        crashes: int,
        timeouts: int,
        last_code: Optional[str],
        queue_ms: Optional[float],
    ) -> CompileResponse:
        from repro.core.session import Session, SessionOptions
        from repro.perf.memo import structural_hash
        from repro.resilience.budget import Budget, BudgetExceededError

        reg = obs.default_registry()
        reg.counter("serve.fallback").inc()
        remaining = budget.remaining_ms()
        grace = max(
            remaining if remaining is not None else 0.0,
            self.config.fallback_grace_ms,
        )
        tracer = obs.Tracer()
        note = (
            f"served by the in-process degradation ladder after {attempts} "
            f"worker attempt(s): {crashes} crash(es), {timeouts} timeout(s)"
        )
        try:
            session = Session(
                options=SessionOptions(
                    min_rung=self.config.fallback_min_rung,
                    ladder=req.ladder if req.ladder is not None else self.config.ladder,
                    backend=req.backend if req.backend != "interp" else self.config.backend,
                    prune_edges=req.prune_edges,
                    verify_execution=req.verify_execution,
                    store_path=(
                        req.store_path
                        if req.store_path is not None
                        else self.config.store_path
                    ),
                ),
                budget=Budget(deadline_ms=grace).start(),
                tracer=tracer,
            )
            out = session.fuse_program_resilient(req.source)
        except BudgetExceededError:
            # even the grace budget ran dry (a loaded box, not a property
            # of the program) -- take the cheapest rungs with no clock at
            # all rather than break the "fallback never errors on
            # infrastructure" contract
            reg.counter("serve.fallback.unbudgeted").inc()
            note += "; grace budget exhausted, retried unbudgeted on the conservative ladder"
            try:
                session = Session(
                    options=SessionOptions(
                        min_rung=self.config.fallback_min_rung,
                        ladder="conservative",
                        backend=req.backend if req.backend != "interp" else self.config.backend,
                        prune_edges=req.prune_edges,
                        verify_execution=req.verify_execution,
                        store_path=(
                            req.store_path
                            if req.store_path is not None
                            else self.config.store_path
                        ),
                    ),
                    tracer=tracer,
                )
                out = session.fuse_program_resilient(req.source)
            except Exception as exc:
                return self._finalize(
                    self._fallback_error(req, exc, last_code, tracer, note),
                    attempts, crashes, timeouts, queue_ms,
                )
        except Exception as exc:
            return self._finalize(
                self._fallback_error(req, exc, last_code, tracer, note),
                attempts, crashes, timeouts, queue_ms,
            )
        resp = CompileResponse(
            status="degraded",
            name=req.name,
            request_id=req.request_id,
            rung=out.rung.label,
            parallelism=out.resilient.parallelism.value,
            structural_hash=structural_hash(out.mldg),
            source_digest=req.digest,
            recovery=out.report.to_dict(),
            emitted=out.emitted_code() if req.emit else None,
            notes=[note, *out.notes],
            diagnostics=[d.to_dict() for d in out.diagnostics],
            code=SV005,
            trace_id=tracer.trace_id,
        )
        # same precedence as worker dispatch: explicit request backend
        # wins, else the daemon default; "auto" resolves via the planner
        serve_worker.resolve_backend(
            req.backend if req.backend != "interp" else self.config.backend,
            session, out, resp,
        )
        self._learn_hash(req.digest, resp.structural_hash)
        return self._finalize(resp, attempts, crashes, timeouts, queue_ms)

    @staticmethod
    def _fallback_error(
        req: CompileRequest,
        exc: BaseException,
        last_code: Optional[str],
        tracer: Any,
        note: str,
    ) -> CompileResponse:
        return CompileResponse(
            status="error",
            name=req.name,
            request_id=req.request_id,
            source_digest=req.digest,
            error=error_payload(exc),
            code=last_code,
            trace_id=tracer.trace_id,
            notes=[note],
        )

    @staticmethod
    def _finalize(
        resp: CompileResponse,
        attempts: int,
        crashes: int,
        timeouts: int,
        queue_ms: Optional[float],
    ) -> CompileResponse:
        resp.attempts = attempts
        resp.retries = max(0, attempts - 1)
        resp.worker_crashes = crashes
        resp.timeouts = timeouts
        resp.queue_ms = None if queue_ms is None else round(queue_ms, 3)
        return resp

    # ------------------------------------------------------------------ #
    # workload-class bookkeeping
    # ------------------------------------------------------------------ #

    def _class_key(self, digest: str) -> str:
        with self._alias_lock:
            key = self._hash_by_digest.get(digest)
            if key is None:
                return digest
            self._hash_by_digest.move_to_end(digest)
            return key

    def _learn_hash(self, digest: str, structural: Optional[str]) -> None:
        """Upgrade a digest-keyed class to its rename-invariant structural
        hash the first time a worker reports it (LRU-capped)."""
        if structural is None:
            return
        with self._alias_lock:
            known = self._hash_by_digest.get(digest)
            if known == structural:
                self._hash_by_digest.move_to_end(digest)
                return
            while len(self._hash_by_digest) >= MAX_HASH_ALIASES:
                self._hash_by_digest.popitem(last=False)
            self._hash_by_digest[digest] = structural
        self.breaker.rekey(digest, structural)

    # ------------------------------------------------------------------ #

    def snapshot(self) -> Dict[str, Any]:
        """Operational state for ``/statz`` and the loadgen report."""
        # plan_snapshot's first call imports, and the store stats hold a
        # store handle's lock across sqlite I/O: neither may meet a fork
        with self.supervisor.hold_forks():
            from repro.plan import plan_snapshot

            snap: Dict[str, Any] = {
                "uptimeS": round(time.monotonic() - self._started, 3),
                "workers": self.config.workers,
                "workerRestarts": self.supervisor.restarts,
                "admission": self.admission.snapshot(),
                "breaker": self.breaker.snapshot(),
                "workloadClasses": len(self._hash_by_digest),
                # plan.* counters of *this* process (the fallback path;
                # worker-side plans travel in response envelopes) plus the
                # configured default backend the dispatch stamps
                "plan": {"backend": self.config.backend, **plan_snapshot()},
            }
            if self.config.store_path is not None:
                # file-level stats: entries and storedHits aggregate the whole
                # fleet's traffic (worker-local counters never leave their
                # process, but every hit bumps the row in the shared file)
                from repro.store import open_store

                snap["store"] = open_store(self.config.store_path).stats().to_dict()
            return snap

    def shutdown(self) -> None:
        self.supervisor.shutdown()

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()


def _unused() -> Tuple[str, ...]:  # pragma: no cover - keeps SV00x exported
    return (SV001, SV002, SV003, SV004, SV005, SV006, SV007)
