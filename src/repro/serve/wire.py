"""The ``repro-serve/1`` wire schema.

One request/response envelope pair shared by every transport: the worker
pipes (:mod:`repro.serve.worker` receives the request *dict* and returns
the response *dict* -- both are plain picklable primitives), the HTTP
daemon (:mod:`repro.serve.daemon` serializes the same dicts as JSON) and
:meth:`repro.core.Session.fuse_many` at ``jobs > 1``, which sends each
program to a worker with ``emit`` off.

A malformed request never raises past :meth:`CompileRequest.from_dict`:
it raises :class:`WireError` carrying the ``SV006`` diagnostic code, which
every transport converts into a well-formed error response.  The service
layer's own failure modes carry the other ``SV###`` codes (documented in
docs/DIAGNOSTICS.md):

====== ==========================================================
code   meaning
====== ==========================================================
SV001  a worker process crashed while compiling the request
SV002  the request timed out waiting on (or inside) a worker
SV003  admission control shed the request (quota; Retry-After)
SV004  the workload class's circuit breaker is open (Retry-After)
SV005  the final attempt was served by the in-process degradation
       ladder instead of a worker
SV006  the request envelope was malformed
SV007  the supervisor itself failed (an internal service error --
       the server's fault, HTTP 500)
====== ==========================================================
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.fusion.driver import Strategy
from repro.resilience.report import rung_from_label

__all__ = [
    "SERVE_SCHEMA",
    "SV001",
    "SV002",
    "SV003",
    "SV004",
    "SV005",
    "SV006",
    "SV007",
    "RESPONSE_STATUSES",
    "CompileRequest",
    "CompileResponse",
    "WireError",
    "source_digest",
]

SERVE_SCHEMA = "repro-serve/1"

SV001 = "SV001"  # worker-crashed
SV002 = "SV002"  # request-timeout
SV003 = "SV003"  # request-shed
SV004 = "SV004"  # circuit-open
SV005 = "SV005"  # degraded-fallback
SV006 = "SV006"  # malformed-request
SV007 = "SV007"  # internal-error

#: Every status a response may carry.  ``ok``/``degraded``/``error`` are
#: terminal compile outcomes; ``shed``/``rejected`` are admission/breaker
#: refusals that carry ``retry_after_ms``.
RESPONSE_STATUSES = ("ok", "degraded", "error", "shed", "rejected")

_RUNG_LABELS = ("none", "partition", "legal-only", "hyperplane", "doall")


class WireError(ValueError):
    """A malformed ``repro-serve/1`` envelope (diagnostic code ``SV006``)."""

    code = SV006


def source_digest(source: str) -> str:
    """A short stable digest of the program *text* (pre-parse workload key).

    The circuit breaker prefers the rename-invariant
    :func:`repro.perf.memo.structural_hash` once a worker has reported it;
    this digest is the bootstrap key for programs that never got that far.
    """
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]


def _mint_request_id() -> str:
    return os.urandom(8).hex()


@dataclass
class CompileRequest:
    """One compile request (the unit the supervisor retries).

    ``fault`` is the process-level chaos seam: a spec like
    ``{"injector": "WorkerCrash", "seed": 3}`` that the *worker* honors
    only when it was started with faults allowed (``--chaos`` /
    :func:`repro.serve.worker.serve`).  ``attempt`` is stamped by
    the service before each dispatch so seeded injectors can vary their
    decision across retries (seed + attempt replays exactly).
    """

    source: str
    name: str = "program"
    strategy: str = "auto"
    resilient: bool = False
    min_rung: str = "none"
    deadline_ms: Optional[float] = None
    ladder: Optional[Tuple[str, ...]] = None
    backend: str = "interp"
    prune_edges: bool = True
    verify_execution: bool = True
    emit: bool = True
    fault: Optional[Dict[str, Any]] = None
    attempt: int = 0
    store_path: Optional[str] = None
    request_id: str = field(default_factory=_mint_request_id)

    def __post_init__(self) -> None:
        if not isinstance(self.source, str) or not self.source.strip():
            raise WireError("request 'source' must be non-empty DSL text")
        try:
            Strategy(self.strategy)
        except ValueError:
            raise WireError(
                f"unknown strategy {self.strategy!r}; "
                f"expected one of {[s.value for s in Strategy]}"
            ) from None
        try:
            rung_from_label(self.min_rung)
        except ValueError as exc:
            raise WireError(str(exc)) from None
        if self.ladder is not None:
            self.ladder = tuple(self.ladder)
            bad = [r for r in self.ladder if r not in _RUNG_LABELS]
            if bad:
                raise WireError(f"unknown ladder rungs {bad!r}")
        from repro.core.backends import backend_names, selectable_backends

        if self.backend not in selectable_backends():
            raise WireError(
                f"unknown execution backend {self.backend!r}; "
                f"known: {list(backend_names()) + ['auto']}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise WireError("'deadlineMs' must be positive")
        if self.fault is not None and not isinstance(self.fault, dict):
            raise WireError("'fault' must be an object like {'injector': ..., 'seed': ...}")
        if self.store_path is not None and (
            not isinstance(self.store_path, str) or not self.store_path.strip()
        ):
            raise WireError("'storePath' must be a non-empty path string")

    @property
    def digest(self) -> str:
        return source_digest(self.source)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SERVE_SCHEMA,
            "requestId": self.request_id,
            "name": self.name,
            "source": self.source,
            "strategy": self.strategy,
            "resilient": self.resilient,
            "minRung": self.min_rung,
            "deadlineMs": self.deadline_ms,
            "ladder": list(self.ladder) if self.ladder is not None else None,
            "backend": self.backend,
            "pruneEdges": self.prune_edges,
            "verifyExecution": self.verify_execution,
            "emit": self.emit,
            "fault": self.fault,
            "attempt": self.attempt,
            "storePath": self.store_path,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "CompileRequest":
        if not isinstance(data, dict):
            raise WireError(
                f"request must be a JSON object, got {type(data).__name__}"
            )
        schema = data.get("schema", SERVE_SCHEMA)
        if schema != SERVE_SCHEMA:
            raise WireError(
                f"unsupported schema {schema!r}; this server speaks {SERVE_SCHEMA}"
            )
        if "source" not in data:
            raise WireError("request is missing 'source'")
        ladder = data.get("ladder")
        try:
            return cls(
                source=data["source"],
                name=str(data.get("name", "program")),
                strategy=str(data.get("strategy", "auto")),
                resilient=bool(data.get("resilient", False)),
                min_rung=str(data.get("minRung", "none")),
                deadline_ms=_opt_number(data, "deadlineMs"),
                ladder=tuple(ladder) if ladder is not None else None,
                backend=str(data.get("backend", "interp")),
                prune_edges=bool(data.get("pruneEdges", True)),
                verify_execution=bool(data.get("verifyExecution", True)),
                emit=bool(data.get("emit", True)),
                fault=data.get("fault"),
                attempt=int(data.get("attempt", 0)),
                store_path=data.get("storePath"),
                request_id=str(data.get("requestId") or _mint_request_id()),
            )
        except WireError:
            raise
        except (TypeError, ValueError) as exc:
            raise WireError(f"malformed request field: {exc}") from exc


def _opt_number(data: Dict[str, Any], key: str) -> Optional[float]:
    value = data.get(key)
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise WireError(f"{key!r} must be a number, got {value!r}")
    return float(value)


@dataclass
class CompileResponse:
    """One compile response -- always well-formed, whatever happened.

    ``status`` contract (the acceptance invariant): every request gets
    exactly one of

    * ``ok`` -- a worker compiled it through the requested pipeline;
    * ``degraded`` -- the supervisor's final-attempt fallback served it
      through the in-process resilience ladder (``code`` = ``SV005``,
      ``recovery`` carries the :class:`RecoveryReport` dict);
    * ``error`` -- a typed compile error (parse/validation/fusion/budget),
      never retried because it is deterministic;
    * ``shed`` / ``rejected`` -- admission control or the circuit breaker
      refused it (``retry_after_ms`` says when to come back).
    """

    status: str
    name: str = "program"
    request_id: str = ""
    strategy: Optional[str] = None
    parallelism: Optional[str] = None
    rung: Optional[str] = None
    structural_hash: Optional[str] = None
    source_digest: Optional[str] = None
    retiming: Optional[Dict[str, List[int]]] = None
    emitted: Optional[str] = None
    recovery: Optional[Dict[str, Any]] = None
    notes: List[str] = field(default_factory=list)
    diagnostics: List[Dict[str, Any]] = field(default_factory=list)
    error: Optional[Dict[str, Any]] = None
    code: Optional[str] = None
    trace_id: Optional[str] = None
    worker_pid: Optional[int] = None
    worker_ms: Optional[float] = None
    attempts: int = 0
    retries: int = 0
    worker_crashes: int = 0
    timeouts: int = 0
    queue_ms: Optional[float] = None
    total_ms: Optional[float] = None
    retry_after_ms: Optional[float] = None
    #: Concrete execution backend this compile was served under.  When the
    #: request (or the daemon default) said ``"auto"``, the worker resolves
    #: it through the execution planner and echoes the choice here; for
    #: explicit requests it echoes the request verbatim.
    backend: Optional[str] = None
    #: ``ExecutionPlan.to_dict()`` of the planner decision, only present
    #: when the backend was resolved from ``"auto"``.
    plan: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.status not in RESPONSE_STATUSES:
            raise WireError(
                f"unknown response status {self.status!r}; "
                f"expected one of {RESPONSE_STATUSES}"
            )

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "degraded")

    @property
    def well_formed(self) -> bool:
        """The acceptance-criteria predicate: a terminal outcome with the
        artifacts its status promises."""
        if self.status == "ok":
            return self.rung is not None or self.strategy is not None
        if self.status == "degraded":
            return self.rung is not None and self.recovery is not None
        if self.status == "error":
            return self.error is not None and "type" in self.error
        return self.retry_after_ms is not None  # shed / rejected

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "schema": SERVE_SCHEMA,
            "status": self.status,
            "name": self.name,
            "requestId": self.request_id,
            "strategy": self.strategy,
            "parallelism": self.parallelism,
            "rung": self.rung,
            "structuralHash": self.structural_hash,
            "sourceDigest": self.source_digest,
            "retiming": self.retiming,
            "emitted": self.emitted,
            "recovery": self.recovery,
            "notes": list(self.notes),
            "diagnostics": list(self.diagnostics),
            "error": self.error,
            "code": self.code,
            "traceId": self.trace_id,
            "workerPid": self.worker_pid,
            "workerMs": self.worker_ms,
            "attempts": self.attempts,
            "retries": self.retries,
            "workerCrashes": self.worker_crashes,
            "timeouts": self.timeouts,
            "queueMs": self.queue_ms,
            "totalMs": self.total_ms,
            "retryAfterMs": self.retry_after_ms,
            "backend": self.backend,
            "plan": self.plan,
        }
        return out

    @classmethod
    def from_dict(cls, data: Any) -> "CompileResponse":
        if not isinstance(data, dict):
            raise WireError(
                f"response must be a JSON object, got {type(data).__name__}"
            )
        if "status" not in data:
            raise WireError("response is missing 'status'")
        return cls(
            status=data["status"],
            name=str(data.get("name", "program")),
            request_id=str(data.get("requestId", "")),
            strategy=data.get("strategy"),
            parallelism=data.get("parallelism"),
            rung=data.get("rung"),
            structural_hash=data.get("structuralHash"),
            source_digest=data.get("sourceDigest"),
            retiming=data.get("retiming"),
            emitted=data.get("emitted"),
            recovery=data.get("recovery"),
            notes=list(data.get("notes") or []),
            diagnostics=list(data.get("diagnostics") or []),
            error=data.get("error"),
            code=data.get("code"),
            trace_id=data.get("traceId"),
            worker_pid=data.get("workerPid"),
            worker_ms=data.get("workerMs"),
            attempts=int(data.get("attempts", 0)),
            retries=int(data.get("retries", 0)),
            worker_crashes=int(data.get("workerCrashes", 0)),
            timeouts=int(data.get("timeouts", 0)),
            queue_ms=data.get("queueMs"),
            total_ms=data.get("totalMs"),
            retry_after_ms=data.get("retryAfterMs"),
            backend=data.get("backend"),
            plan=data.get("plan"),
        )


def error_payload(exc: BaseException) -> Dict[str, Any]:
    """A JSON-safe error dict that survives hostile ``__str__``/attributes."""
    try:
        message = str(exc)
    except Exception:
        message = f"<unprintable {type(exc).__name__}>"
    try:
        diagnostics = [d.to_dict() for d in getattr(exc, "diagnostics", None) or []]
    except Exception:
        diagnostics = []
    return {"type": type(exc).__name__, "message": message, "diagnostics": diagnostics}


__all__.append("error_payload")


def request_from_program(
    name: str,
    source: str,
    *,
    strategy: str = "auto",
    resilient: bool = False,
    min_rung: str = "none",
    deadline_ms: Optional[float] = None,
    ladder: Optional[Sequence[str]] = None,
    backend: str = "interp",
    prune_edges: bool = True,
    verify_execution: bool = True,
    fault: Optional[Dict[str, Any]] = None,
    store_path: Optional[str] = None,
) -> CompileRequest:
    """Convenience constructor used by loadgen and test call sites."""
    return CompileRequest(
        source=source,
        name=name,
        strategy=strategy,
        resilient=resilient,
        min_rung=min_rung,
        deadline_ms=deadline_ms,
        ladder=tuple(ladder) if ladder is not None else None,
        backend=backend,
        prune_edges=prune_edges,
        verify_execution=verify_execution,
        fault=fault,
        store_path=store_path,
    )


__all__.append("request_from_program")
