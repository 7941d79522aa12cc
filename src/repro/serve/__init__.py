"""repro.serve -- the fault-tolerant process-sharded compilation service.

The paper's polynomial-time guarantee makes per-request compile cost
bounded and predictable, which is what makes a *service* with enforceable
deadlines feasible.  This package is the cross-process robustness layer on
top of :mod:`repro.core`'s batch compilation (docs/SERVING.md):

* **wire** -- the ``repro-serve/1`` JSON request/response envelopes
  (picklable, so the same shapes ride the worker pipes and HTTP).
* **worker** -- the loop executed inside worker processes, plus the
  process-level chaos seam (seeded worker SIGKILL / hang injection).
* **supervisor** -- :class:`Supervisor`, N owned worker processes with
  one pipe and one request each; a dead or hung worker is SIGKILLed and
  replaced alone, so a fault costs only the request that was on it.
* **admission** -- inflight quotas with load shedding (typed 429-style
  rejections carrying ``Retry-After`` estimates).
* **breaker** -- per-workload-class circuit breakers keyed by
  ``structural_hash`` so one pathological program cannot burn the workers.
* **service** -- :class:`CompileService`: retry + exponential backoff +
  jitter per request, degrading onto the in-process resilience ladder on
  the final attempt instead of erroring.
* **daemon** -- the stdlib ``http.server`` front end (``repro-fuse serve``).
* **loadgen** -- the load-generator benchmark (``repro-fuse loadgen``)
  writing ``BENCH_serve.json``.
"""

from repro.serve.admission import AdmissionController
from repro.serve.breaker import BreakerState, CircuitBreaker
from repro.serve.service import CompileService, ServeConfig
from repro.serve.supervisor import Supervisor
from repro.serve.wire import (
    SERVE_SCHEMA,
    SV001,
    SV002,
    SV003,
    SV004,
    SV005,
    SV006,
    CompileRequest,
    CompileResponse,
    WireError,
)

__all__ = [
    "SERVE_SCHEMA",
    "SV001",
    "SV002",
    "SV003",
    "SV004",
    "SV005",
    "SV006",
    "AdmissionController",
    "BreakerState",
    "CircuitBreaker",
    "CompileRequest",
    "CompileResponse",
    "CompileService",
    "ServeConfig",
    "Supervisor",
    "WireError",
]
