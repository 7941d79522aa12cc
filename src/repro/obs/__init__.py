"""repro.obs -- tracing, metrics and profiling across the fusion pipeline.

A zero-dependency observability layer (docs/OBSERVABILITY.md):

* **Tracing** (:mod:`repro.obs.tracer`): nested, thread-safe spans with
  wall and CPU time, attributes and parent links.  Off by default -- the
  instrumented paths go through a shared no-op context manager and stay
  overhead-free and bit-identical.  Activate with :func:`tracing`.
* **Metrics** (:mod:`repro.obs.metrics`): counters, gauges and histograms
  in a process-wide default registry, always on, injectable and
  resettable (:func:`use_registry`) for tests.
* **Exporters** (:mod:`repro.obs.export`): text tree, JSON
  (schema ``repro-trace/1``) and Chrome ``chrome://tracing`` events.
* **Bridges** (:mod:`repro.obs.bridge`): cache-statistics snapshots and
  the ``repro-fuse stats`` document (schema ``repro-stats/1``).

The instrumented layers: ``fuse()``/``fuse_program()`` strategy selection,
every resilience ladder rung (``resilience.rung.*`` spans + ``RS###``
diagnostic counters), both Bellman-Ford solvers (relaxation rounds and
worklist pops as counters), the fusion/retiming/kernel memo caches
(hit/miss counters at the call sites), the execution planner
(``plan.select`` spans and ``plan.*`` counters) and the execution
backends (per-run spans; per-wavefront ``detail`` spans in numpy
kernels).
"""

from repro.obs.bridge import (
    STATS_SCHEMA,
    cache_snapshot,
    render_stats_text,
    snapshot_caches,
    stats_document,
)
from repro.obs.export import (
    TRACE_FORMATS,
    TRACE_SCHEMA,
    render_trace,
    render_trace_chrome,
    render_trace_json,
    render_trace_text,
    trace_to_dict,
    write_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    default_registry,
    gauge,
    histogram,
    overriding_registry,
    set_default_registry,
    use_registry,
)
from repro.obs.tracer import (
    NOOP_TRACER,
    NoopSpan,
    NoopTracer,
    Span,
    Tracer,
    current_tracer,
    overriding_tracer,
    set_tracer,
    trace_span,
    tracing,
    tree_shape,
)

__all__ = [
    # tracer
    "Span",
    "NoopSpan",
    "Tracer",
    "NoopTracer",
    "NOOP_TRACER",
    "current_tracer",
    "overriding_tracer",
    "set_tracer",
    "tracing",
    "trace_span",
    "tree_shape",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "overriding_registry",
    "set_default_registry",
    "use_registry",
    "counter",
    "gauge",
    "histogram",
    # export
    "TRACE_SCHEMA",
    "TRACE_FORMATS",
    "trace_to_dict",
    "render_trace",
    "render_trace_text",
    "render_trace_json",
    "render_trace_chrome",
    "write_trace",
    # bridge
    "STATS_SCHEMA",
    "cache_snapshot",
    "snapshot_caches",
    "stats_document",
    "render_stats_text",
]
