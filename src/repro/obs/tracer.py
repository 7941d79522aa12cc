"""Nested, thread-safe tracing spans.

A :class:`Span` measures one named region of work: wall-clock time
(``time.perf_counter``), CPU time (``time.thread_time`` where available),
free-form attributes, and a link to its parent span.  A :class:`Tracer`
collects spans; nesting is tracked per thread, so spans opened on a worker
thread attach to whatever parent the caller passed explicitly (worker
threads have no ambient stack of their own).

The **default tracer is a no-op** (:data:`NOOP_TRACER`): every
instrumented path in the library calls :func:`trace_span`, which costs one
attribute read and one reusable context manager when tracing is off --
results are bit-identical either way, because spans only *observe*.
Activate collection with :func:`tracing`::

    with tracing() as tracer:
        fuse(g)
    print(render_trace(tracer, "text"))

Span trees are deterministic by construction for a fixed workload: span
names, nesting and counts depend only on the work performed, never on
thread interleaving (span *ordering* in the flat list may vary, which is
why comparisons go through :func:`tree_shape`, a canonical sorted form).
Spans whose *multiplicity* legitimately varies with the problem size
(per-wavefront execution detail) are flagged ``detail=True`` and
excluded from the default shape.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from types import TracebackType
from typing import Any, ContextManager, Dict, Iterator, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Span",
    "NoopSpan",
    "Tracer",
    "NoopTracer",
    "NOOP_TRACER",
    "SpanLike",
    "TracerLike",
    "current_tracer",
    "overriding_tracer",
    "set_tracer",
    "tracing",
    "trace_span",
    "tree_shape",
]

#: Canonical span-tree shape: ``(name, sorted child shapes)``, recursively.
Shape = Tuple[str, Tuple["Shape", ...]]


def _thread_cpu() -> float:
    """Per-thread CPU seconds (falls back to process CPU where unsupported)."""
    try:
        return time.thread_time()
    except (AttributeError, OSError):  # pragma: no cover - non-POSIX fallback
        return time.process_time()


@dataclass
class Span:
    """One timed, attributed region of work.

    ``detail`` marks execution-detail spans (per-wavefront) whose count
    legitimately depends on the problem size; they are excluded from the
    deterministic tree skeleton (:func:`tree_shape`).
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    start_wall: float
    start_cpu: float
    thread_id: int
    end_wall: Optional[float] = None
    end_cpu: Optional[float] = None
    attributes: Dict[str, Any] = field(default_factory=dict)
    detail: bool = False

    @property
    def wall_s(self) -> float:
        """Wall-clock duration in seconds (0.0 while the span is open)."""
        return (self.end_wall - self.start_wall) if self.end_wall is not None else 0.0

    @property
    def cpu_s(self) -> float:
        """CPU duration in seconds (0.0 while the span is open)."""
        return (self.end_cpu - self.start_cpu) if self.end_cpu is not None else 0.0

    def set(self, **attributes: Any) -> "Span":
        """Attach (or overwrite) attributes; chainable."""
        self.attributes.update(attributes)
        return self


class NoopSpan:
    """The do-nothing span every no-op ``trace_span`` yields (a singleton)."""

    __slots__ = ()

    def set(self, **attributes: Any) -> "NoopSpan":
        return self


NOOP_SPAN = NoopSpan()

SpanLike = Union[Span, NoopSpan]


class _NoopContext:
    """A reusable context manager yielding :data:`NOOP_SPAN` (zero allocation)."""

    __slots__ = ()

    def __enter__(self) -> NoopSpan:
        return NOOP_SPAN

    def __exit__(
        self,
        exc_type: Optional[type],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        return False


_NOOP_CM = _NoopContext()


class Tracer:
    """Collects nested spans, thread-safely.

    Per-thread nesting: each thread keeps its own stack of open spans, and
    a span opened with no explicit ``parent`` attaches to the top of the
    opening thread's stack.  Work fanned out to pool workers passes the
    submitting span explicitly (``parent=``) so cross-thread children land
    in the right subtree.
    """

    active = True

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id or os.urandom(8).hex()
        self.epoch_wall = time.perf_counter()
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._next_id = 1
        self._local = threading.local()

    # -- span lifecycle --------------------------------------------- #

    def _stack(self) -> List[Span]:
        stack: Optional[List[Span]] = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @contextmanager
    def _span_cm(
        self, name: str, parent: Optional[SpanLike], detail: bool, attributes: Dict[str, Any]
    ) -> Iterator[Span]:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        parent_id = parent.span_id if isinstance(parent, Span) else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            span = Span(
                name=name,
                span_id=span_id,
                parent_id=parent_id,
                start_wall=time.perf_counter(),
                start_cpu=_thread_cpu(),
                thread_id=threading.get_ident(),
                attributes=attributes,
                detail=detail,
            )
            self._spans.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            span.end_wall = time.perf_counter()
            span.end_cpu = _thread_cpu()

    def span(
        self,
        name: str,
        *,
        parent: Optional[SpanLike] = None,
        detail: bool = False,
        **attributes: Any,
    ) -> ContextManager[SpanLike]:
        """Open a span; use as ``with tracer.span("fuse") as sp: ...``."""
        return self._span_cm(name, parent, detail, dict(attributes))

    # -- introspection ---------------------------------------------- #

    def spans(self) -> List[Span]:
        """A snapshot of every span recorded so far (start order)."""
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


class NoopTracer:
    """The overhead-free default: records nothing, yields :data:`NOOP_SPAN`."""

    active = False
    trace_id: Optional[str] = None
    epoch_wall = 0.0

    def span(
        self,
        name: str,
        *,
        parent: Optional[SpanLike] = None,
        detail: bool = False,
        **attributes: Any,
    ) -> ContextManager[SpanLike]:
        return _NOOP_CM

    def spans(self) -> List[Span]:
        return []

    def __len__(self) -> int:
        return 0


NOOP_TRACER = NoopTracer()

TracerLike = Union[Tracer, NoopTracer]

_active_tracer: TracerLike = NOOP_TRACER
_active_lock = threading.Lock()

#: Context-local override consulted before the process-wide tracer, so a
#: :class:`repro.core.Session` (or a batch worker compiling one program)
#: can scope its tracer without touching other threads' tracing.
_tracer_override: "ContextVar[Optional[TracerLike]]" = ContextVar(
    "repro_tracer_override", default=None
)


def current_tracer() -> TracerLike:
    """The active tracer: the context-local override when one is set
    (session-scoped tracing), else the process-wide tracer
    (:data:`NOOP_TRACER` by default)."""
    override = _tracer_override.get()
    return override if override is not None else _active_tracer


@contextmanager
def overriding_tracer(tracer: TracerLike) -> Iterator[TracerLike]:
    """Route this context's spans to ``tracer`` (other threads unaffected).

    Unlike :func:`tracing`/:func:`set_tracer`, which swap the process-wide
    tracer, the override is a :class:`contextvars.ContextVar`: concurrent
    sessions in different threads each see only their own tracer, and a
    fresh worker thread starts with no override.
    """
    token = _tracer_override.set(tracer)
    try:
        yield tracer
    finally:
        _tracer_override.reset(token)


def set_tracer(tracer: TracerLike) -> TracerLike:
    """Install ``tracer`` as the active tracer; returns the previous one."""
    global _active_tracer
    with _active_lock:
        previous = _active_tracer
        _active_tracer = tracer
    return previous


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Activate a (fresh, unless given) :class:`Tracer` for the block."""
    t = tracer if tracer is not None else Tracer()
    previous = set_tracer(t)
    try:
        yield t
    finally:
        set_tracer(previous)


def trace_span(
    name: str,
    *,
    parent: Optional[SpanLike] = None,
    detail: bool = False,
    **attributes: Any,
) -> ContextManager[SpanLike]:
    """Open a span on whatever tracer is active (no-op by default).

    This is the library-internal instrumentation entry point: when no
    tracer is active it returns a shared no-op context manager, so the
    instrumented hot paths stay overhead-free and bit-identical.
    """
    return current_tracer().span(name, parent=parent, detail=detail, **attributes)


def tree_shape(
    spans: Union[TracerLike, Sequence[Span]], *, include_detail: bool = False
) -> Tuple[Shape, ...]:
    """The canonical shape of a span forest: names, nesting and counts.

    Timestamps, attributes and sibling *ordering* are excluded (children
    are sorted), so two runs of the same workload compare equal regardless
    of thread interleaving.  ``detail`` spans -- whose multiplicity depends
    on the problem size -- are excluded unless ``include_detail``; with
    them included the shape additionally pins the exact wavefront count
    of one size.
    """
    span_list = spans.spans() if isinstance(spans, (Tracer, NoopTracer)) else list(spans)
    kept = [s for s in span_list if include_detail or not s.detail]
    kept_ids = {s.span_id for s in kept}
    children: Dict[Optional[int], List[Span]] = {}
    for s in kept:
        parent = s.parent_id if s.parent_id in kept_ids else None
        children.setdefault(parent, []).append(s)

    def build(span: Span) -> Shape:
        subs = tuple(sorted(build(c) for c in children.get(span.span_id, [])))
        return (span.name, subs)

    return tuple(sorted(build(r) for r in children.get(None, [])))
