"""The benchmark's own span recorder.

It lives here rather than in ``repro.obs`` so that later changes to the
program's observability layer cannot move the ruler: spans are opened by
the benchmark around its calls into each layer, kept in memory, and
written out as one Chrome trace (``chrome://tracing`` / Perfetto JSON)
when the workload ends.

A span's *self time* is its duration minus the part covered by its child
spans, so the self times of every span under a root sum exactly to the
root's wall time.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Spans kept for the Chrome trace file; self-time totals keep counting
#: past this, only the event list stops growing.
MAX_EVENTS = 50_000


class SpanRecorder:
    """Thread-aware nested spans with per-name self-time totals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._origin_ns = time.perf_counter_ns()
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.wall_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.events: List[Dict[str, Any]] = []
        self.dropped = 0

    def _stack(self) -> List[List[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[Dict[str, Any]]:
        """Time the block as ``name``; yields a dict the caller may fill
        with extra arguments for the trace event."""
        stack = self._stack()
        frame = [0]  # nanoseconds covered by child spans
        stack.append(frame)
        extra: Dict[str, Any] = dict(args)
        start = time.perf_counter_ns()
        try:
            yield extra
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            dur = end - start
            if stack:
                stack[-1][0] += dur
            self._finish(name, start, dur, dur - frame[0], extra)

    def add(self, name: str, start_ns: int, dur_ns: int, **args: Any) -> None:
        """Record a span measured elsewhere (no children)."""
        self._finish(name, start_ns, dur_ns, dur_ns, dict(args))

    def _finish(
        self, name: str, start: int, dur: int, self_ns: int, args: Dict[str, Any]
    ) -> None:
        with self._lock:
            self.self_ns[name] += self_ns
            self.wall_ns[name] += dur
            self.calls[name] += 1
            if len(self.events) < MAX_EVENTS:
                event: Dict[str, Any] = {
                    "name": name,
                    "ph": "X",
                    "ts": (start - self._origin_ns) / 1000.0,
                    "dur": dur / 1000.0,
                    "pid": os.getpid(),
                    "tid": threading.get_ident(),
                }
                if args:
                    event["args"] = args
                self.events.append(event)
            else:
                self.dropped += 1

    def self_ms(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e6

    def wall_ms(self, name: str) -> float:
        return self.wall_ns.get(name, 0) / 1e6

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (calls, wall ms, self ms)``."""
        return {
            name: (self.calls[name], self.wall_ms(name), self.self_ms(name))
            for name in sorted(self.calls)
        }

    def write_chrome(self, path: str, metadata: Optional[Dict[str, Any]] = None) -> None:
        doc = {
            "traceEvents": self.events,
            "displayTimeUnit": "ms",
            "otherData": {**(metadata or {}), "droppedEvents": self.dropped},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
