"""The planner's per-program decision memo.

The stage-mix rule (:func:`repro.plan.planner.choose_backend`) needs the
staged lowering of the fused body, and building that is the only costly
step of a decision.  A fused program is immutable, so its decision never
changes: the memo keeps it per program object.

Entries are keyed on ``(id(fp), schedule, is_doall)`` and hold a weak
reference to the program, so a recycled ``id`` of a dead program can
never answer for a new one -- a hit requires the very same live object.
The table is bounded (least recently used entries go first) and honours
``REPRO_FUSE_MEMO=0`` like every other cache.  Clearing it is a real cold
start for the planner.  The module keeps its historical name because
:func:`memory_profiles` is how callers reach the memo.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Any, Hashable, Optional, Tuple

__all__ = ["DecisionMemo", "memory_profiles"]

#: ``(backend, rationale)`` as returned by the rule.
Decision = Tuple[str, str]


class DecisionMemo:
    """A bounded, thread-safe memo of the rule's per-program decisions."""

    def __init__(self, maxsize: int = 256) -> None:
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[int, Hashable, bool], Tuple[Any, Decision]]" = (
            OrderedDict()
        )

    def get(self, fp: Any, schedule: Hashable, is_doall: bool) -> Optional[Decision]:
        key = (id(fp), schedule, is_doall)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry[0]() is not fp:
                return None
            self._entries.move_to_end(key)
            return entry[1]

    def put(self, fp: Any, schedule: Hashable, is_doall: bool, decision: Decision) -> None:
        try:
            ref = weakref.ref(fp)
        except TypeError:
            return  # not weak-referenceable: never memoized, always re-derived
        key = (id(fp), schedule, is_doall)
        with self._lock:
            self._entries[key] = (ref, decision)
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_MEMO = DecisionMemo()


def memory_profiles() -> DecisionMemo:
    """The process-wide decision memo."""
    return _MEMO
