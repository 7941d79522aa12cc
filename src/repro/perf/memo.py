"""Canonical structural hashing and memo caches for repeated fusion queries.

Fusion is a pure function of MLDG *structure*: two graphs that differ only
in node names (and in the incidental order edges were inserted) have the
same retimings up to the renaming.  :func:`canonical_mldg_key` quotients an
MLDG by exactly that equivalence -- nodes are replaced by their program-order
index and edges are sorted -- so isomorphic-but-relabelled queries share one
cache entry, while anything semantic (dimension, program order, dependence
vector sets) stays in the key.

The **fusion cache** is built on it: it stores whole name-free fusion
outcomes for :func:`repro.fusion.fuse`, which the strict pipeline and the
resilience ladder's rungs both call.

It is bypassed whenever the answer could legitimately differ from the
pure structural query: a *limiting* :class:`~repro.resilience.budget.Budget`
(the caller is probing resource behaviour, and a cache hit consumes no
solver budget) or an active fault injector (the algorithms must see the
corrupted values).  ``REPRO_FUSE_MEMO=0`` disables memoization globally.

The same predicate (:func:`memoization_applicable`) also gates the L2
disk tier (:mod:`repro.store`): when it says no, neither tier is read or
written, so a chaos run can never persist a fault-corrupted retiming.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from typing import Any, Hashable, NamedTuple, Optional, Tuple

from repro.core.context import current_session
from repro.graph.mldg import MLDG
from repro.resilience.budget import Budget

__all__ = [
    "CacheInfo",
    "MemoCache",
    "canonical_mldg_key",
    "structural_hash",
    "fusion_cache",
    "memoization_enabled",
    "memoization_applicable",
    "clear_all_caches",
]

#: Canonical key: (dim, node count, sorted edge tuples over node indices).
CanonicalKey = Tuple[int, int, Tuple[Tuple[int, int, Tuple[Tuple[int, ...], ...]], ...]]


class CacheInfo(NamedTuple):
    """Cache statistics, in the spirit of ``functools.lru_cache``."""

    hits: int
    misses: int
    evictions: int
    currsize: int
    maxsize: int

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "currsize": self.currsize,
            "maxsize": self.maxsize,
            "hitRatio": round(self.hit_ratio, 4),
        }


class MemoCache:
    """A thread-safe LRU cache with hit/miss/eviction accounting.

    ``get`` returns ``None`` on a miss (cached values are never ``None`` by
    construction here) and refreshes recency on a hit; ``put`` evicts the
    least-recently-used entry once ``maxsize`` is exceeded.
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self._maxsize = maxsize
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __getstate__(self) -> dict:
        """Pickle support (``fork``-started workers inherit warm caches;
        ``spawn`` and explicit snapshots pickle them).  The lock is
        process-local and recreated on load; entries and counters travel."""
        with self._lock:
            state = self.__dict__.copy()
            state["_data"] = OrderedDict(self._data)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self._misses += 1
                return None
            self._data.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        if value is None:
            raise ValueError("MemoCache cannot store None (None means 'miss')")
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self._maxsize:
                self._data.popitem(last=False)
                self._evictions += 1

    def cache_info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                currsize=len(self._data),
                maxsize=self._maxsize,
            )

    def clear(self) -> None:
        """Drop all entries and reset the statistics."""
        with self._lock:
            self._data.clear()
            self._hits = self._misses = self._evictions = 0

    def resize(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        with self._lock:
            self._maxsize = maxsize
            while len(self._data) > self._maxsize:
                self._data.popitem(last=False)
                self._evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


# ------------------------------------------------------------------ #
# canonical structural hashing
# ------------------------------------------------------------------ #


def canonical_mldg_key(g: MLDG) -> CanonicalKey:
    """A hashable canonical form of ``g``, invariant under node renaming.

    Nodes are mapped to their program-order index (program order *is*
    semantic: body emission and legality both use it), dependence-vector
    sets are sorted, and the edge list is sorted -- so the key does not
    depend on node names or on the order nodes/edges were added.
    """
    index = {name: k for k, name in enumerate(g.nodes)}
    edges = sorted(
        (index[e.src], index[e.dst], tuple(sorted(tuple(v) for v in e.vectors)))
        for e in g.edges()
    )
    return (g.dim, g.num_nodes, tuple(edges))


def structural_hash(g: MLDG) -> str:
    """A short stable hex digest of :func:`canonical_mldg_key` (for logs/JSON)."""
    return hashlib.sha256(repr(canonical_mldg_key(g)).encode()).hexdigest()[:16]


# ------------------------------------------------------------------ #
# module-level caches and gating
# ------------------------------------------------------------------ #

_FUSION_CACHE = MemoCache(maxsize=256)


def fusion_cache() -> MemoCache:
    """The cache of whole fusion outcomes.

    When a :class:`repro.core.Session` with private caches is active in
    this context, its fusion cache; otherwise the process-wide default.
    """
    session = current_session()
    if session is not None and session.caches.fusion is not None:
        return session.caches.fusion
    return _FUSION_CACHE


def clear_all_caches() -> None:
    """Clear the caches visible from this context (session-scoped ones
    when a session with private caches is active, plus the globals)."""
    fusion_cache().clear()
    _FUSION_CACHE.clear()


def memoization_enabled() -> bool:
    """Global switch: ``REPRO_FUSE_MEMO=0`` (or ``false``/``off``) disables."""
    return os.environ.get("REPRO_FUSE_MEMO", "1").lower() not in ("0", "false", "off")


def memoization_applicable(budget: Optional[Budget]) -> bool:
    """May this query be served from (and inserted into) a cache tier?

    This is the single gate for *both* tiers -- the in-memory fusion cache
    and the disk store (:mod:`repro.store`) -- so no bypass condition can
    ever apply to one tier and not the other.  A *work-limiting* budget
    means the caller is measuring resource consumption -- a cache hit
    would consume none and change observable behaviour (e.g. a
    ``max_relaxation_rounds=0`` probe must still trip).  A deadline-only
    budget does NOT bypass: it is an SLO, and a hit is the best way to
    meet it (serve workers always compile under one).  An active fault
    injector means the algorithms must run on the corrupted inputs -- and,
    just as importantly, that nothing computed under it may be persisted.
    """
    if not memoization_enabled():
        return False
    if budget is not None and budget.is_work_limiting:
        return False
    from repro.resilience.faults import active_fault

    return active_fault() is None
