"""The L2 disk tier: a sqlite-backed, process-safe compilation cache.

One :class:`CompileStore` is one sqlite file in WAL mode.  Many processes
(serve workers, ``fuse_many`` children, successive CLI runs) open the same
path independently and share rows; sqlite's own locking serialises writers
and WAL keeps readers unblocked.  The design constraints, in order:

1. **Never wrong.**  Rows are *candidates*, not answers: the integration
   layer re-verifies every hit through the normal rehydrate path before
   returning it, and calls :meth:`CompileStore.demote` when verification
   fails.  Inside the store, every row carries a checksum and a payload
   schema stamp; anything that fails to round-trip is deleted and reported
   as a miss.
2. **Never raise.**  A cache must not take the compiler down.  All sqlite
   errors are caught: operational hiccups (locked, disk I/O) degrade the
   single call to a miss, while structural corruption (truncated or
   garbage file, foreign schema) disables this handle entirely -- every
   later call is a cheap miss.  Counters (``store.*``) record each path.
3. **Bounded.**  Write-through inserts enforce entry-count and
   payload-byte caps by least-recently-*used* eviction, so a long-lived
   daemon's store cannot grow without bound.

Fork safety: connections are opened lazily and re-opened when the pid
changes, so a store handle created before ``fork`` (e.g. held by a serve
pool parent) never shares a sqlite connection with its children.  A
worker crash mid-write is safe by sqlite's WAL journaling -- the
transaction simply never commits.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.store.fingerprint import PAYLOAD_SCHEMA, STORE_SCHEMA_VERSION

__all__ = ["CompileStore", "StoreStats", "DEFAULT_MAX_ENTRIES", "DEFAULT_MAX_BYTES"]

DEFAULT_MAX_ENTRIES = 4096
DEFAULT_MAX_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class StoreStats:
    """A point-in-time view of one store file plus this handle's counters.

    ``hits``/``misses``/... are *this handle's* (process-local) traffic;
    ``stored_hits`` is the SUM of per-row hit counts in the file itself and
    is therefore visible across processes -- it is how a daemon parent
    observes warm hits taken inside its worker children.
    """

    path: str
    entries: int
    size_bytes: int
    payload_bytes: int
    stored_hits: int
    fingerprints: int
    schema_version: Optional[int]
    max_entries: int
    max_bytes: int
    hits: int
    misses: int
    puts: int
    evictions: int
    disabled: bool

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        # keys hits/misses/evictions/currsize mirror CacheInfo.to_dict so
        # obs.snapshot_caches can treat every tier uniformly
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "currsize": self.entries,
            "maxsize": self.max_entries,
            "hitRatio": round(self.hit_ratio, 4),
            "puts": self.puts,
            "path": self.path,
            "sizeBytes": self.size_bytes,
            "payloadBytes": self.payload_bytes,
            "maxBytes": self.max_bytes,
            "storedHits": self.stored_hits,
            "fingerprints": self.fingerprints,
            "schemaVersion": self.schema_version,
            "disabled": self.disabled,
        }


_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS entries (
    skey        TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    payload     TEXT NOT NULL,
    checksum    TEXT NOT NULL,
    created_s   REAL NOT NULL,
    last_used_s REAL NOT NULL,
    hits        INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (skey, fingerprint)
);
CREATE INDEX IF NOT EXISTS entries_lru ON entries (last_used_s);
"""


def _checksum(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class CompileStore:
    """One handle on one sqlite cache file (see module docstring).

    Handles are thread-safe (one connection guarded by a lock; WAL makes
    cross-process access safe) and picklable: the connection and lock are
    dropped on pickle and lazily rebuilt in the receiving process.
    """

    def __init__(
        self,
        path: str,
        *,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        if max_entries < 1:
            raise ValueError("store max_entries must be >= 1")
        if max_bytes < 1:
            raise ValueError("store max_bytes must be >= 1")
        self.path = os.path.abspath(path)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._conn: Optional[sqlite3.Connection] = None
        self._pid: Optional[int] = None
        self._lock = threading.RLock()
        self._disabled = False
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._evictions = 0

    # -------------------------------------------------------------- #
    # pickling / forking
    # -------------------------------------------------------------- #

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state["_conn"] = None
        state["_pid"] = None
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # -------------------------------------------------------------- #
    # connection management
    # -------------------------------------------------------------- #

    def _connection(self) -> Optional[sqlite3.Connection]:
        """The live connection for *this* process, or ``None`` if disabled.

        Must be called (and the returned connection used) under ``_lock``.
        """
        if self._disabled:
            return None
        pid = os.getpid()
        if self._conn is not None and self._pid == pid:
            return self._conn
        if self._conn is not None:
            # inherited across fork: do not touch the parent's connection
            # state beyond dropping our reference to it
            self._conn = None
        try:
            conn = sqlite3.connect(
                self.path,
                timeout=5.0,
                isolation_level=None,  # autocommit; explicit txns where needed
                check_same_thread=False,
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=5000")
            self._ensure_schema(conn)
        except sqlite3.Error as exc:
            self._note_error(exc)
            return None
        if self._disabled:  # foreign (newer) schema found by _ensure_schema
            conn.close()
            return None
        self._conn = conn
        self._pid = pid
        return conn

    def _ensure_schema(self, conn: sqlite3.Connection) -> None:
        row = None
        try:
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
        except sqlite3.OperationalError:
            pass  # fresh file: meta does not exist yet
        if row is not None:
            try:
                found = int(row[0])
            except (TypeError, ValueError):
                found = -1
            if found == STORE_SCHEMA_VERSION:
                # same version: still apply the (idempotent) DDL, so files
                # written before an additive table existed gain it on open
                conn.executescript(_SCHEMA_SQL)
                return
            if found > STORE_SCHEMA_VERSION:
                # a newer writer owns this file; leave it alone entirely
                obs.default_registry().counter("store.schema_mismatch").inc()
                self._disabled = True
                return
            # older (or unreadable) schema: it is a cache, wipe and rebuild
            # (schema 1 files also carry a ``profiles`` table of execution
            # timings, which nothing reads any more)
            obs.default_registry().counter("store.schema_mismatch").inc()
            conn.executescript(
                "DROP TABLE IF EXISTS entries; DROP TABLE IF EXISTS profiles;"
                " DROP TABLE IF EXISTS meta;"
            )
        conn.executescript(_SCHEMA_SQL)
        conn.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES ('schema_version', ?)",
            (str(STORE_SCHEMA_VERSION),),
        )

    def _note_error(self, exc: sqlite3.Error) -> None:
        """Record a sqlite failure and decide whether this handle survives.

        Operational noise (locked database, transient I/O) costs one miss;
        structural corruption (``file is not a database``, malformed pages)
        disables the handle so every later call is a cheap miss.
        """
        reg = obs.default_registry()
        reg.counter("store.errors").inc()
        if isinstance(exc, sqlite3.DatabaseError) and not isinstance(
            exc, sqlite3.OperationalError
        ):
            reg.counter("store.corrupt").inc()
            self._disabled = True
            if self._conn is not None:
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
                self._conn = None

    @property
    def disabled(self) -> bool:
        return self._disabled

    def close(self) -> None:
        with self._lock:
            if self._conn is not None and self._pid == os.getpid():
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
            self._conn = None
            self._pid = None

    # -------------------------------------------------------------- #
    # the cache protocol: get / put / demote
    # -------------------------------------------------------------- #

    def get(self, skey: str, fingerprint: str) -> Optional[Any]:
        """The decoded payload for ``(skey, fingerprint)``, or ``None``.

        A hit bumps the row's recency and persistent hit count.  Rows that
        fail the checksum or payload-schema check are deleted and counted
        under ``store.corrupt``; sqlite failures degrade to a miss.
        """
        reg = obs.default_registry()
        with obs.trace_span("store.get", key=skey), self._lock:
            conn = self._connection()
            if conn is None:
                self._misses += 1
                reg.counter("store.misses").inc()
                return None
            try:
                row = conn.execute(
                    "SELECT payload, checksum FROM entries"
                    " WHERE skey = ? AND fingerprint = ?",
                    (skey, fingerprint),
                ).fetchone()
                if row is None:
                    self._misses += 1
                    reg.counter("store.misses").inc()
                    return None
                payload_text, checksum = row
                value = self._decode(payload_text, checksum)
                if value is None:
                    conn.execute(
                        "DELETE FROM entries WHERE skey = ? AND fingerprint = ?",
                        (skey, fingerprint),
                    )
                    reg.counter("store.corrupt").inc()
                    self._misses += 1
                    reg.counter("store.misses").inc()
                    return None
                conn.execute(
                    "UPDATE entries SET last_used_s = ?, hits = hits + 1"
                    " WHERE skey = ? AND fingerprint = ?",
                    (time.time(), skey, fingerprint),
                )
                self._hits += 1
                reg.counter("store.hits").inc()
                return value
            except sqlite3.Error as exc:
                self._note_error(exc)
                self._misses += 1
                reg.counter("store.misses").inc()
                return None

    def put(self, skey: str, fingerprint: str, value: Any) -> bool:
        """Write-through insert; enforces the LRU caps.  Returns success."""
        reg = obs.default_registry()
        with obs.trace_span("store.put", key=skey), self._lock:
            conn = self._connection()
            if conn is None:
                return False
            doc = {"schema": PAYLOAD_SCHEMA, "value": value}
            try:
                payload_text = json.dumps(doc, sort_keys=True)
            except (TypeError, ValueError):
                reg.counter("store.errors").inc()
                return False
            now = time.time()
            try:
                conn.execute(
                    "INSERT OR REPLACE INTO entries"
                    " (skey, fingerprint, payload, checksum,"
                    "  created_s, last_used_s, hits)"
                    " VALUES (?, ?, ?, ?, ?, ?, 0)",
                    (skey, fingerprint, payload_text, _checksum(payload_text), now, now),
                )
                self._puts += 1
                reg.counter("store.puts").inc()
                self._enforce_caps(conn)
                return True
            except sqlite3.Error as exc:
                self._note_error(exc)
                return False

    def demote(self, skey: str, fingerprint: str) -> None:
        """Delete a row whose payload failed *semantic* verification.

        Called by the integration layer when a decoded row rehydrates but
        does not survive re-verification (``verify_retiming`` or payload
        shape checks).  Counted separately from raw corruption.
        """
        obs.default_registry().counter("store.verify_fail").inc()
        with self._lock:
            conn = self._connection()
            if conn is None:
                return
            try:
                conn.execute(
                    "DELETE FROM entries WHERE skey = ? AND fingerprint = ?",
                    (skey, fingerprint),
                )
            except sqlite3.Error as exc:
                self._note_error(exc)

    def _decode(self, payload_text: Any, checksum: Any) -> Optional[Any]:
        """Round-trip one row; ``None`` means 'treat as corrupt'."""
        # sqlite columns are dynamically typed: a tampered or torn row can
        # hold a BLOB/int where text belongs, and that too must be a miss.
        if not isinstance(payload_text, str) or not isinstance(checksum, str):
            return None
        if _checksum(payload_text) != checksum:
            return None
        try:
            doc = json.loads(payload_text)
        except (ValueError, TypeError):
            return None
        if not isinstance(doc, dict) or doc.get("schema") != PAYLOAD_SCHEMA:
            return None
        if "value" not in doc or doc["value"] is None:
            return None
        return doc["value"]

    # -------------------------------------------------------------- #
    # caps / maintenance
    # -------------------------------------------------------------- #

    def _enforce_caps(self, conn: sqlite3.Connection) -> None:
        removed = self._prune_locked(conn, self.max_entries, self.max_bytes)
        if removed:
            self._evictions += removed
            obs.default_registry().counter("store.evictions").inc(removed)

    def _prune_locked(
        self, conn: sqlite3.Connection, max_entries: int, max_bytes: int
    ) -> int:
        removed = 0
        while True:
            count, payload_bytes = conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(LENGTH(payload)), 0) FROM entries"
            ).fetchone()
            if count <= max_entries and payload_bytes <= max_bytes:
                return removed
            over_entries = max(0, count - max_entries)
            # drop the oldest-used rows; at least one, at most the overage
            batch = max(1, over_entries)
            cur = conn.execute(
                "DELETE FROM entries WHERE (skey, fingerprint) IN"
                " (SELECT skey, fingerprint FROM entries"
                "  ORDER BY last_used_s ASC LIMIT ?)",
                (batch,),
            )
            if cur.rowcount <= 0:
                return removed
            removed += cur.rowcount

    def prune(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> int:
        """Evict LRU rows down to the given (or configured) caps."""
        limit_entries = max_entries if max_entries is not None else self.max_entries
        limit_bytes = max_bytes if max_bytes is not None else self.max_bytes
        with self._lock:
            conn = self._connection()
            if conn is None:
                return 0
            try:
                removed = self._prune_locked(conn, limit_entries, limit_bytes)
            except sqlite3.Error as exc:
                self._note_error(exc)
                return 0
        if removed:
            self._evictions += removed
            obs.default_registry().counter("store.evictions").inc(removed)
        return removed

    def clear(self) -> int:
        """Delete every entry (the meta table survives).  Returns the
        entry count removed."""
        with self._lock:
            conn = self._connection()
            if conn is None:
                return 0
            try:
                cur = conn.execute("DELETE FROM entries")
                return int(cur.rowcount)
            except sqlite3.Error as exc:
                self._note_error(exc)
                return 0

    def verify(self, *, repair: bool = False) -> Dict[str, Any]:
        """Audit every row: checksum, JSON round-trip, payload schema.

        Returns ``{"ok", "checked", "corrupt": [...], "repaired"}``; with
        ``repair=True`` the offending rows are deleted.  A store that
        cannot be opened at all reports ``ok=False`` with zero rows.
        """
        bad: List[Tuple[str, str]] = []
        checked = 0
        with self._lock:
            conn = self._connection()
            if conn is None:
                return {
                    "ok": False,
                    "checked": 0,
                    "corrupt": [],
                    "repaired": 0,
                    "disabled": True,
                }
            try:
                rows = conn.execute(
                    "SELECT skey, fingerprint, payload, checksum FROM entries"
                ).fetchall()
                for skey, fingerprint, payload_text, checksum in rows:
                    checked += 1
                    if self._decode(payload_text, checksum) is None:
                        bad.append((skey, fingerprint))
                repaired = 0
                if repair and bad:
                    for skey, fingerprint in bad:
                        conn.execute(
                            "DELETE FROM entries"
                            " WHERE skey = ? AND fingerprint = ?",
                            (skey, fingerprint),
                        )
                        repaired += 1
            except sqlite3.Error as exc:
                self._note_error(exc)
                return {
                    "ok": False,
                    "checked": checked,
                    "corrupt": [list(pair) for pair in bad],
                    "repaired": 0,
                    "disabled": self._disabled,
                }
        if bad:
            obs.default_registry().counter("store.corrupt").inc(len(bad))
        return {
            "ok": not bad,
            "checked": checked,
            "corrupt": [list(pair) for pair in bad],
            "repaired": repaired if repair else 0,
            "disabled": False,
        }

    # -------------------------------------------------------------- #
    # statistics
    # -------------------------------------------------------------- #

    def stats(self) -> StoreStats:
        entries = 0
        payload_bytes = 0
        stored_hits = 0
        fingerprints = 0
        schema_version: Optional[int] = None
        with self._lock:
            conn = self._connection()
            if conn is not None:
                try:
                    entries, payload_bytes, stored_hits, fingerprints = conn.execute(
                        "SELECT COUNT(*), COALESCE(SUM(LENGTH(payload)), 0),"
                        " COALESCE(SUM(hits), 0), COUNT(DISTINCT fingerprint)"
                        " FROM entries"
                    ).fetchone()
                    row = conn.execute(
                        "SELECT value FROM meta WHERE key = 'schema_version'"
                    ).fetchone()
                    if row is not None:
                        schema_version = int(row[0])
                except sqlite3.Error as exc:
                    self._note_error(exc)
            size_bytes = 0
            for suffix in ("", "-wal", "-shm"):
                try:
                    size_bytes += os.path.getsize(self.path + suffix)
                except OSError:
                    pass
            return StoreStats(
                path=self.path,
                entries=int(entries),
                size_bytes=size_bytes,
                payload_bytes=int(payload_bytes),
                stored_hits=int(stored_hits),
                fingerprints=int(fingerprints),
                schema_version=schema_version,
                max_entries=self.max_entries,
                max_bytes=self.max_bytes,
                hits=self._hits,
                misses=self._misses,
                puts=self._puts,
                evictions=self._evictions,
                disabled=self._disabled,
            )

    def cache_info(self) -> StoreStats:
        """Alias so the store quacks like :class:`repro.perf.memo.MemoCache`."""
        return self.stats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompileStore({self.path!r}, disabled={self._disabled})"
