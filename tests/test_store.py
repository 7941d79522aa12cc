"""The persistent compilation store (repro.store): the L2 disk tier.

The load-bearing properties, in descending order of importance:

1. **Nothing unverified is ever served.**  Every disk row is re-verified
   (``verify_retiming`` through the normal rehydration gate) before a hit
   is returned; rows that fail are demoted to misses and evicted.
2. **Corruption degrades to a cold compile, never an exception.**  A
   truncated file, a tampered row, a wrong payload schema and a newer
   meta schema all turn into misses with the matching counters.
3. **The bypass predicate is shared with L1.**  Work-limiting budgets,
   active fault injectors and ``REPRO_FUSE_MEMO=0`` keep results out of
   the store, so chaos runs can never persist a corrupted answer.
4. **Keys are structural.**  Renamed-but-isomorphic programs hit the same
   row; any environment change (fingerprint) misses.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sqlite3

import pytest

from repro import obs
from repro.core.session import Session, SessionCaches, SessionOptions
from repro.fusion import fuse
from repro.gallery import figure2_mldg
from repro.graph.mldg import MLDG
from repro.perf.memo import clear_all_caches, structural_hash
from repro.resilience import Budget
from repro.resilience.faults import EdgeWeightCorruption, inject
from repro.store import (
    STORE_SCHEMA_VERSION,
    CompileStore,
    active_store,
    current_fingerprint,
    env_fingerprint,
    open_store,
    reset_open_stores,
    set_default_store_path,
)


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    """No ambient store, clean L1, clean handle registry, per-test."""
    monkeypatch.delenv("REPRO_FUSE_STORE", raising=False)
    clear_all_caches()
    reset_open_stores()
    yield
    clear_all_caches()
    reset_open_stores()


def _counter(name: str) -> int:
    return obs.default_registry().counter(name).value


def _relabel(g: MLDG, prefix: str) -> MLDG:
    out = MLDG(dim=g.dim)
    for name in g.nodes:
        out.add_node(prefix + name)
    for e in g.edges():
        out.add_dependence(prefix + e.src, prefix + e.dst, *sorted(e.vectors))
    return out


def _outcome(result):
    return (
        result.strategy.value,
        tuple(sorted((k, tuple(v)) for k, v in result.retiming.as_dict().items())),
        tuple(result.schedule),
    )


def _session(path: str) -> Session:
    """A session with a private L1 over the store at ``path``."""
    return Session(
        options=SessionOptions(store_path=path),
        caches=SessionCaches.private(),
    )


class TestRawStore:
    def test_roundtrip_and_counters(self, tmp_path):
        store = CompileStore(str(tmp_path / "s.db"))
        assert store.get("fuse:auto:abc", "fp") is None  # miss
        store.put("fuse:auto:abc", "fp", {"x": [1, 2]})
        assert store.get("fuse:auto:abc", "fp") == {"x": [1, 2]}
        s = store.stats()
        assert (s.hits, s.misses, s.puts) == (1, 1, 1)
        assert s.entries == 1 and s.stored_hits == 1

    def test_fingerprint_isolation(self, tmp_path):
        store = CompileStore(str(tmp_path / "s.db"))
        store.put("k", "fp-a", 1)
        assert store.get("k", "fp-b") is None
        assert store.get("k", "fp-a") == 1

    def test_lru_caps_evict_oldest(self, tmp_path):
        store = CompileStore(str(tmp_path / "s.db"), max_entries=3)
        for i in range(5):
            store.put(f"k{i}", "fp", i)
        s = store.stats()
        assert s.entries == 3 and s.evictions == 2
        # the newest rows survive
        assert store.get("k4", "fp") == 4 and store.get("k0", "fp") is None

    def test_demote_deletes_and_counts(self, tmp_path):
        store = CompileStore(str(tmp_path / "s.db"))
        store.put("k", "fp", 1)
        before = _counter("store.verify_fail")
        store.demote("k", "fp")
        assert store.get("k", "fp") is None
        assert _counter("store.verify_fail") == before + 1

    def test_prune_and_clear(self, tmp_path):
        store = CompileStore(str(tmp_path / "s.db"))
        for i in range(6):
            store.put(f"k{i}", "fp", i)
        assert store.prune(max_entries=2) == 4
        assert store.stats().entries == 2
        assert store.clear() == 2
        assert store.stats().entries == 0

    def test_verify_reports_clean(self, tmp_path):
        store = CompileStore(str(tmp_path / "s.db"))
        store.put("k", "fp", {"a": 1})
        report = store.verify()
        assert report["ok"] and report["checked"] == 1
        assert report["corrupt"] == [] and report["repaired"] == 0


class TestCorruption:
    def test_tampered_payload_is_deleted_and_missed(self, tmp_path):
        path = str(tmp_path / "s.db")
        store = CompileStore(path)
        store.put("k", "fp", {"a": 1})
        store.close()
        with sqlite3.connect(path) as conn:
            conn.execute("UPDATE entries SET payload = '{\"evil\": true}'")
        before = _counter("store.corrupt")
        assert store.get("k", "fp") is None
        assert _counter("store.corrupt") == before + 1
        # the row is gone: the next lookup is an ordinary cold miss
        assert store.stats().entries == 0

    def test_blob_payload_is_corrupt_not_an_exception(self, tmp_path):
        """sqlite columns are dynamically typed: a BLOB where text belongs
        (torn write, hostile tamper) must degrade to a miss, never raise."""
        path = str(tmp_path / "s.db")
        store = CompileStore(path)
        store.put("k", "fp", {"a": 1})
        store.close()
        with sqlite3.connect(path) as conn:
            conn.execute("UPDATE entries SET payload = X'DEADBEEF'")
        before = _counter("store.corrupt")
        assert store.get("k", "fp") is None
        assert _counter("store.corrupt") == before + 1
        assert store.stats().entries == 0
        assert store.verify()["ok"]  # the bad row is already gone

    def test_tampered_payload_fails_verify_then_repairs(self, tmp_path):
        path = str(tmp_path / "s.db")
        store = CompileStore(path)
        store.put("good", "fp", 1)
        store.put("bad", "fp", 2)
        store.close()
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE entries SET checksum = 'ffff' WHERE skey = 'bad'"
            )
        report = store.verify()
        assert not report["ok"] and len(report["corrupt"]) == 1
        report = store.verify(repair=True)
        assert report["repaired"] == 1
        assert store.verify()["ok"]
        assert store.get("good", "fp") == 1

    def test_truncated_file_disables_the_handle(self, tmp_path):
        path = tmp_path / "s.db"
        path.write_bytes(b"this is not a sqlite database at all")
        store = CompileStore(str(path))
        before = _counter("store.corrupt")
        assert store.get("k", "fp") is None
        assert store.stats().disabled
        assert _counter("store.corrupt") > before
        # still a cheap miss, never an exception
        store.put("k", "fp", 1)
        assert store.get("k", "fp") is None

    def test_newer_schema_version_disables(self, tmp_path):
        path = str(tmp_path / "s.db")
        store = CompileStore(path)
        store.put("k", "fp", 1)
        store.close()
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(STORE_SCHEMA_VERSION + 1),),
            )
        before = _counter("store.schema_mismatch")
        reopened = CompileStore(path)
        assert reopened.get("k", "fp") is None
        assert reopened.stats().disabled
        assert _counter("store.schema_mismatch") == before + 1

    def test_older_schema_version_wipes_and_rebuilds(self, tmp_path):
        path = str(tmp_path / "s.db")
        store = CompileStore(path)
        store.put("k", "fp", 1)
        store.close()
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE meta SET value = '0' WHERE key = 'schema_version'"
            )
        reopened = CompileStore(path)
        # stale rows are unreadable under a new schema: dropped wholesale
        assert reopened.get("k", "fp") is None
        assert not reopened.stats().disabled
        reopened.put("k2", "fp", 2)
        assert reopened.get("k2", "fp") == 2

    def test_schema_1_file_with_profile_rows_is_rebuilt(self, tmp_path, capsys):
        # the layout schema 1 wrote, execution-profile table included
        path = str(tmp_path / "v1.db")
        with sqlite3.connect(path) as conn:
            conn.executescript(
                "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);"
                "CREATE TABLE entries (skey TEXT NOT NULL, fingerprint TEXT NOT NULL,"
                " payload TEXT NOT NULL, checksum TEXT NOT NULL,"
                " created_s REAL NOT NULL, last_used_s REAL NOT NULL,"
                " hits INTEGER NOT NULL DEFAULT 0, PRIMARY KEY (skey, fingerprint));"
                "CREATE TABLE profiles (skey TEXT NOT NULL, fingerprint TEXT NOT NULL,"
                " bucket TEXT NOT NULL, backend TEXT NOT NULL, jobs INTEGER NOT NULL,"
                " runs INTEGER NOT NULL DEFAULT 0, total_s REAL NOT NULL DEFAULT 0,"
                " best_s REAL NOT NULL, last_used_s REAL NOT NULL,"
                " PRIMARY KEY (skey, fingerprint, bucket, backend, jobs));"
                "INSERT INTO meta VALUES ('schema_version', '1');"
                "INSERT INTO entries VALUES ('k', 'fp', '{}', 'x', 0, 0, 0);"
                "INSERT INTO profiles VALUES ('k', 'fp', 'lg8', 'parallel', 2, 3, 0.3, 0.1, 0);"
            )
        assert STORE_SCHEMA_VERSION > 1
        before = _counter("store.schema_mismatch")
        store = CompileStore(path)
        assert store.get("k", "fp") is None  # a clean miss, no exception
        assert _counter("store.schema_mismatch") == before + 1
        stats = store.stats()
        assert not stats.disabled and stats.entries == 0
        assert stats.schema_version == STORE_SCHEMA_VERSION
        store.close()
        with sqlite3.connect(path) as conn:
            tables = {r[0] for r in conn.execute("SELECT name FROM sqlite_master")}
        assert "profiles" not in tables
        from repro.cli import main

        assert main(["cache", "verify", "--store", path]) == 0
        assert "CLEAN" in capsys.readouterr().out


class TestFingerprint:
    def test_deterministic_and_parameter_sensitive(self):
        assert env_fingerprint() == env_fingerprint()
        assert env_fingerprint() != env_fingerprint(prune_edges=False)
        assert env_fingerprint() != env_fingerprint(ladder=("doall",))

    def test_current_fingerprint_tracks_session_options(self):
        ambient = current_fingerprint()
        session = Session(options=SessionOptions(prune_edges=False))
        with session.activate():
            assert current_fingerprint() != ambient
        assert current_fingerprint() == ambient


class TestFuseThroughStore:
    def test_second_session_is_served_from_disk(self, tmp_path):
        path = str(tmp_path / "s.db")
        g = figure2_mldg()
        with _session(path).activate():
            cold = _outcome(fuse(g))
        warm_session = _session(path)
        with warm_session.activate():
            before = warm_session.caches.store.stats()
            warm = _outcome(fuse(g))
            after = warm_session.caches.store.stats()
        assert warm == cold
        assert after.hits == before.hits + 1

    def test_relabelled_isomorph_hits_the_same_row(self, tmp_path):
        path = str(tmp_path / "s.db")
        g = figure2_mldg()
        h = _relabel(g, "renamed_")
        assert structural_hash(g) == structural_hash(h)
        with _session(path).activate():
            fuse(g)
        s2 = _session(path)
        with s2.activate():
            fuse(h)
            assert s2.caches.store.stats().hits >= 1

    def test_disk_hit_promotes_into_l1(self, tmp_path):
        path = str(tmp_path / "s.db")
        g = figure2_mldg()
        with _session(path).activate():
            fuse(g)
        s2 = _session(path)
        with s2.activate():
            fuse(g)  # L2 hit, promoted
            fuse(g)  # now an L1 hit
            assert s2.caches.fusion.cache_info().hits == 1
            assert s2.caches.store.stats().hits == 1

    def test_tampered_row_degrades_to_cold_compile(self, tmp_path):
        path = str(tmp_path / "s.db")
        g = figure2_mldg()
        with _session(path).activate():
            cold = _outcome(fuse(g))
        with sqlite3.connect(path) as conn:
            # keep the checksum consistent so the *payload* gate, not the
            # checksum, must catch this
            payload = json.dumps(
                {"schema": "repro-store/1", "value": ["auto", [], [], None, []]},
                sort_keys=True,
            )
            import hashlib

            checksum = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
            conn.execute(
                "UPDATE entries SET payload = ?, checksum = ?",
                (payload, checksum),
            )
        reset_open_stores()  # drop the first session's handle
        s2 = _session(path)
        with s2.activate():
            assert _outcome(fuse(g)) == cold  # recompiled, not raised
            assert s2.caches.store.stats().entries >= 1  # re-persisted


class TestBypass:
    """Nothing computed under a bypass condition may touch the disk."""

    def _entries(self, path: str) -> int:
        return open_store(path).stats().entries

    def test_work_limited_budget_bypasses(self, tmp_path):
        path = str(tmp_path / "s.db")
        session = Session(
            options=SessionOptions(store_path=path),
            caches=SessionCaches.private(),
            budget=Budget(max_relaxation_rounds=10_000),
        )
        before = _counter("store.bypassed")
        with session.activate():
            fuse(figure2_mldg(), budget=session.budget)
        assert self._entries(path) == 0
        assert _counter("store.bypassed") > before

    def test_deadline_only_budget_is_cacheable(self, tmp_path):
        # a deadline is an SLO on the answer, not a work probe: serve
        # workers always carry one and must still share the store
        path = str(tmp_path / "s.db")
        with _session(path).activate():
            fuse(figure2_mldg(), budget=Budget(deadline_ms=60_000.0))
        assert self._entries(path) == 1

    def test_active_fault_injector_bypasses(self, tmp_path):
        path = str(tmp_path / "s.db")
        with _session(path).activate():
            with inject(EdgeWeightCorruption(), seed=3):
                try:
                    fuse(figure2_mldg())
                except Exception:
                    pass  # the corrupted graph may legitimately fail
        assert self._entries(path) == 0

    def test_memo_env_flag_bypasses(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FUSE_MEMO", "0")
        path = str(tmp_path / "s.db")
        with _session(path).activate():
            fuse(figure2_mldg())
        assert self._entries(path) == 0


class TestResolution:
    def test_env_default_and_session_override(self, tmp_path, monkeypatch):
        env_path = str(tmp_path / "env.db")
        session_path = str(tmp_path / "session.db")
        assert active_store() is None
        set_default_store_path(env_path)
        assert active_store() is not None
        assert active_store().path == os.path.abspath(env_path)
        with _session(session_path).activate():
            assert active_store().path == session_path
        set_default_store_path(None)
        assert active_store() is None

    def test_open_store_returns_one_handle_per_path(self, tmp_path):
        path = str(tmp_path / "s.db")
        assert open_store(path) is open_store(path)

    def test_pickle_drops_connection_but_keeps_path(self, tmp_path):
        import pickle

        store = CompileStore(str(tmp_path / "s.db"))
        store.put("k", "fp", 1)
        clone = pickle.loads(pickle.dumps(store))
        assert clone.path == store.path
        assert clone.get("k", "fp") == 1


def _hammer(path: str, worker: int, rounds: int) -> int:
    """Child-process body: interleaved reads/writes on one store file."""
    store = CompileStore(path)
    ok = 0
    for i in range(rounds):
        key = f"k{(worker + i) % 8}"
        store.put(key, "fp", {"worker": worker, "i": i})
        got = store.get(key, "fp")
        if got is not None and set(got) == {"worker", "i"}:
            ok += 1
    return ok


class TestMultiProcess:
    def test_concurrent_hammer_never_corrupts(self, tmp_path):
        path = str(tmp_path / "s.db")
        CompileStore(path).put("seed", "fp", 0)  # create the schema first
        rounds = 25
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(4) as pool:
            results = pool.starmap(
                _hammer, [(path, w, rounds) for w in range(4)]
            )
        assert all(r == rounds for r in results)
        report = CompileStore(path).verify()
        assert report["ok"] and report["checked"] >= 1


class TestCacheCli:
    def _run(self, *argv: str):
        import contextlib
        import io

        from repro.cli import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        return code, out.getvalue()

    def test_requires_a_path(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_FUSE_STORE", raising=False)
        from repro.cli import main

        assert main(["cache", "stats"]) == 2

    def test_stats_verify_prune_clear(self, tmp_path):
        path = str(tmp_path / "s.db")
        store = CompileStore(path)
        for i in range(4):
            store.put(f"k{i}", "fp", i)
        code, out = self._run("cache", "stats", "--store", path)
        assert code == 0 and "entries : 4" in out
        code, out = self._run(
            "cache", "stats", "--store", path, "--format", "json"
        )
        assert code == 0 and json.loads(out)["currsize"] == 4
        code, out = self._run("cache", "verify", "--store", path)
        assert code == 0 and "CLEAN" in out
        code, out = self._run(
            "cache", "prune", "--store", path, "--max-entries", "2"
        )
        assert code == 0 and "pruned 2" in out
        code, out = self._run("cache", "clear", "--store", path)
        assert code == 0 and "cleared 2" in out

    def test_verify_fails_on_tampered_store(self, tmp_path):
        path = str(tmp_path / "s.db")
        CompileStore(path).put("k", "fp", 1)
        reset_open_stores()
        with sqlite3.connect(path) as conn:
            conn.execute("UPDATE entries SET checksum = 'dead'")
        code, out = self._run("cache", "verify", "--store", path)
        assert code == 1 and "FAILED" in out
        code, _ = self._run("cache", "verify", "--store", path, "--repair")
        assert code == 1  # this pass still saw (and removed) the bad row
        code, out = self._run("cache", "verify", "--store", path)
        assert code == 0 and "CLEAN" in out
