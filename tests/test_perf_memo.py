"""The fusion memo layer: canonical hashing, the LRU cache, and the wiring
into ``fuse()`` and the resilience ladder.

The load-bearing property is that the canonical key quotients MLDGs by
node *renaming* (program order preserved) and nothing else -- so repeated
and isomorphic-but-relabelled queries hit, while any structural change
(an extra vector, a different dimension, a reordered program) misses.
Cache hits must be *verified* answers: ``fuse()`` re-runs the full
verification gate on every rehydrated retiming.
"""

import pytest

from repro.fusion import Strategy, fuse
from repro.gallery import figure2_mldg, figure8_mldg
from repro.graph.mldg import MLDG
from repro.perf.memo import (
    MemoCache,
    canonical_mldg_key,
    clear_all_caches,
    fusion_cache,
    memoization_applicable,
    structural_hash,
)
from repro.resilience import Budget, fuse_resilient
from repro.retiming import Retiming
from repro.vectors import IVec


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_all_caches()
    yield
    clear_all_caches()


def _relabel(g: MLDG, mapping) -> MLDG:
    """Rebuild ``g`` with renamed nodes, preserving program order."""
    out = MLDG(dim=g.dim)
    for name in g.nodes:
        out.add_node(mapping[name])
    for e in g.edges():
        out.add_dependence(mapping[e.src], mapping[e.dst], *sorted(e.vectors))
    return out


class TestCanonicalKey:
    def test_key_invariant_under_renaming(self):
        g = figure2_mldg()
        h = _relabel(g, {n: f"loop_{n.lower()}" for n in g.nodes})
        assert canonical_mldg_key(g) == canonical_mldg_key(h)
        assert structural_hash(g) == structural_hash(h)

    def test_key_invariant_under_edge_insertion_order(self):
        a = MLDG(dim=2)
        a.add_node("X")
        a.add_node("Y")
        a.add_dependence("X", "Y", IVec(1, 0))
        a.add_dependence("Y", "Y", IVec(0, 1))
        b = MLDG(dim=2)
        b.add_node("X")
        b.add_node("Y")
        b.add_dependence("Y", "Y", IVec(0, 1))
        b.add_dependence("X", "Y", IVec(1, 0))
        assert canonical_mldg_key(a) == canonical_mldg_key(b)

    def test_key_sensitive_to_program_order(self):
        # same edge structure, opposite program order: different programs
        a = MLDG(dim=2)
        a.add_node("X")
        a.add_node("Y")
        a.add_dependence("X", "Y", IVec(1, 1))
        b = MLDG(dim=2)
        b.add_node("Y")
        b.add_node("X")
        b.add_dependence("X", "Y", IVec(1, 1))
        assert canonical_mldg_key(a) != canonical_mldg_key(b)

    def test_key_sensitive_to_vectors_and_dim(self):
        a = MLDG(dim=2)
        a.add_dependence("X", "Y", IVec(1, 1))
        b = MLDG(dim=2)
        b.add_dependence("X", "Y", IVec(1, 1), IVec(2, 0))
        assert canonical_mldg_key(a) != canonical_mldg_key(b)
        c = MLDG(dim=3)
        c.add_dependence("X", "Y", IVec(1, 1, 0))
        assert canonical_mldg_key(a) != canonical_mldg_key(c)


class TestMemoCache:
    def test_hit_miss_eviction_accounting(self):
        cache = MemoCache(maxsize=2)
        assert cache.get("a") is None  # miss
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # hit; refreshes recency of "a"
        cache.put("c", 3)  # evicts "b" (LRU)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        info = cache.cache_info()
        assert info.hits == 3 and info.misses == 2 and info.evictions == 1
        assert info.currsize == 2 and info.maxsize == 2
        assert 0 < info.hit_ratio < 1

    def test_none_values_rejected(self):
        with pytest.raises(ValueError):
            MemoCache().put("k", None)

    def test_clear_and_resize(self):
        cache = MemoCache(maxsize=4)
        for k in range(4):
            cache.put(k, k + 1)
        cache.resize(2)
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0
        assert cache.cache_info().hits == 0


class TestFuseMemoization:
    def test_repeat_query_hits(self):
        g = figure2_mldg()
        first = fuse(g)
        second = fuse(g)
        info = fusion_cache().cache_info()
        assert info.hits >= 1 and info.misses >= 1
        assert first.retiming.as_dict() == second.retiming.as_dict()
        assert first.strategy == second.strategy
        assert first.schedule == second.schedule

    def test_isomorphic_relabel_hits_and_verifies(self):
        g = figure2_mldg()
        fuse(g)
        h = _relabel(g, {n: f"renamed_{n}" for n in g.nodes})
        result = fuse(h)
        assert fusion_cache().cache_info().hits >= 1
        # the rehydrated retiming is rebound to h's names and re-verified
        assert set(result.retiming.as_dict()) == set(h.nodes)
        assert result.verification.ok_for_legal_fusion
        expected = {
            f"renamed_{n}": v for n, v in fuse(g).retiming.as_dict().items()
        }
        assert result.retiming.as_dict() == expected

    def test_forced_strategies_cached_separately(self):
        g = figure8_mldg()
        fuse(g, strategy=Strategy.ACYCLIC)
        fuse(g, strategy=Strategy.LEGAL_ONLY)
        assert fusion_cache().cache_info().misses >= 2

    def test_limiting_budget_bypasses_cache(self):
        from repro.resilience import BudgetExceededError

        g = figure2_mldg()
        fuse(g)  # prime the cache
        hits_before = fusion_cache().cache_info().hits
        # a capped probe must still measure real solver work and trip
        with pytest.raises(BudgetExceededError):
            fuse(g, budget=Budget(max_relaxation_rounds=0))
        assert fusion_cache().cache_info().hits == hits_before

    def test_disable_flag_bypasses_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_FUSE_MEMO", "0")
        assert not memoization_applicable(None)
        g = figure2_mldg()
        fuse(g)
        fuse(g)
        info = fusion_cache().cache_info()
        assert info.hits == 0 and info.misses == 0 and len(fusion_cache()) == 0


class TestLadderMemoization:
    """The ladder's retiming rungs call ``fuse()``, so repeats hit the
    fusion cache (and every hit is re-verified there)."""

    def test_resilient_repeat_hits_fusion_cache(self):
        g = figure2_mldg()
        first = fuse_resilient(g)
        hits = fusion_cache().cache_info().hits
        second = fuse_resilient(g)
        assert fusion_cache().cache_info().hits > hits
        assert first.rung == second.rung
        assert first.retiming.as_dict() == second.retiming.as_dict()

    def test_resilient_relabel_hits_fusion_cache(self):
        g = figure2_mldg()
        first = fuse_resilient(g)
        hits = fusion_cache().cache_info().hits
        h = _relabel(g, {n: f"z_{n}" for n in g.nodes})
        second = fuse_resilient(h)
        assert fusion_cache().cache_info().hits > hits
        assert second.rung == first.rung
        assert second.retiming.as_dict() == {
            f"z_{n}": v for n, v in first.retiming.as_dict().items()
        }
        assert isinstance(second.retiming, Retiming) and second.retiming.dim == g.dim


# ---------------------------------------------------------------------- #
# pickling and process pools (the serve worker-cache tiers)
# ---------------------------------------------------------------------- #


def _worker_cache_probe(_):
    """Runs in a pool worker: exercise the worker's own fusion cache."""
    from repro.gallery import figure2_mldg
    from repro.perf.memo import fusion_cache

    fuse(figure2_mldg())  # miss (or fork-inherited hit) in *this* process
    fuse(figure2_mldg())  # repeat: a hit in this process
    info = fusion_cache().cache_info()
    return {"hits": info.hits, "misses": info.misses, "pid": __import__("os").getpid()}


class TestPickleAndProcessPools:
    def test_pickle_round_trip_preserves_entries_and_stats(self):
        import pickle

        cache = MemoCache(maxsize=3)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        cache.get("missing")
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.get("a") == 1 and clone.get("b") == 2
        before = cache.cache_info()
        # +2 hits from the two gets above; everything else carried over
        assert clone.cache_info() == before._replace(hits=before.hits + 2)
        # the recreated lock actually locks: mutation still works
        clone.put("c", 3)
        clone.put("d", 4)  # evicts
        assert clone.cache_info().evictions == 1
        # and the original is untouched (deep copy of the entries)
        assert cache.cache_info() == before

    def test_pickle_rejects_nothing_lock_is_dropped(self):
        import pickle

        state = MemoCache().__getstate__()
        assert "_lock" not in state
        restored = pickle.loads(pickle.dumps(MemoCache()))
        assert restored.cache_info().currsize == 0

    def test_process_pool_workers_keep_private_cache_accounting(self):
        """The docs/SERVING.md cache-tier contract: fork-started workers
        inherit a warm copy of the parent caches and diverge afterwards --
        worker hits/misses never flow back into the parent's accounting."""
        from concurrent.futures import ProcessPoolExecutor

        fuse(figure2_mldg())  # warm the parent cache pre-fork
        parent_before = fusion_cache().cache_info()
        with ProcessPoolExecutor(max_workers=2) as pool:
            reports = list(pool.map(_worker_cache_probe, range(4)))
        assert len(reports) == 4
        for report in reports:
            assert report["hits"] >= 1  # the repeat hit in the worker
        # the parent's accounting is exactly what it was: per-worker tiers
        assert fusion_cache().cache_info() == parent_before
