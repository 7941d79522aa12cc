"""The performance trajectory: backends, memo caches and solvers over time.

Not a paper experiment -- this archives the library's own measured
performance so regressions are visible commit to commit.  Records flow
through the ``perf_record`` fixture into ``BENCH_perf.json`` at the
repository root (schema ``repro-bench-perf/1``): execution backends at full
size (interpreter vs compiled vs numpy), cold-vs-hot
fusion memoization, the persistent store's cold/warm compile latency
(gallery-twice acceptance row included), and the SLF worklist against the
round-based Bellman-Ford reference.

The full-size measurements are marked ``perf`` (deselect with
``-m 'not perf'``); a small smoke tier runs by default so the harness
itself cannot rot unnoticed.
"""

import pytest

from repro.perf.bench import (
    bench_backend_sweep,
    bench_backends,
    bench_fusion_cache,
    bench_plan,
    bench_solvers,
    bench_store,
    bench_store_gallery,
    render_records_text,
    records_to_json,
)

FULL_N = FULL_M = 256
SMOKE_N = SMOKE_M = 24


def test_smoke_backends(report, perf_record):
    """Fast tier: the whole harness end to end at a tiny size."""
    records = bench_backends(
        "fig2",
        n=SMOKE_N,
        m=SMOKE_M,
        repeats=2,
        backends=("interp", "compiled", "numpy"),
    )
    assert {r.backend for r in records} >= {"interp", "compiled", "numpy"}
    perf_record(records)


def test_smoke_solver_metrics_archived(report, perf_record):
    """Fast tier: BENCH_perf.json carries the observability counters.

    The ``metrics`` key is additive to schema ``repro-bench-perf/1``: the
    solver work done while benchmarking (relaxation rounds, worklist pops)
    is archived alongside the timings, so a perf regression can be checked
    against "did the algorithm do more work" without re-running.
    """
    records = bench_solvers(chain=30, repeats=1)
    perf_record(records)
    doc = records_to_json(records)
    assert doc["schema"] == "repro-bench-perf/1"
    counters = doc["metrics"]["counters"]
    assert counters.get("solver.bellman_ford.calls", 0) > 0
    assert counters.get("solver.bellman_ford.rounds", 0) > 0
    assert counters.get("solver.bellman_ford.pops", 0) > 0


def test_smoke_store_gallery_warm(report, perf_record):
    """Fast tier + acceptance row: the gallery twice through one store.

    The warm pass (fresh L1, same store file) must be served from disk at
    a >= 90% L2 hit ratio and reproduce the cold pass bit for bit; the
    record lands in ``BENCH_perf.json`` as the archived evidence.
    """
    records = bench_store_gallery()
    perf_record(records)
    warm = next(r for r in records if r.backend == "warm-pass")
    assert warm.extra["bitIdentical"] is True
    assert warm.extra["store"]["hitRatio"] >= 0.90
    report.text(render_records_text(records_to_json(records)))


def test_smoke_plan_auto_vs_static(report, perf_record):
    """Fast tier: the execution planner against the static backends.

    ``auto`` must resolve to a concrete backend, stay bit-identical
    (bench_plan verifies before timing), and not land on the
    measured-worst backend -- timings at smoke size are noisy, so the
    archived bar is generous (auto within 2x of best-static, and clearly
    better than a worst-static that is ~5x off).
    """
    records = bench_plan("fig2", sizes=((SMOKE_N, SMOKE_M),), repeats=2)
    perf_record(records)
    report.text(render_records_text(records_to_json(records)))
    auto = next(r for r in records if r.backend == "auto")
    assert auto.extra["bitIdentical"] is True
    assert auto.extra["chosen"]["backend"] in ("interp", "compiled", "numpy")
    assert auto.extra["vsBestStatic"] <= 2.0
    assert auto.extra["vsWorstStatic"] <= 1.0


@pytest.mark.perf
def test_perf_plan_auto_tracks_best_static(report, perf_record):
    """The acceptance row: the rule's pick for fig2 at smoke and full
    size is within noise of the measured-fastest backend, and the planned
    execution's median is never worse than the worst static backend."""
    records = bench_plan(
        "fig2", sizes=((SMOKE_N, SMOKE_M), (FULL_N, FULL_M)), repeats=3
    )
    perf_record(records)
    report.text(render_records_text(records_to_json(records)))
    for n in (SMOKE_N, FULL_N):
        auto = next(r for r in records if r.backend == "auto" and r.n == n)
        chosen = auto.extra["chosen"]
        best = auto.extra["bestStatic"]
        # the pick lands on (or within noise of) the measured winner;
        # interp is ~40-400x off at these sizes, so a wrong pick fails
        # the ratio bars immediately
        assert chosen["source"] == "rule"
        assert auto.extra["vsBestStatic"] <= 1.5
        assert auto.extra["vsWorstStatic"] <= 0.5
        assert chosen["backend"] != "interp"
        assert best["backend"] != "interp"


@pytest.mark.perf
def test_perf_store_cold_vs_warm(report, perf_record):
    """Persistent-store latency: solver vs write-through vs disk-served."""
    records = bench_store("fig2", repeats=5)
    perf_record(records)
    report.text(render_records_text(records_to_json(records)))
    warm = next(r for r in records if r.backend == "store-warm")
    # every warm run must actually come off the disk tier
    assert warm.extra["store"]["hitRatio"] >= 0.90


@pytest.mark.perf
def test_perf_numpy_sweep(report, perf_record):
    """The numpy whole-array backend across sizes, both regimes.

    ``jacobi-pair`` is DOALL-heavy (every stage whole-array) -- the numpy
    backend's headline regime, expected well over the compiled per-row
    kernel at 256x256.  ``fig2`` is the opposite pole: its recurrence
    admits at most U=2 rows per array op, so the recorded speedup over
    compiled is the dependence-bound ceiling (~1x), archived on purpose
    as the honest contrast (see docs/PERFORMANCE.md).
    """
    records = bench_backend_sweep(
        "jacobi-pair",
        sizes=[(64, 64), (FULL_N, FULL_M)],
        backends=("interp", "compiled", "numpy"),
    )
    records += bench_backend_sweep(
        "fig2",
        sizes=[(FULL_N, FULL_M)],
        backends=("interp", "compiled", "numpy"),
    )
    perf_record(records)
    report.text(render_records_text(records_to_json(records)))
    headline = next(
        r
        for r in records
        if r.backend == "numpy" and r.name.startswith("jacobi-pair")
        and r.n == FULL_N
    )
    # regression bar, deliberately below the ~6x a quiet machine shows
    assert headline.extra["speedupVsCompiled"] >= 2.0
    assert headline.extra["plan"]["scalar"] == 0


@pytest.mark.perf
def test_perf_fusion_cache(report, perf_record):
    records = bench_fusion_cache("fig2")
    perf_record(records)
    hot = next(r for r in records if r.backend == "memo-cache")
    assert hot.extra["cache"]["hits"] > 0


@pytest.mark.perf
def test_perf_solvers(report, perf_record):
    records = bench_solvers(chain=400)
    perf_record(records)
    slf = next(r for r in records if r.backend == "slf")
    rounds = next(r for r in records if r.backend == "rounds")
    # the worklist must beat the O(V*E) worst case by a wide margin
    assert rounds.median_s / slf.median_s >= 2.0
