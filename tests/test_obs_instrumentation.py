"""Instrumentation tests: the pipeline's spans and counters, end to end.

Every test swaps in a private registry (:func:`repro.obs.use_registry`) so
the process-wide default one -- which other tests and the CLI touch --
never leaks counts in or out.  The trace-determinism tests clear the
fusion/retiming/kernel caches before *each* traced run, because cache hits
legitimately change the span tree (a hit skips the solver spans).
"""

import pytest

from repro import obs
from repro.codegen.interp import ArrayStore
from repro.codegen.pycompile import clear_kernel_cache, compile_fused
from repro.constraints.bellman_ford import scalar_bellman_ford
from repro.core.backends import execute_fused
from repro.fusion.driver import fuse
from repro.gallery.paper import figure2_code, figure2_mldg
from repro.perf.memo import clear_all_caches
from repro.pipeline import fuse_program
from repro.resilience.budget import Budget, BudgetExceededError
from repro.resilience.ladder import fuse_resilient
from repro.resilience.report import RS001

pytestmark = pytest.mark.obs

_NODES = ["s", "a", "b"]
_EDGES = [("s", "a", 2), ("a", "b", -1), ("s", "b", 5)]


class TestSolverCounters:
    def test_slf_counts_calls_rounds_and_pops(self):
        with obs.use_registry() as reg:
            result = scalar_bellman_ford(_NODES, _EDGES, "s")
            c = reg.to_dict()["counters"]
            assert c["solver.bellman_ford.calls"] == 1
            assert c["solver.bellman_ford.rounds"] == result.rounds
            # SLF pops are actual worklist pops: every vertex is examined
            # at least once on a feasible system
            assert c["solver.bellman_ford.pops"] == result.pops >= len(_NODES)

    def test_rounds_algorithm_pops_are_rounds_times_vertices(self):
        with obs.use_registry() as reg:
            result = scalar_bellman_ford(_NODES, _EDGES, "s", algorithm="rounds")
            c = reg.to_dict()["counters"]
            assert result.pops == result.rounds * len(_NODES)
            assert c["solver.bellman_ford.pops"] == result.pops

    def test_budget_consumption_counted_only_under_a_cap(self):
        with obs.use_registry() as reg:
            scalar_bellman_ford(_NODES, _EDGES, "s")
            assert "solver.budget.rounds_consumed" not in reg.to_dict()["counters"]
        with obs.use_registry() as reg:
            result = scalar_bellman_ford(_NODES, _EDGES, "s", max_rounds=100)
            c = reg.to_dict()["counters"]
            assert c["solver.budget.rounds_consumed"] == result.rounds

    def test_budget_exceeded_counted(self):
        with obs.use_registry() as reg:
            with pytest.raises(BudgetExceededError):
                scalar_bellman_ford(
                    _NODES, _EDGES, "s",
                    budget=Budget(max_relaxation_rounds=0),
                )
            c = reg.to_dict()["counters"]
            assert c["solver.bellman_ford.budget_exceeded"] == 1


class TestCacheCounters:
    def test_fusion_cache_miss_then_hit(self):
        clear_all_caches()
        with obs.use_registry() as reg:
            fuse(figure2_mldg())
            fuse(figure2_mldg())
            c = reg.to_dict()["counters"]
            assert c["fusion.cache.misses"] == 1
            assert c["fusion.cache.hits"] == 1
            assert c["fusion.fuse.calls"] == 2
            # strategy counted on both the cold and the memoized path
            strategy = [k for k in c if k.startswith("fusion.strategy.")]
            assert strategy and sum(c[k] for k in strategy) == 2

    def test_fusion_cache_bypassed_under_limiting_budget(self):
        clear_all_caches()
        with obs.use_registry() as reg:
            fuse(figure2_mldg(), budget=Budget(max_relaxation_rounds=10_000))
            c = reg.to_dict()["counters"]
            assert c["fusion.cache.bypassed"] == 1
            assert "fusion.cache.misses" not in c

    def test_kernel_cache_miss_then_hit(self):
        clear_all_caches()
        clear_kernel_cache()
        fp = fuse_program(figure2_code()).fused
        with obs.use_registry() as reg:
            compile_fused(fp)
            compile_fused(fp)
            c = reg.to_dict()["counters"]
            assert c["kernel.cache.misses"] == 1
            assert c["kernel.cache.hits"] == 1


class TestResilienceBridge:
    def test_report_carries_trace_id_when_tracing(self):
        clear_all_caches()
        with obs.use_registry():
            with obs.tracing() as tracer:
                result = fuse_resilient(figure2_mldg())
            assert result.report.trace_id == tracer.trace_id
            assert result.report.to_dict()["traceId"] == tracer.trace_id

    def test_report_trace_id_none_without_tracer(self):
        clear_all_caches()
        with obs.use_registry():
            result = fuse_resilient(figure2_mldg())
            assert result.report.trace_id is None
            assert result.report.to_dict()["traceId"] is None

    def test_rung_counters_on_success(self):
        clear_all_caches()
        with obs.use_registry() as reg:
            result = fuse_resilient(figure2_mldg())
            c = reg.to_dict()["counters"]
            label = result.report.final_rung.label
            assert c["resilience.ladder.runs"] == 1
            assert c[f"resilience.rung.{label}"] == 1
            assert c[f"resilience.rung.{label}.ok"] == 1
            assert c[f"resilience.final_rung.{label}"] == 1

    def test_rs001_diagnostic_counted_on_budget_failure(self):
        clear_all_caches()
        with obs.use_registry() as reg:
            result = fuse_resilient(
                figure2_mldg(), budget=Budget(max_relaxation_rounds=0)
            )
            c = reg.to_dict()["counters"]
            assert c.get(f"resilience.diagnostic.{RS001}", 0) >= 1
            # it still came to rest somewhere, and that rung was counted
            label = result.report.final_rung.label
            assert c[f"resilience.final_rung.{label}"] == 1

    def test_ladder_span_nests_rung_spans(self):
        clear_all_caches()
        with obs.use_registry():
            with obs.tracing() as tracer:
                fuse_resilient(figure2_mldg())
        ladder = next(s for s in tracer.spans() if s.name == "resilience.ladder")
        rungs = [
            s for s in tracer.spans()
            if s.name.startswith("resilience.rung.")
        ]
        assert rungs
        assert all(s.parent_id == ladder.span_id for s in rungs)
        assert "final_rung" in ladder.attributes


def _traced_run():
    """One fully cold traced pipeline + numpy execution of fig2."""
    clear_all_caches()
    clear_kernel_cache()
    with obs.tracing() as tracer:
        result = fuse_program(figure2_code())
        store = ArrayStore.for_program(result.fused.original, 12, 12, seed=3)
        execute_fused("numpy", result.fused, 12, 12, store=store)
    return tracer, store


class TestTraceDeterminism:
    def test_span_tree_shape_identical_across_cold_runs(self):
        with obs.use_registry():
            t1, s1 = _traced_run()
            t2, s2 = _traced_run()
        assert obs.tree_shape(t1) == obs.tree_shape(t2)
        assert s1.equal(s2)

    def test_pipeline_spans_nest_under_fuse_program(self):
        with obs.use_registry():
            tracer, _ = _traced_run()
        names = [s.name for s in tracer.spans()]
        root = next(s for s in tracer.spans() if s.name == "pipeline.fuse_program")
        for child in ("pipeline.parse", "pipeline.extract", "pipeline.codegen"):
            assert child in names
            sp = next(s for s in tracer.spans() if s.name == child)
            assert sp.parent_id == root.span_id
        assert "fusion.fuse" in names and "solver.bellman_ford" in names

    def test_tracing_never_changes_results(self):
        with obs.use_registry():
            clear_all_caches()
            clear_kernel_cache()
            result = fuse_program(figure2_code())
            plain = ArrayStore.for_program(result.fused.original, 12, 12, seed=3)
            execute_fused("numpy", result.fused, 12, 12, store=plain)
            _, traced = _traced_run()
        assert plain.equal(traced)
