"""Session behavior: options, ladder variants, caches, activation, obs."""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.context import current_session
from repro.core.session import (
    LADDER_VARIANTS,
    Session,
    SessionCaches,
    SessionOptions,
)
from repro.gallery.common import iir2d_code
from repro.gallery.paper import figure2_code
from repro.perf.memo import fusion_cache
from repro.pipeline import fuse_program


def test_default_session_matches_legacy_entry_point():
    source = figure2_code()
    legacy = fuse_program(source)
    out = Session().fuse_program(source)
    assert out.fusion.strategy == legacy.fusion.strategy
    assert out.fusion.parallelism == legacy.fusion.parallelism
    assert out.fusion.retiming.as_dict() == legacy.fusion.retiming.as_dict()
    assert out.emitted_code() == legacy.emitted_code()
    assert [d.to_dict() for d in out.diagnostics] == [
        d.to_dict() for d in legacy.diagnostics
    ]


def test_pass_names_exposed():
    assert Session().pass_names == (
        "parse",
        "validate",
        "lint",
        "extract-mldg",
        "prune-mldg",
        "legality",
        "fuse",
        "verify-retiming",
        "codegen",
    )


def test_options_default_strategy_respected():
    session = Session(options=SessionOptions(strategy="legal-only"))
    out = session.fuse_program(figure2_code())
    assert out.fusion.strategy.value == "legal-only"
    # per-call override wins over the session default
    out2 = session.fuse_program(figure2_code(), strategy="cyclic")
    assert out2.fusion.strategy.value == "cyclic"


@pytest.mark.parametrize(
    "variant, expected_rung",
    [
        ("full", "doall"),
        pytest.param(
            ("legal-only", "partition", "none"), "legal-only", id="serial-legal-only"
        ),
        ("conservative", "partition"),
    ],
)
def test_ladder_variants_select_the_descent(variant, expected_rung):
    session = Session(options=SessionOptions(ladder=variant))
    out = session.fuse_program_resilient(figure2_code())
    assert out.rung.label == expected_rung
    attempted = {a.rung.label for a in out.report.attempts}
    allowed = set(session.options.ladder_labels())
    assert attempted <= allowed


def test_explicit_rung_tuple_ladder():
    session = Session(options=SessionOptions(ladder=("legal-only", "none")))
    out = session.fuse_program_resilient(figure2_code())
    assert out.rung.label == "legal-only"


def test_unknown_ladder_variant_raises():
    with pytest.raises(KeyError, match="unknown ladder variant"):
        SessionOptions(ladder="nope").ladder_labels()


def test_no_session_keeps_default_descent():
    out = fuse_program(figure2_code())  # strict path, sanity anchor
    assert out.fusion.parallelism.value == "doall"
    from repro.resilience.pipeline import fuse_program_resilient

    res = fuse_program_resilient(figure2_code())
    assert res.rung.label == "doall"


def test_activate_sets_and_restores_ambient_session():
    session = Session()
    assert current_session() is None
    with session.activate():
        assert current_session() is session
        # re-entrant: activating the active session is a no-op
        with session.activate():
            assert current_session() is session
        assert current_session() is session
    assert current_session() is None


def test_private_caches_do_not_touch_process_cache():
    source = iir2d_code()
    process_cache = fusion_cache()
    before = process_cache.cache_info()
    session = Session(caches=SessionCaches.private())
    session.fuse_program(source)
    session.fuse_program(source)  # second run: session-cache hit
    with session.activate():
        info = fusion_cache().cache_info()
    assert fusion_cache() is process_cache
    assert info.hits >= 1
    after = process_cache.cache_info()
    assert after.misses == before.misses
    assert after.currsize == before.currsize


def test_isolated_session_registry_keeps_process_registry_clean():
    registry = obs.MetricsRegistry()
    session = Session(registry=registry, caches=SessionCaches.private())
    default = obs.default_registry()
    before = default.counter("core.pass.fuse.runs").value
    session.fuse_program(figure2_code())
    assert registry.counter("core.pass.fuse.runs").value == 1
    assert default.counter("core.pass.fuse.runs").value == before


def test_session_tracer_collects_pipeline_spans():
    tracer = obs.Tracer()
    out = Session(tracer=tracer).fuse_program(figure2_code())
    assert out.fused is not None
    names = [s.name for s in tracer.spans()]
    assert "pipeline.fuse_program" in names
    for name in ("pipeline.parse", "pipeline.lint", "pipeline.codegen"):
        assert name in names


def test_session_diagnostics_accumulate_and_clear():
    session = Session()
    session.fuse_program(figure2_code())
    n1 = len(session.diagnostics)
    assert n1 > 0
    session.fuse_program(figure2_code())
    assert len(session.diagnostics) == 2 * n1
    session.clear_diagnostics()
    assert session.diagnostics == []


def test_graph_level_fuse_uses_session_budget():
    from repro.gallery.paper import figure2_mldg
    from repro.resilience.budget import Budget, BudgetExceededError

    ok = Session().fuse(figure2_mldg())
    assert ok.parallelism.value == "doall"
    strangled = Session(budget=Budget(max_nodes=1))
    with pytest.raises(BudgetExceededError):
        strangled.fuse(figure2_mldg())


def test_session_owned_fault_injector_is_active_inside_activation():
    from repro.resilience import faults
    from repro.resilience.faults import RetimingDrop

    session = Session(
        options=SessionOptions(injector=RetimingDrop(), fault_seed=7)
    )
    assert faults.active_fault() is None
    with session.activate():
        fault = faults.active_fault()
        assert fault is not None
        assert isinstance(fault.injector, RetimingDrop)
        assert fault.seed == 7
    assert faults.active_fault() is None
    # the resilient pipeline under an injected fault still degrades safely
    out = session.fuse_program_resilient(figure2_code())
    assert out.rung.label in {r for rungs in LADDER_VARIANTS.values() for r in rungs}


def test_top_level_session_export():
    import repro

    assert repro.Session is Session
    assert "Session" in repro.__all__
