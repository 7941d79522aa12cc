"""The execution planner (repro.plan): the stage-mix rule and precedence.

The planner's load-bearing invariants, tested head-on:

* **Determinism** -- a decision is a pure function of the fusion kind and
  the staged-lowering stage mix.  The same program yields the same
  :class:`ExecutionPlan` with and without a store, with memoization off,
  across repeated calls and while the wall clock jumps.
* **Bit-identity** -- ``"auto"`` picks *how* to run, never *what* is
  computed: the full runnable gallery under the planner matches the
  serial interpreter exactly.
* **Compatibility** -- the removed ``parallel`` backend's name still
  works everywhere it used to (``execute_fused``, the wire, the CLI) and
  resolves like ``"auto"``.

Plus the precedence ladder (explicit > session > rule) and the bounded
per-program decision memo behind ``memory_profiles()``.
"""

from __future__ import annotations

import gc
import warnings

import pytest

from repro import obs
from repro.cli import main
from repro.codegen import apply_fusion
from repro.codegen.interp import ArrayStore, run_fused
from repro.core.backends import backend_names, execute_fused
from repro.core.session import Session, SessionCaches, SessionOptions
from repro.depend import extract_mldg
from repro.fusion import fuse
from repro.gallery.common import iir2d_code
from repro.gallery.extended import extended_kernels
from repro.gallery.paper import figure2_code
from repro.loopir import parse_program
from repro.perf.memo import clear_all_caches
from repro.plan import (
    DecisionMemo,
    Planner,
    choose_backend,
    memory_profiles,
    plan_snapshot,
)
from repro.serve.service import CompileService, ServeConfig
from repro.serve.wire import request_from_program
from repro.store import reset_open_stores


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    """No ambient store, empty decision memo, per test."""
    monkeypatch.delenv("REPRO_FUSE_STORE", raising=False)
    monkeypatch.delenv("REPRO_FUSE_MEMO", raising=False)
    clear_all_caches()
    reset_open_stores()
    memory_profiles().clear()
    yield
    clear_all_caches()
    reset_open_stores()
    memory_profiles().clear()


def _fused(source: str):
    nest = parse_program(source)
    g = extract_mldg(nest)
    result = fuse(g)
    return nest, apply_fusion(nest, result.retiming, mldg=g), result


@pytest.fixture(scope="module")
def fig2():
    return _fused(figure2_code())


def _gallery_sources():
    sources = {"fig2": figure2_code(), "iir2d": iir2d_code()}
    for k in extended_kernels():
        sources[k.key] = k.code
    return sorted(sources.items())


_GALLERY = [(key, *_fused(src)) for key, src in _gallery_sources()]
_IDS = [w[0] for w in _GALLERY]


# ------------------------------------------------------------------ #
# the rule
# ------------------------------------------------------------------ #


class TestRule:
    @pytest.mark.parametrize("mix", [(0, 0, 0), (5, 0, 0), (0, 3, 0), (1, 4, 2)])
    def test_every_non_doall_fusion_picks_numpy(self, mix):
        assert choose_backend(False, *mix)[0] == "numpy"

    def test_doall_vector_heavy_picks_numpy(self):
        assert choose_backend(True, 2, 0)[0] == "numpy"
        assert choose_backend(True, 2, 2)[0] == "numpy"

    def test_doall_row_bound_picks_compiled(self):
        assert choose_backend(True, 1, 4)[0] == "compiled"
        assert choose_backend(True, 0, 3)[0] == "compiled"
        assert choose_backend(True, 1, 1, 1)[0] == "compiled"  # scalar is row-bound

    def test_rationale_names_the_stage_mix(self):
        backend, why = choose_backend(True, 1, 4)
        assert "w1/s4/x0" in why and backend == "compiled"

    def test_anisotropic_sweep_picks_numpy(self):
        # the hyperplane kernel the old cost model sent to compiled (37x off)
        (_, _, fp, result), = [w for w in _GALLERY if w[0] == "anisotropic-sweep"]
        assert not result.is_doall
        plan = Planner().plan_execution(
            fp, 256, 256, schedule=result.schedule, is_doall=result.is_doall)
        assert (plan.backend, plan.source) == ("numpy", "rule")

    @pytest.mark.parametrize("key,nest,fp,result", _GALLERY, ids=_IDS)
    def test_same_pick_with_and_without_store_memo_and_repeats(
        self, key, nest, fp, result, tmp_path, monkeypatch
    ):
        def pick():
            return Planner().plan_execution(
                fp, 24, 24, schedule=result.schedule, is_doall=result.is_doall)

        cold = pick()
        assert pick() == cold  # memoized
        session = Session(options=SessionOptions(store_path=str(tmp_path / "s.db")),
                          caches=SessionCaches.private())
        with session.activate():
            assert pick() == cold
        monkeypatch.setenv("REPRO_FUSE_STORE", str(tmp_path / "env.db"))
        assert pick() == cold
        monkeypatch.setenv("REPRO_FUSE_MEMO", "0")
        memory_profiles().clear()
        assert pick() == cold
        assert len(memory_profiles()) == 0  # the kill switch bypasses the memo


# ------------------------------------------------------------------ #
# the decision memo behind memory_profiles()
# ------------------------------------------------------------------ #


class TestMemoryProfiles:
    def test_clear(self, fig2):
        _, fp, result = fig2
        Planner().plan_execution(fp, schedule=result.schedule, is_doall=result.is_doall)
        assert len(memory_profiles()) == 1
        memory_profiles().clear()
        assert len(memory_profiles()) == 0

    def test_bounded_eviction(self):
        memo = DecisionMemo(maxsize=2)
        programs = [_fused(figure2_code())[1] for _ in range(3)]
        for fp in programs:
            memo.put(fp, None, True, ("numpy", "x"))
        assert len(memo) == 2
        assert memo.get(programs[0], None, True) is None  # oldest evicted
        assert memo.get(programs[2], None, True) == ("numpy", "x")

    def test_keyed_by_schedule_and_kind(self, fig2):
        _, fp, _ = fig2
        memo = DecisionMemo()
        memo.put(fp, None, True, ("compiled", "x"))
        assert memo.get(fp, None, False) is None
        assert memo.get(fp, (1, 0), True) is None

    def test_dead_program_never_answers_for_a_new_one(self):
        memo = DecisionMemo()
        fp = _fused(figure2_code())[1]
        memo.put(fp, None, True, ("compiled", "x"))
        del fp
        gc.collect()
        # whatever object now sits at the recycled id, the entry is dead
        for _ in range(50):
            other = _fused(iir2d_code())[1]
            assert memo.get(other, None, True) is None


# ------------------------------------------------------------------ #
# planner decisions
# ------------------------------------------------------------------ #


def _plan(fig2, n=256, m=256, **kw):
    _, fp, result = fig2
    return Planner().plan_execution(
        fp, n, m, schedule=result.schedule, is_doall=result.is_doall, **kw)


class TestPlannerPrecedence:
    def test_explicit_wins(self, fig2):
        plan = _plan(fig2, requested="compiled", session_backend="numpy")
        assert (plan.backend, plan.source) == ("compiled", "explicit")

    def test_session_pin_wins_over_rule(self, fig2):
        plan = _plan(fig2, session_backend="interp")
        assert (plan.backend, plan.source) == ("interp", "session")

    def test_requested_auto_delegates(self, fig2):
        plan = _plan(fig2, requested="auto")
        assert plan.source == "rule"
        assert plan.backend in backend_names()

    def test_non_parallel_backend_plans_one_job(self, fig2):
        plan = _plan(fig2, requested="numpy", jobs=4)
        assert plan.jobs == 1 and plan.tile is None

    def test_deprecated_parallel_resolves_like_auto(self, fig2):
        with pytest.warns(DeprecationWarning, match="parallel"):
            plan = _plan(fig2, session_backend="parallel")
        assert plan == _plan(fig2)
        assert plan.source == "rule"


class TestPlannerDeterminism:
    def test_same_inputs_same_plan(self, fig2):
        assert _plan(fig2) == _plan(fig2)

    def test_size_does_not_change_the_pick(self, fig2):
        assert _plan(fig2, 5, 7) == _plan(fig2, 24, 24) == _plan(fig2, 256, 256)

    def test_warm_plans_repeat(self, fig2):
        cold = _plan(fig2)
        assert len(memory_profiles()) == 1
        assert _plan(fig2) == cold

    def test_no_wall_clock_leakage(self, fig2, monkeypatch):
        # decisions stay identical while the clock jumps by hours
        # between (and during) calls -- the planner never reads it
        import time as _time

        real = _time.perf_counter
        state = {"skew": 0.0}

        def jumpy():
            state["skew"] += 3600.0
            return real() + state["skew"]

        monkeypatch.setattr(_time, "perf_counter", jumpy)
        monkeypatch.setattr(_time, "time", lambda: jumpy())
        assert _plan(fig2) == _plan(fig2)

    def test_record_is_a_no_op(self, fig2):
        assert Planner().record(_plan(fig2), 0.004) is False


class TestPlannerObservability:
    def test_counters_and_snapshot(self, fig2):
        reg = obs.default_registry()
        before = reg.counter("plan.selects").value
        plan = _plan(fig2)
        assert reg.counter("plan.selects").value == before + 1
        assert reg.counter(f"plan.source.{plan.source}").value >= 1
        assert reg.counter(f"plan.backend.{plan.backend}").value >= 1
        counters = plan_snapshot()["counters"]
        assert counters["plan.selects"] == before + 1
        assert all(name.startswith("plan.") for name in counters)

    def test_select_emits_trace_span(self, fig2):
        _, fp, result = fig2
        with obs.tracing() as tracer:
            Planner().plan_execution(
                fp, 24, 24, schedule=result.schedule,
                is_doall=result.is_doall)
        (span,) = [s for s in tracer.spans() if s.name == "plan.select"]
        assert span.attributes["n"] == 24
        assert span.attributes["backend"] in backend_names()
        assert span.attributes["source"] == "rule"

    def test_plan_to_dict_is_json_shaped(self, fig2):
        d = _plan(fig2).to_dict()
        assert set(d) == {"backend", "source", "rationale"}


# ------------------------------------------------------------------ #
# bit-identity: auto vs the interpreter, across the gallery
# ------------------------------------------------------------------ #


_SIZES = [(5, 7), (17, 23)]


class TestAutoBitIdentity:
    @pytest.mark.parametrize("key,nest,fp,result", _GALLERY, ids=_IDS)
    @pytest.mark.parametrize("n,m", _SIZES, ids=[f"{n}x{m}" for n, m in _SIZES])
    def test_cold_auto_matches_interp(self, key, nest, fp, result, n, m):
        ref = ArrayStore.for_program(nest, n, m, seed=11)
        run_fused(fp, n, m, store=ref, mode="serial")
        got = ArrayStore.for_program(nest, n, m, seed=11)
        execute_fused("auto", fp, n, m, store=got,
                      schedule=result.schedule, is_doall=result.is_doall)
        assert ref.equal(got), f"auto diverged from interp on {key}"

    @pytest.mark.parametrize("key,nest,fp,result", _GALLERY, ids=_IDS)
    def test_warm_auto_matches_every_static_backend(self, key, nest, fp,
                                                    result):
        n, m = 17, 23
        ref = ArrayStore.for_program(nest, n, m, seed=11)
        run_fused(fp, n, m, store=ref, mode="serial")
        for backend in (*backend_names(), "auto"):
            got = ArrayStore.for_program(nest, n, m, seed=11)
            execute_fused(backend, fp, n, m, store=got,
                          schedule=result.schedule, is_doall=result.is_doall)
            assert ref.equal(got), f"{backend} diverged on {key}"


# ------------------------------------------------------------------ #
# the removed parallel backend's name, everywhere it was accepted
# ------------------------------------------------------------------ #


_COMPAT_SIZES = [(5, 7), (24, 24)]


@pytest.fixture(scope="module")
def wire_service():
    with CompileService(ServeConfig(workers=1)) as svc:
        yield svc


@pytest.mark.parametrize("key,nest,fp,result", _GALLERY, ids=_IDS)
@pytest.mark.parametrize("n,m", _COMPAT_SIZES, ids=[f"{n}x{m}" for n, m in _COMPAT_SIZES])
def test_parallel_name_resolves_like_auto(key, nest, fp, result, n, m,
                                          wire_service, tmp_path, capsys):
    # execute_fused: bit-identical to interp, exactly one warning
    ref = ArrayStore.for_program(nest, n, m, seed=11)
    run_fused(fp, n, m, store=ref, mode="serial")
    got = ArrayStore.for_program(nest, n, m, seed=11)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        execute_fused("parallel", fp, n, m, store=got, jobs=2, tile=16,
                      schedule=result.schedule, is_doall=result.is_doall)
    assert ref.equal(got), f"parallel diverged from interp on {key}"
    assert [w.category for w in caught] == [DeprecationWarning]

    # the repro-serve/1 wire: ok, with a concrete backend and a note
    source = dict(_gallery_sources())[key]
    resp = wire_service.handle(request_from_program(key, source, backend="parallel"))
    assert resp.status == "ok"
    assert resp.backend in backend_names()
    assert any("'parallel' was removed" in note for note in resp.notes)

    # the CLI: exit 0 with a note on stderr
    path = tmp_path / f"{key}.loop"
    path.write_text(source)
    assert main(["run", str(path), "--backend", "parallel",
                 "--size", f"{n},{m}", "--no-emit"]) == 0
    captured = capsys.readouterr()
    assert "'parallel' was removed" in captured.err
    assert "bit-identical to interpreter" in captured.out


# ------------------------------------------------------------------ #
# session integration: execute_fused through the planner
# ------------------------------------------------------------------ #


class TestSessionIntegration:
    def _session(self, path, backend="auto"):
        return Session(
            options=SessionOptions(backend=backend, store_path=str(path)),
            caches=SessionCaches.private(),
        )

    def test_auto_session_executes_bit_identically(self, tmp_path):
        session = self._session(tmp_path / "plan.db")
        out = session.fuse_program(figure2_code())
        n = m = 12
        ref = ArrayStore.for_program(out.nest, n, m, seed=11)
        run_fused(out.fused, n, m, store=ref, mode="serial")
        got = ArrayStore.for_program(out.nest, n, m, seed=11)
        session.execute_fused(out.fused, n, m, store=got,
                              schedule=out.fusion.schedule,
                              is_doall=out.fusion.is_doall)
        assert ref.equal(got)
        session.caches.store.close()

    def test_explicit_backend_skips_planner_choice(self, tmp_path):
        session = self._session(tmp_path / "plan.db")
        out = session.fuse_program(figure2_code())
        reg = obs.default_registry()
        before = reg.counter("plan.source.explicit").value
        got = ArrayStore.for_program(out.nest, 12, 12, seed=11)
        session.execute_fused(out.fused, 12, 12, store=got,
                              backend="compiled",
                              schedule=out.fusion.schedule,
                              is_doall=out.fusion.is_doall)
        assert reg.counter("plan.source.explicit").value == before + 1
        session.caches.store.close()

    def test_pinned_session_backend_reports_session_source(self, tmp_path):
        session = self._session(tmp_path / "plan.db", backend="interp")
        out = session.fuse_program(figure2_code())
        reg = obs.default_registry()
        before = reg.counter("plan.source.session").value
        got = ArrayStore.for_program(out.nest, 12, 12, seed=11)
        session.execute_fused(out.fused, 12, 12, store=got,
                              schedule=out.fusion.schedule,
                              is_doall=out.fusion.is_doall)
        assert reg.counter("plan.source.session").value == before + 1
        session.caches.store.close()
