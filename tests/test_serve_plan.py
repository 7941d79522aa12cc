"""Planner integration at the serve layer (docs/PLANNING.md).

The wire grew two additive response fields (``backend``, ``plan``) and
the config/request grew ``"auto"``; the invariants under test:

* **Explicit wins, always** -- a request that names a concrete backend
  is echoed verbatim, untouched by a ``ServeConfig(backend="auto")``,
  and the guarantee survives worker crash-retry re-dispatch (the wire
  payload is rebuilt per attempt).
* **Auto resolves server-side** -- a request that left the backend at
  the wire default inherits the config backend; ``"auto"`` comes back
  as a *concrete* backend with the :class:`ExecutionPlan` dict attached,
  so clients never have to interpret ``"auto"`` themselves.

The chaos-marked tests SIGKILL real pool workers; deselect with
``-m "not chaos"``.
"""

from __future__ import annotations

import pytest

from repro.core.backends import backend_names
from repro.gallery.paper import figure2_code
from repro.serve.loadgen import LoadgenOptions, render_report_text, run_loadgen
from repro.serve.service import CompileService, ServeConfig
from repro.serve.wire import (
    CompileRequest,
    CompileResponse,
    WireError,
    request_from_program,
)


def _crash_spec(seed: int = 0, probability: float = 1.0) -> dict:
    return {"injector": "WorkerCrash", "seed": seed, "probability": probability}


@pytest.fixture(scope="module")
def auto_service():
    with CompileService(ServeConfig(workers=2, backend="auto")) as svc:
        yield svc


@pytest.fixture()
def auto_chaos_service():
    with CompileService(
        ServeConfig(
            workers=2, backend="auto", allow_faults=True, backoff_base_ms=1.0
        )
    ) as svc:
        yield svc


# ------------------------------------------------------------------ #
# wire-level contract
# ------------------------------------------------------------------ #


class TestWire:
    def test_request_accepts_auto(self):
        req = request_from_program("fig2", figure2_code(), backend="auto")
        assert CompileRequest.from_dict(req.to_dict()).backend == "auto"

    def test_request_rejects_unknown_backend(self):
        with pytest.raises(WireError) as err:
            request_from_program("fig2", figure2_code(), backend="gpu")
        assert "auto" in str(err.value)  # the error lists the legal set

    def test_response_roundtrips_backend_and_plan(self):
        resp = CompileResponse(
            status="ok",
            name="fig2",
            backend="numpy",
            plan={"backend": "numpy", "source": "rule", "rationale": "x"},
        )
        clone = CompileResponse.from_dict(resp.to_dict())
        assert clone.backend == "numpy"
        assert clone.plan == {"backend": "numpy", "source": "rule", "rationale": "x"}

    def test_fields_are_additive(self):
        # an old-format document without the new keys still parses
        doc = CompileResponse(status="ok", name="fig2").to_dict()
        doc.pop("backend", None)
        doc.pop("plan", None)
        clone = CompileResponse.from_dict(doc)
        assert clone.backend is None and clone.plan is None

    def test_service_validates_config_backend(self):
        # fails fast, before any worker process exists
        with pytest.raises(ValueError) as err:
            CompileService(ServeConfig(workers=1, backend="gpu"))
        assert "auto" in str(err.value)
        assert ServeConfig(workers=1, backend="auto").backend == "auto"


# ------------------------------------------------------------------ #
# resolution through the service
# ------------------------------------------------------------------ #


class TestResolution:
    def test_config_auto_resolves_to_concrete_backend(self, auto_service):
        resp = auto_service.handle(request_from_program("fig2", figure2_code()))
        assert resp.status == "ok"
        assert resp.backend in backend_names()  # never "auto" on the wire out
        assert resp.plan is not None
        assert resp.plan["backend"] == resp.backend
        assert resp.plan["source"] == "rule"
        assert resp.plan["rationale"]

    def test_explicit_request_backend_wins_over_auto_config(self, auto_service):
        resp = auto_service.handle(
            request_from_program("fig2", figure2_code(), backend="numpy")
        )
        assert resp.status == "ok"
        assert resp.backend == "numpy"
        assert resp.plan is None  # nothing was planned on the client's behalf

    def test_requested_auto_resolves_even_with_concrete_config(self):
        with CompileService(ServeConfig(workers=1, backend="compiled")) as svc:
            resp = svc.handle(
                request_from_program("fig2", figure2_code(), backend="auto")
            )
            assert resp.status == "ok"
            assert resp.backend in backend_names()
            assert resp.plan is not None

    def test_default_config_echoes_wire_default(self):
        with CompileService(ServeConfig(workers=1)) as svc:
            resp = svc.handle(request_from_program("fig2", figure2_code()))
            assert resp.status == "ok"
            assert resp.backend == "interp" and resp.plan is None

    def test_resilient_path_resolves_auto_too(self, auto_service):
        resp = auto_service.handle(
            request_from_program("fig2", figure2_code(), resilient=True)
        )
        assert resp.status == "ok"
        assert resp.backend in backend_names()

    def test_snapshot_carries_plan_block(self, auto_service):
        auto_service.handle(request_from_program("fig2", figure2_code()))
        snap = auto_service.snapshot()
        assert snap["plan"]["backend"] == "auto"
        assert isinstance(snap["plan"]["counters"], dict)


# ------------------------------------------------------------------ #
# the guarantee under fire: crash-retry re-dispatch
# ------------------------------------------------------------------ #


@pytest.mark.chaos
class TestCrashRetry:
    def test_explicit_backend_survives_redispatch(self, auto_chaos_service):
        # seed 1, p=0.5: attempt 0 is killed, attempt 1 is spared -- the
        # request is *rebuilt* for the retry, and the explicit backend
        # must ride along instead of decaying to the config's "auto"
        resp = auto_chaos_service.handle(
            request_from_program(
                "fig2", figure2_code(),
                backend="compiled", fault=_crash_spec(seed=1, probability=0.5),
            )
        )
        assert resp.status == "ok" and resp.attempts == 2
        assert resp.worker_crashes == 1
        assert resp.backend == "compiled"
        assert resp.plan is None

    def test_auto_still_resolves_after_redispatch(self, auto_chaos_service):
        resp = auto_chaos_service.handle(
            request_from_program(
                "fig2", figure2_code(),
                fault=_crash_spec(seed=1, probability=0.5),
            )
        )
        assert resp.status == "ok" and resp.attempts == 2
        assert resp.backend in backend_names()
        assert resp.plan is not None and resp.plan["backend"] == resp.backend

    def test_fallback_ladder_still_honors_explicit_backend(self):
        # every worker attempt crashes -> the in-process fallback serves
        # the request, and the explicit backend survives even that
        with CompileService(
            ServeConfig(
                workers=1, backend="auto", allow_faults=True,
                backoff_base_ms=1.0, max_attempts=2,
            )
        ) as svc:
            resp = svc.handle(
                request_from_program(
                    "fig2", figure2_code(),
                    backend="numpy", fault=_crash_spec(seed=0, probability=1.0),
                )
            )
            assert resp.status == "degraded"  # served by the fallback
            assert resp.backend == "numpy"
            assert resp.plan is None


# ------------------------------------------------------------------ #
# loadgen: the plan block in BENCH_serve.json
# ------------------------------------------------------------------ #


class TestLoadgenPlanBlock:
    def test_report_counts_auto_requests(self, tmp_path):
        report = run_loadgen(
            LoadgenOptions(
                requests=6, concurrency=3, workers=1, auto_every=2,
                out=str(tmp_path / "serve.json"),
            )
        )
        plan = report["plan"]
        assert plan["autoRequests"] == 3  # requests 0, 2, 4
        assert sum(plan["byBackend"].values()) == 6
        assert all(b != "auto" for b in plan["byBackend"])
        assert plan["sample"] is not None
        assert plan["sample"]["source"] == "rule"
        assert report["options"]["autoEvery"] == 2
        assert "plan:" in render_report_text(report)

    def test_auto_disabled_by_default(self, tmp_path):
        report = run_loadgen(
            LoadgenOptions(requests=4, concurrency=2, workers=1)
        )
        assert report["plan"]["autoRequests"] == 0
        assert report["plan"]["sample"] is None
