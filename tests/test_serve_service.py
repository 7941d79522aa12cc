"""The fault-tolerant compile service (repro.serve.service).

The chaos-marked tests SIGKILL and hang real worker processes through the
seeded request-level fault specs; deselect with ``-m "not chaos"``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.gallery.common import iir2d_code
from repro.gallery.extended import extended_kernels
from repro.gallery.paper import figure2_code
from repro.serve import worker as serve_worker
from repro.serve.breaker import BreakerState, CircuitBreaker
from repro.serve.service import CompileService, ServeConfig
from repro.serve.wire import (
    SV003,
    SV004,
    SV005,
    SV006,
    SV007,
    CompileRequest,
    CompileResponse,
    request_from_program,
)

BAD_SOURCE = "this is ( not a loop program"


def _crash_spec(seed: int = 0, probability: float = 1.0) -> dict:
    return {"injector": "WorkerCrash", "seed": seed, "probability": probability}


def _hang_spec(seed: int = 0, hang_s: float = 30.0) -> dict:
    return {"injector": "WorkerHang", "seed": seed, "hang_s": hang_s}


@pytest.fixture(scope="module")
def service():
    with CompileService(ServeConfig(workers=2)) as svc:
        yield svc


@pytest.fixture()
def chaos_service():
    with CompileService(
        ServeConfig(workers=2, allow_faults=True, backoff_base_ms=1.0)
    ) as svc:
        yield svc


class TestHappyPath:
    def test_strict_compile(self, service):
        resp = service.handle(request_from_program("fig2", figure2_code()))
        assert resp.status == "ok" and resp.well_formed
        assert resp.strategy is not None and resp.parallelism == "doall"
        assert resp.attempts == 1 and resp.retries == 0
        assert resp.structural_hash and resp.trace_id
        assert resp.worker_pid is not None

    def test_resilient_compile(self, service):
        resp = service.handle(
            request_from_program("fig2", figure2_code(), resilient=True)
        )
        assert resp.status == "ok" and resp.well_formed
        assert resp.rung == "doall"

    def test_typed_compile_error_is_not_retried(self, service):
        resp = service.handle(request_from_program("bad", BAD_SOURCE))
        assert resp.status == "error" and resp.well_formed
        assert resp.error["type"] == "ParseError"
        assert resp.attempts == 1 and resp.retries == 0

    def test_handle_dict_malformed_request(self, service):
        resp = CompileResponse.from_dict(service.handle_dict({"nope": 1}))
        assert resp.status == "error" and resp.code == SV006
        assert resp.well_formed
        resp2 = CompileResponse.from_dict(service.handle_dict("not a dict"))
        assert resp2.code == SV006

    def test_fault_specs_ignored_without_chaos_mode(self, service):
        # a hostile request cannot SIGKILL production workers
        resp = service.handle(
            request_from_program("fig2", figure2_code(), fault=_crash_spec())
        )
        assert resp.status == "ok"
        assert resp.worker_crashes == 0

    def test_snapshot_shape(self, service):
        snap = service.snapshot()
        assert snap["workers"] == 2
        assert snap["workerRestarts"] == 0
        assert "inflight" in snap["admission"]
        assert "trips" in snap["breaker"]


class TestRefusals:
    def test_quota_exhaustion_sheds_with_retry_after(self):
        with CompileService(ServeConfig(workers=1, max_inflight=1)) as svc:
            ticket = svc.admission.try_admit()  # occupy the only slot
            try:
                resp = svc.handle(request_from_program("fig2", figure2_code()))
            finally:
                ticket.release()
            assert resp.status == "shed" and resp.code == SV003
            assert resp.retry_after_ms >= 1.0
            assert resp.well_formed
            # after release the same request is admitted and served
            assert svc.handle(
                request_from_program("fig2", figure2_code())
            ).status == "ok"

    def test_open_breaker_rejects_with_retry_after(self, service):
        req = request_from_program("fig2", figure2_code())
        key = service._class_key(req.digest)
        for _ in range(service.config.breaker_threshold):
            service.breaker.record_failure(key)
        try:
            resp = service.handle(req)
            assert resp.status == "rejected" and resp.code == SV004
            assert resp.retry_after_ms >= 1.0
            assert resp.well_formed
        finally:
            service.breaker.record_success(key)

    def test_internal_error_never_escapes_handle(self, service, monkeypatch):
        monkeypatch.setattr(
            service.breaker, "allow",
            lambda key: (_ for _ in ()).throw(RuntimeError("supervisor bug")),
        )
        resp = service.handle(request_from_program("fig2", figure2_code()))
        assert resp.status == "error" and resp.well_formed
        assert resp.error["type"] == "RuntimeError"
        assert resp.code == SV007  # the server's fault, mapped to HTTP 500

    def test_uncharged_probe_path_does_not_wedge_the_class(self, monkeypatch):
        """REVIEW.md high: a half-open probe whose request ends on a path
        that neither succeeds nor is charged as a failure (queue timeout,
        internal error, fallback) must re-open the
        class, not leave it rejecting everyone forever."""
        with CompileService(
            ServeConfig(workers=1, breaker_cooldown_ms=300.0)
        ) as svc:
            req = request_from_program("fig2", figure2_code())
            key = svc._class_key(req.digest)
            for _ in range(svc.config.breaker_threshold):
                svc.breaker.record_failure(key)
            time.sleep(0.35)  # cooldown elapses; next request is the probe
            monkeypatch.setattr(
                svc, "_dispatch",
                lambda *a: (_ for _ in ()).throw(RuntimeError("uncharged")),
            )
            probe = svc.handle(req)
            assert probe.status == "error" and probe.code == SV007
            monkeypatch.undo()
            # the probe resolved: the class re-opened with a fresh
            # cooldown instead of sticking HALF_OPEN behind a dead probe
            assert svc.breaker.state(key) is BreakerState.OPEN
            rejected = svc.handle(req)
            assert rejected.status == "rejected" and rejected.code == SV004
            time.sleep(0.35)  # after the re-armed cooldown, service resumes
            resp = svc.handle(req)
            assert resp.status == "ok" and resp.well_formed


class TestConfigLadder:
    def test_config_ladder_rides_the_wire_to_workers(self):
        """ServeConfig.ladder must shape *worker* compiles, not only the
        in-process fallback, or the two paths diverge for one config."""
        with CompileService(
            ServeConfig(workers=1, ladder="conservative")
        ) as svc:
            resp = svc.handle(
                request_from_program("fig2", figure2_code(), resilient=True)
            )
            assert resp.status == "ok" and resp.worker_pid is not None
            # the conservative descent tops out at the partition rung
            assert resp.rung == "partition"
            # a request carrying its own ladder still wins
            own = svc.handle(
                request_from_program(
                    "fig2", figure2_code(), resilient=True,
                    ladder=("doall", "none"),
                )
            )
            assert own.status == "ok" and own.rung == "doall"

    def test_unknown_ladder_variant_fails_at_construction(self):
        with pytest.raises(KeyError):
            CompileService(ServeConfig(workers=1, ladder="no-such-variant"))


class TestAliasMapBound:
    def test_alias_map_is_lru_capped(self, monkeypatch):
        import repro.serve.service as service_mod

        monkeypatch.setattr(service_mod, "MAX_HASH_ALIASES", 3)
        # a bare instance: _learn_hash touches only these three attributes
        svc = CompileService.__new__(CompileService)
        svc._alias_lock = threading.Lock()
        svc._hash_by_digest = OrderedDict()
        svc.breaker = CircuitBreaker()
        for i in range(10):
            svc._learn_hash(f"digest{i}", f"hash{i}")
        assert len(svc._hash_by_digest) == 3
        assert svc._class_key("digest9") == "hash9"  # newest survive
        assert svc._class_key("digest0") == "digest0"  # oldest evicted


@pytest.mark.chaos
class TestSupervision:
    def test_always_crashing_request_degrades_via_fallback(self, chaos_service):
        resp = chaos_service.handle(
            request_from_program("fig2", figure2_code(), fault=_crash_spec())
        )
        assert resp.status == "degraded" and resp.code == SV005
        assert resp.well_formed
        assert resp.rung is not None and resp.recovery is not None
        assert resp.worker_crashes == chaos_service.config.max_attempts
        # the workers survived: a clean request compiles right after
        after = chaos_service.handle(request_from_program("ok", iir2d_code()))
        assert after.status == "ok"

    def test_seeded_crash_spares_the_retry(self, chaos_service):
        # seed 1, p=0.5: Random(1+0) kills attempt 0, Random(1+1) spares
        # attempt 1 -- the retry itself succeeds, deterministically
        resp = chaos_service.handle(
            request_from_program(
                "fig2", figure2_code(),
                fault=_crash_spec(seed=1, probability=0.5),
            )
        )
        assert resp.status == "ok" and resp.well_formed
        assert resp.attempts == 2 and resp.worker_crashes == 1
        assert any("attempt 2" in note for note in resp.notes)

    def test_hung_worker_times_out_and_only_it_is_restarted(self, chaos_service):
        restarts_before = chaos_service.supervisor.restarts
        resp = chaos_service.handle(
            request_from_program(
                "fig2", figure2_code(),
                deadline_ms=1200.0, fault=_hang_spec(),
            )
        )
        assert resp.well_formed
        assert resp.status == "degraded" and resp.timeouts == 1
        assert chaos_service.supervisor.restarts == restarts_before + 1
        after = chaos_service.handle(request_from_program("ok", iir2d_code()))
        assert after.status == "ok"


def _side_by_side(svc, faulty):
    """Serve ``faulty`` and a clean request concurrently on ``svc``'s two
    workers; the two responses and the worker pids before and after."""
    before = svc.supervisor.pids()
    clean = request_from_program("clean", iir2d_code())
    with ThreadPoolExecutor(max_workers=2) as clients:
        bad_resp, clean_resp = clients.map(svc.handle, [faulty, clean])
    return bad_resp, clean_resp, before, svc.supervisor.pids()


@pytest.mark.chaos
class TestContainment:
    """A fault on one worker costs only the request that was on it."""

    def test_crash_leaves_the_concurrent_request_alone(self):
        # one attempt, so the crashing request cannot retry onto the
        # worker the clean one has just handed back
        with CompileService(
            ServeConfig(workers=2, allow_faults=True, max_attempts=1)
        ) as svc:
            crash, clean, before, after = _side_by_side(
                svc, request_from_program("fig2", figure2_code(), fault=_crash_spec())
            )
        assert clean.status == "ok" and clean.attempts == 1
        assert clean.worker_crashes == 0
        assert crash.status == "degraded" and crash.worker_crashes == 1
        assert clean.worker_pid in before and clean.worker_pid in after
        assert len(set(before) & set(after)) == 1  # only one worker restarted

    def test_hang_leaves_the_concurrent_request_alone(self, chaos_service):
        hang, clean, before, after = _side_by_side(
            chaos_service,
            request_from_program(
                "fig2", figure2_code(), deadline_ms=1200.0, fault=_hang_spec()
            ),
        )
        assert clean.status == "ok" and clean.attempts == 1
        assert clean.worker_crashes == 0 and clean.timeouts == 0
        assert hang.status == "degraded" and hang.timeouts == 1
        assert clean.worker_pid in before and clean.worker_pid in after
        assert len(set(before) & set(after)) == 1  # only the hung one went


def _reference_responses(requests):
    """Serial in-process compiles of the distinct clean workloads."""
    reference = {}
    for req in requests:
        key = (req.source, req.resilient)
        if key in reference:
            continue
        clean = CompileRequest(
            source=req.source, name=req.name, strategy=req.strategy,
            resilient=req.resilient, emit=True,
        )
        reference[key] = CompileResponse.from_dict(
            serve_worker.compile_request(clean.to_dict())
        )
    return reference


@pytest.mark.chaos
class TestAcceptance:
    def test_chaos_run_stays_well_formed_and_bit_identical(self):
        """The PR's acceptance scenario: 50 concurrent requests with a
        seeded worker SIGKILL *and* an injected hang mid-run -- every
        response well-formed, the supervisor never crashes, and every
        successful result is bit-identical to a serial compile."""
        workloads = [("figure2", figure2_code()), ("iir2d", iir2d_code())]
        workloads += [(k.key, k.code) for k in extended_kernels()]
        requests = []
        for k in range(50):
            name, source = workloads[k % len(workloads)]
            fault = None
            deadline = 10_000.0
            if k in (7, 21, 35):  # seeded SIGKILLs mid-batch
                fault = _crash_spec(seed=5 + k, probability=0.5)
            elif k in (14, 28):  # injected hangs (deadline cuts them)
                fault = _hang_spec(seed=5 + k)
                deadline = 1_500.0
            requests.append(
                request_from_program(
                    f"{name}#{k}", source,
                    resilient=(k % 3 == 2), deadline_ms=deadline, fault=fault,
                )
            )
        with CompileService(
            ServeConfig(workers=2, allow_faults=True, backoff_base_ms=1.0)
        ) as svc:
            with ThreadPoolExecutor(max_workers=8) as clients:
                responses = list(clients.map(svc.handle, requests))
            snap = svc.snapshot()
            # the supervisor survived; the workers still serve
            final = svc.handle(request_from_program("final", figure2_code()))

        assert len(responses) == 50
        malformed = [r.name for r in responses if not r.well_formed]
        assert not malformed, f"malformed responses: {malformed}"
        infra_errors = [
            (r.name, (r.error or {}).get("type"), (r.error or {}).get("message"))
            for r in responses
            if r.status == "error"
        ]
        assert not infra_errors, f"unexpected errors: {infra_errors}"
        assert final.status == "ok"
        assert snap["workerRestarts"] >= 1  # the chaos really bit

        reference = _reference_responses(requests)
        for req, resp in zip(requests, responses):
            if resp.status != "ok":
                continue
            ref = reference[(req.source, req.resilient)]
            assert resp.strategy == ref.strategy, req.name
            assert resp.parallelism == ref.parallelism, req.name
            assert resp.rung == ref.rung, req.name
            assert resp.retiming == ref.retiming, req.name
            assert resp.structural_hash == ref.structural_hash, req.name
            assert resp.emitted == ref.emitted, req.name
