"""The serving benchmark: ``repro-fuse loadgen`` -> ``BENCH_serve.json``.

Fires a closed-loop, multi-threaded stream of compile requests at a
service -- either a daemon it spawns itself (the default; chaos allowed)
or an already-running one via ``--url`` -- and reports throughput, p50/p99
latency, and the full outcome breakdown (ok/degraded/error/shed/rejected,
retries, worker crashes, timeouts).

The chaos knobs are the acceptance scenario from docs/SERVING.md: with
``chaos_kills``/``chaos_hangs`` > 0 the first so-many requests carry
seeded :class:`~repro.resilience.faults.WorkerCrash` /
:class:`~repro.resilience.faults.WorkerHang` specs, and the run asserts
that *every* response still comes back well-formed -- fused, ladder-
degraded with a recovery report, or a typed shed/rejection.

Every request mixes over the gallery workloads (paper Figure 2, the IIR
filter, and the six extended kernels), so the stream exercises cyclic,
acyclic and partitioned strategies at once.

With ``store_path`` set the spawned daemon shares a persistent store
(:mod:`repro.store`) across its workers, and ``warm_passes > 1`` replays
the same request stream again against the same daemon: the report then
carries a per-pass latency block (``passes``) plus the store's counters
(inside ``service.store``), so cold-vs-warm serving cost is one loadgen
invocation -- see docs/CACHING.md.
"""

from __future__ import annotations

import json
import platform
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["LoadgenOptions", "run_loadgen", "BENCH_SCHEMA"]

BENCH_SCHEMA = "repro-bench-serve/1"


@dataclass
class LoadgenOptions:
    """Knobs for one loadgen run (CLI flags map 1:1)."""

    requests: int = 50
    concurrency: int = 8
    workers: int = 2
    deadline_ms: float = 10_000.0
    resilient_every: int = 3  # every Nth request runs the resilient pipeline
    chaos_kills: int = 0  # requests carrying a seeded WorkerCrash
    chaos_hangs: int = 0  # requests carrying a seeded WorkerHang
    hang_s: float = 30.0  # how long an injected hang sleeps (deadline cuts it)
    hang_deadline_ms: float = 1_500.0  # tighter deadline for hang requests
    seed: int = 0
    url: Optional[str] = None  # target a running daemon instead of spawning
    emit: bool = False  # carrying emitted code inflates payloads; off for bench
    max_inflight: Optional[int] = None
    out: Optional[str] = None  # write BENCH_serve.json here
    store_path: Optional[str] = None  # shared persistent store for the daemon
    warm_passes: int = 1  # replay the stream N times (store warm-up measure)
    auto_every: int = 0  # every Nth request asks backend="auto" (0 = never)


def _workloads() -> List[Tuple[str, str]]:
    """(name, source) pairs the request stream cycles over."""
    from repro.gallery.common import iir2d_code
    from repro.gallery.extended import extended_kernels
    from repro.gallery.paper import figure2_code

    pairs = [("figure2", figure2_code()), ("iir2d", iir2d_code())]
    pairs.extend((k.key, k.code) for k in extended_kernels())
    return pairs


def _build_requests(opts: LoadgenOptions) -> List[Dict[str, Any]]:
    """The deterministic request stream (chaos specs up front, so the
    faults land while the pool is busiest)."""
    from repro.serve.wire import request_from_program

    workloads = _workloads()
    reqs: List[Dict[str, Any]] = []
    for k in range(opts.requests):
        name, source = workloads[k % len(workloads)]
        fault: Optional[Dict[str, Any]] = None
        deadline = opts.deadline_ms
        if k < opts.chaos_kills:
            # probability 0.5: the seeded rng kills some attempts and
            # spares others, exercising the retry path deterministically
            fault = {
                "injector": "WorkerCrash",
                "seed": opts.seed + k,
                "probability": 0.5,
            }
        elif k < opts.chaos_kills + opts.chaos_hangs:
            fault = {
                "injector": "WorkerHang",
                "seed": opts.seed + k,
                "hang_s": opts.hang_s,
            }
            deadline = opts.hang_deadline_ms
        req = request_from_program(
            f"{name}#{k}",
            source,
            resilient=(k % max(1, opts.resilient_every) == 0),
            deadline_ms=deadline,
            fault=fault,
            backend=(
                "auto"
                if opts.auto_every > 0 and k % opts.auto_every == 0
                else "interp"
            ),
        )
        d = req.to_dict()
        d["emit"] = opts.emit
        reqs.append(d)
    return reqs


@dataclass
class _Outcome:
    response: Dict[str, Any]
    latency_ms: float
    http_status: Optional[int] = None


class _Client:
    """Dispatch seam: in-process service, spawned daemon, or remote URL."""

    def __init__(self, opts: LoadgenOptions) -> None:
        self._opts = opts
        self._daemon = None
        self._url = opts.url
        if self._url is None:
            from repro.serve.daemon import ServeDaemon
            from repro.serve.service import ServeConfig

            chaos = opts.chaos_kills > 0 or opts.chaos_hangs > 0
            self._daemon = ServeDaemon(
                ServeConfig(
                    workers=opts.workers,
                    max_inflight=opts.max_inflight,
                    default_deadline_ms=opts.deadline_ms,
                    allow_faults=chaos,
                    seed=opts.seed,
                    store_path=opts.store_path,
                )
            ).start()
            self._url = self._daemon.url

    @property
    def url(self) -> str:
        assert self._url is not None
        return self._url

    def send(self, req: Dict[str, Any]) -> _Outcome:
        import urllib.error
        import urllib.request

        data = json.dumps(req).encode("utf-8")
        http_req = urllib.request.Request(
            self.url + "/v1/compile",
            data=data,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        t0 = time.perf_counter()
        try:
            with urllib.request.urlopen(http_req, timeout=120) as resp:
                body = json.loads(resp.read())
                status = resp.status
        except urllib.error.HTTPError as exc:
            body = json.loads(exc.read())
            status = exc.code
        return _Outcome(
            response=body,
            latency_ms=(time.perf_counter() - t0) * 1000.0,
            http_status=status,
        )

    def snapshot(self) -> Optional[Dict[str, Any]]:
        if self._daemon is not None:
            return self._daemon.service.snapshot()
        return None

    def close(self) -> None:
        if self._daemon is not None:
            self._daemon.shutdown()


def _percentile(sorted_ms: List[float], q: float) -> float:
    if not sorted_ms:
        return 0.0
    idx = min(len(sorted_ms) - 1, max(0, round(q * (len(sorted_ms) - 1))))
    return sorted_ms[int(idx)]


def platform_block() -> Dict[str, Any]:
    """The ``platform`` object stamped into benchmark documents.

    Includes the array/graph library versions (``numpy``, ``networkx``):
    perf trajectories are uninterpretable without them.  networkx is only
    a test dependency, so a runtime without it reports ``"absent"``.
    """
    import os
    from importlib import metadata

    import numpy

    try:
        networkx = metadata.version("networkx")
    except metadata.PackageNotFoundError:
        networkx = "absent"
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpuCount": os.cpu_count(),
        "numpy": numpy.__version__,
        "networkx": networkx,
    }


def run_loadgen(opts: Optional[LoadgenOptions] = None) -> Dict[str, Any]:
    """Run the benchmark; returns (and optionally writes) the report."""
    from repro.serve.wire import CompileResponse

    opts = opts if opts is not None else LoadgenOptions()
    requests = _build_requests(opts)
    client = _Client(opts)
    passes = max(1, opts.warm_passes)
    pass_blocks: List[Dict[str, Any]] = []
    done: List[_Outcome] = []

    def run_pass() -> Tuple[List[_Outcome], float]:
        outcomes: List[Optional[_Outcome]] = [None] * len(requests)
        cursor = {"next": 0}
        lock = threading.Lock()

        def drain() -> None:
            while True:
                with lock:
                    k = cursor["next"]
                    if k >= len(requests):
                        return
                    cursor["next"] = k + 1
                outcomes[k] = client.send(requests[k])

        t0 = time.perf_counter()
        threads = [
            threading.Thread(target=drain, name=f"loadgen-{i}", daemon=True)
            for i in range(max(1, opts.concurrency))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        got = [o for o in outcomes if o is not None]
        assert len(got) == len(requests), "every request must produce an outcome"
        return got, wall

    wall_s = 0.0
    try:
        for p in range(passes):
            got, pass_wall = run_pass()
            done.extend(got)
            wall_s += pass_wall
            lat = sorted(o.latency_ms for o in got)
            pass_blocks.append({
                "pass": p,
                "wallS": round(pass_wall, 3),
                "latencyMs": {
                    "p50": round(_percentile(lat, 0.50), 3),
                    "p99": round(_percentile(lat, 0.99), 3),
                    "mean": round(sum(lat) / len(lat), 3) if lat else 0.0,
                },
            })
        service_snapshot = client.snapshot()
    finally:
        client.close()
    by_status: Dict[str, int] = {}
    by_backend: Dict[str, int] = {}
    plan_sample: Optional[Dict[str, Any]] = None
    malformed: List[str] = []
    retries = crashes = timeouts = 0
    for o in done:
        resp = CompileResponse.from_dict(o.response)
        by_status[resp.status] = by_status.get(resp.status, 0) + 1
        if resp.backend is not None:
            by_backend[resp.backend] = by_backend.get(resp.backend, 0) + 1
        if plan_sample is None and resp.plan is not None:
            plan_sample = resp.plan
        retries += resp.retries
        crashes += resp.worker_crashes
        timeouts += resp.timeouts
        if not resp.well_formed:
            malformed.append(resp.name)
    latencies = sorted(o.latency_ms for o in done)
    report = {
        "schema": BENCH_SCHEMA,
        "platform": platform_block(),
        "options": {
            "requests": opts.requests,
            "concurrency": opts.concurrency,
            "workers": opts.workers,
            "deadlineMs": opts.deadline_ms,
            "chaosKills": opts.chaos_kills,
            "chaosHangs": opts.chaos_hangs,
            "seed": opts.seed,
            "url": opts.url,
            "storePath": opts.store_path,
            "warmPasses": passes,
            "autoEvery": opts.auto_every,
        },
        "totalRequests": len(done),
        "wallS": round(wall_s, 3),
        "requestsPerSecond": round(len(done) / wall_s, 3) if wall_s > 0 else 0.0,
        "latencyMs": {
            "p50": round(_percentile(latencies, 0.50), 3),
            "p90": round(_percentile(latencies, 0.90), 3),
            "p99": round(_percentile(latencies, 0.99), 3),
            "max": round(latencies[-1], 3) if latencies else 0.0,
            "mean": round(sum(latencies) / len(latencies), 3) if latencies else 0.0,
        },
        "byStatus": dict(sorted(by_status.items())),
        "retries": retries,
        "workerCrashes": crashes,
        "timeouts": timeouts,
        "wellFormed": len(done) - len(malformed),
        "malformed": malformed,
        "passes": pass_blocks,
        "service": service_snapshot,
        "plan": {
            # resolved execution backends echoed by workers; "auto"
            # requests carry the planner's concrete pick + rationale
            "autoRequests": sum(
                1 for r in requests if r.get("backend") == "auto"
            ) * passes,
            "byBackend": dict(sorted(by_backend.items())),
            "sample": plan_sample,
        },
    }
    if opts.out:
        with open(opts.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report


def render_report_text(report: Dict[str, Any]) -> str:
    """A terse human summary of one loadgen report."""
    lat = report["latencyMs"]
    parts = [
        f"loadgen: {report['options']['requests']} requests, "
        f"{report['requestsPerSecond']} req/s over {report['wallS']}s",
        f"  latency ms: p50={lat['p50']} p90={lat['p90']} "
        f"p99={lat['p99']} max={lat['max']}",
        "  outcomes: "
        + ", ".join(f"{k}={v}" for k, v in report["byStatus"].items()),
        f"  retries={report['retries']} crashes={report['workerCrashes']} "
        f"timeouts={report['timeouts']} "
        f"well-formed={report['wellFormed']}"
        f"/{report.get('totalRequests', report['options']['requests'])}",
    ]
    if len(report.get("passes", [])) > 1:
        for block in report["passes"]:
            lat = block["latencyMs"]
            parts.append(
                f"  pass {block['pass']}: wall={block['wallS']}s "
                f"p50={lat['p50']} p99={lat['p99']} mean={lat['mean']}"
            )
    plan = report.get("plan") or {}
    if plan.get("byBackend"):
        parts.append(
            f"  plan: {plan['autoRequests']} auto request(s); backends "
            + ", ".join(f"{k}={v}" for k, v in plan["byBackend"].items())
        )
    store = (report.get("service") or {}).get("store")
    if store:
        parts.append(
            f"  store: {store['currsize']} entries, "
            f"{store['storedHits']} stored hit(s), "
            f"size {store['sizeBytes'] / 1024:.1f} KiB"
        )
    if report["malformed"]:
        parts.append(f"  MALFORMED: {report['malformed']}")
    return "\n".join(parts)


__all__.append("render_report_text")
