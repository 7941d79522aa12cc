"""The five benchmark workloads, their seeded inputs and correctness gates.

Every workload is a closed loop (each caller waits for its reply) driven
through public entry points only:

* ``compile-cold`` -- ``Session.fuse_program`` on seeded generated
  programs, each in a fresh session with private caches and no store; the
  traced run drives ``PassManager`` over ``strict_passes()`` itself.
* ``exec-large`` / ``exec-small`` -- ``Session.execute_fused(backend=
  "auto")`` over the gallery kernels; the traced run replays it as
  ``Planner.plan_execution`` -> ``repro.core.backends.execute_fused`` ->
  ``Planner.record``.
* ``serve-warm`` / ``serve-chaos`` -- ``ServeDaemon`` over HTTP with two
  keep-alive client threads, ``GET /statz`` before and after.

A workload returns an :class:`Outcome`: end-to-end metrics from the
untraced loop and, in a trace run, per-layer metrics from a traced loop
(a layer the workload never calls reports 0).  Correctness gates run
after the timed loops and count every mismatch.
"""

from __future__ import annotations

import http.client
import json
import math
import multiprocessing
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from spans import SpanRecorder

from repro.codegen import ArrayStore, compile_fused, compile_numpy, emit_fused_program
from repro.core.backends import execute_fused
from repro.core.manager import PassManager
from repro.core.passes import Artifact, Pass, strict_passes
from repro.core.session import Session, SessionOptions
from repro.gallery.common import iir2d_code
from repro.gallery.extended import extended_kernels
from repro.gallery.paper import figure2_code
from repro.graph.random_gen import random_legal_mldg
from repro.loopir import parse_program
from repro.loopir.printer import format_program
from repro.loopir.synthesize import program_from_mldg
from repro.plan.profile import memory_profiles
from repro.serve.daemon import ServeDaemon
from repro.serve.service import ServeConfig
from repro.serve.wire import CompileResponse, WireError, request_from_program
from repro.verify.equivalence import check_equivalence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Results, traces and the serve workloads' temporary stores (git-ignored).
OUT_DIR = os.path.join(ROOT, "bench", "out")

# --------------------------------------------------------------------- #
# metric catalogue (BENCHMARK.json mirrors it; bench/test_bench.py checks)
# --------------------------------------------------------------------- #

#: End-to-end metrics every workload reports: (name, unit, better).
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("latency_ms", "ms", "lower"),
    ("throughput_per_s", "1/s", "higher"),
)

KERNEL_NAMES = (
    "fig2", "iir2d", "jacobi-pair", "separable-filter", "lattice-filter",
    "multirate-cascade", "time-marching", "anisotropic-sweep",
)

#: Strict-pipeline pass name -> the layer its self time is booked to.
#: A pass missing here runs unwrapped, so its time lands in
#: ``core.unattributed_ms`` and the layer sum still equals the wall time.
COMPILE_LAYERS = {
    "parse": "loopir.parse",
    "validate": "loopir.validate",
    "lint": "lint.lint",
    "extract-mldg": "depend.extract",
    "prune-mldg": "analysis.prune",
    "legality": "graph.legality",
    "fuse": "fusion.fuse",
    "verify-retiming": "retiming.verify",
    "codegen": "codegen.apply",
}

STATIC_BACKENDS = ("compiled", "numpy", "parallel-j1", "parallel-j2")

PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    *((f"{layer}_ms", "ms", "lower") for layer in COMPILE_LAYERS.values()),
    ("core.unattributed_ms", "ms", "lower"),
    ("depend.mldg_edges", "count", "lower"),
    ("analysis.pruned_ratio", "ratio", "higher"),
    ("fusion.doall_ratio", "ratio", "higher"),
    ("codegen.emitted_bytes", "bytes", "lower"),
    ("plan.select_ms", "ms", "lower"),
    ("plan.record_ms", "ms", "lower"),
    ("exec.kernel_ms", "ms", "lower"),
    ("exec.unattributed_ms", "ms", "lower"),
    ("exec.interp_ms", "ms", "lower"),
    *((f"exec.{b}_ms", "ms", "lower") for b in STATIC_BACKENDS),
    ("plan.vs_best_static", "ratio", "lower"),
    ("plan.worst_vs_best_static", "ratio", "lower"),
    *((f"exec.auto.{k}_ms", "ms", "lower") for k in KERNEL_NAMES),
    ("codegen.build_compiled_ms", "ms", "lower"),
    ("codegen.build_numpy_ms", "ms", "lower"),
    ("exec.store_copy_ms", "ms", "lower"),
    ("serve.wire_ms", "ms", "lower"),
    ("serve.queue_ms", "ms", "lower"),
    ("serve.dispatch_ms", "ms", "lower"),
    ("serve.worker_hot_ms", "ms", "lower"),
    ("serve.worker_fresh_ms", "ms", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("store.puts", "1/req", "lower"),
    ("serve.retries", "count", "lower"),
    ("serve.worker_crashes", "count", "lower"),
    ("serve.timeouts", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.breaker_trips", "count", "lower"),
    ("serve.latency_p50_ms", "ms", "lower"),
    ("serve.latency_p90_ms", "ms", "lower"),
    ("serve.degraded_ratio", "ratio", "lower"),
    ("bench.trace_overhead", "ratio", "higher"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


@dataclass(frozen=True)
class RunConfig:
    seed: int
    seconds: float
    trace: bool
    smoke: bool


@dataclass
class Outcome:
    """What one workload run measured."""

    e2e: Dict[str, float]
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)  # operations that failed
    mismatches: List[str] = field(default_factory=list)  # wrong outputs
    info: Dict[str, Any] = field(default_factory=dict)
    recorder: Optional[SpanRecorder] = None


@dataclass
class Phase:
    """One timed closed loop: ``(latency ms, item)`` per completed
    operation, operations attempted, the loop's wall time and, for each
    attempted operation, when it ended (seconds into the loop) and
    whether it completed."""

    samples: List[Tuple[float, Any]]
    ops: int
    elapsed: float
    ends: List[Tuple[float, bool]] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def rate(self) -> float:
        """Completed operations per second over the whole loop."""
        return len(self.samples) / self.elapsed

    def pass_rate(self, pool: int) -> float:
        """Median, over the complete passes through ``pool`` inputs called
        in rotation, of completed operations per second.  Every pass does
        the same work, so a burst of contention on the host moves one
        pass and not the median.  The whole-loop rate if no pass ended."""
        rates = []
        for j in range(len(self.ends) // pool):
            block = self.ends[j * pool:(j + 1) * pool]
            begin = self.ends[j * pool - 1][0] if j else 0.0
            rates.append(sum(ok for _, ok in block) / (block[-1][0] - begin))
        return statistics.median(rates) if rates else self.rate


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ms(seconds: float) -> float:
    return seconds * 1000.0


def per_item_medians(samples: Sequence[Tuple[float, Any]]) -> Dict[Any, float]:
    by: Dict[Any, List[float]] = defaultdict(list)
    for latency, item in samples:
        by[item].append(latency)
    return {item: statistics.median(v) for item, v in by.items()}


def end_to_end(setup_s: float, phase: Phase, pool: Optional[int]) -> Dict[str, float]:
    """Where the loop rotates through a pool of inputs (programs,
    kernels), ``latency_ms`` is the geometric mean of each input's median,
    so the seed's mix of cheap and costly inputs cannot move it, and
    ``throughput_per_s`` the median rate over passes through the pool.
    Otherwise (serve: hot, fresh and resilient requests form separate
    modes, and a median falls between two of them) they are the geometric
    mean over every completed operation and the whole-loop rate."""
    if pool is None:
        latency = geomean([lat for lat, _ in phase.samples])
        return {"setup_s": setup_s, "latency_ms": latency, "throughput_per_s": phase.rate}
    latency = geomean(list(per_item_medians(phase.samples).values()))
    return {"setup_s": setup_s, "latency_ms": latency, "throughput_per_s": phase.pass_rate(pool)}


def latency_report(phase: Phase) -> Dict[str, Any]:
    """Median and the highest percentile with at least ten samples beyond
    it, over every completed operation (reported, not bounded)."""
    lat = [x for x, _ in phase.samples]
    q = next((q for q in (0.999, 0.99, 0.95, 0.9, 0.75) if len(lat) * (1 - q) >= 10), 0.5)
    return {"samples": len(lat), "p50Ms": percentile(lat, 0.5),
            "tailPercentile": q, "tailMs": percentile(lat, q)}


def timed_setup(
    make: Callable[[], Any],
    repeats: int,
    discard: Callable[[Any], None] = lambda _: None,
) -> Tuple[float, Any]:
    """Run the set-up ``repeats`` times; the median time and the last
    result (earlier results go to ``discard``)."""
    times: List[float] = []
    state: Any = None
    for k in range(repeats):
        if k:
            discard(state)
        t0 = time.perf_counter()
        state = make()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), state


def closed_loop(seconds: float, op: Callable[[int], Any]) -> Phase:
    """Call ``op(k)`` for k = 0, 1, ... until ``seconds`` have passed;
    ``op`` returns ``(latency ms, item)`` or ``None`` when it failed."""
    samples = []
    ends = []
    k = 0
    t_start = time.perf_counter()
    deadline = t_start + seconds
    while time.perf_counter() < deadline:
        got = op(k)
        k += 1
        ends.append((time.perf_counter() - t_start, got is not None))
        if got is not None:
            samples.append(got)
    return Phase(samples, k, time.perf_counter() - t_start, ends)


def layer_defaults() -> Dict[str, float]:
    return {name: 0.0 for name, _, _ in PER_LAYER}


# --------------------------------------------------------------------- #
# seeded inputs
# --------------------------------------------------------------------- #


def gallery_sources() -> List[Tuple[str, str]]:
    """The eight runnable gallery kernels (``KERNEL_NAMES`` order)."""
    pairs = [("fig2", figure2_code()), ("iir2d", iir2d_code())]
    pairs += [(k.key, k.code) for k in extended_kernels()]
    return pairs


def generated_program(rng: random.Random, nodes: int) -> str:
    """DSL text of a random legal MLDG with ``nodes`` loops."""
    while True:
        g = random_legal_mldg(nodes, rng=rng)
        try:
            return format_program(program_from_mldg(g))
        except ValueError:  # not sequence-executable: draw again
            continue


def loop_count(k: int) -> int:
    """Loops in the k-th generated program: 6..16 in rotation, so every
    seed draws the same size mix."""
    return 6 + k % 11


def generated_programs(seed: int, count: int, salt: str) -> List[str]:
    rng = random.Random(f"{salt}:{seed}")
    return [generated_program(rng, loop_count(k)) for k in range(count)]


# --------------------------------------------------------------------- #
# compile-cold
# --------------------------------------------------------------------- #


class LayerPass(Pass):
    """Runs one strict pass inside a recorder span named for its layer."""

    def __init__(self, inner: Pass, layer: str, rec: SpanRecorder) -> None:
        self.inner = inner
        self.layer = layer
        self.rec = rec
        self.name = inner.name
        self.span_name = inner.span_name

    def run(self, artifact: Artifact, session: Session) -> None:
        with self.rec.span(self.layer):
            self.inner.run(artifact, session)


def traced_compile(source: str, rec: SpanRecorder) -> Artifact:
    """One cold compile with a span per pass (root span ``compile``)."""
    with rec.span("compile"):
        session = Session.isolated()
        manager = PassManager(
            (
                LayerPass(p, COMPILE_LAYERS[p.name], rec) if p.name in COMPILE_LAYERS else p
                for p in strict_passes()
            ),
            name="strict",
        )
        artifact = Artifact(source=source)
        with session.activate():
            manager.run(artifact, session)
    return artifact


def compile_layers(rec: SpanRecorder, ops: int, artifacts: Sequence[Artifact]) -> Dict[str, float]:
    """Mean self time per compile of every compile layer, and the IR
    counts over the distinct programs behind ``artifacts``."""
    out = {f"{layer}_ms": rec.self_ms(layer) / ops for layer in COMPILE_LAYERS.values()}
    out["core.unattributed_ms"] = rec.self_ms("compile") / ops
    edges = vectors = removed = doall = emitted = 0
    for a in artifacts:
        pruned_edges = a.prune.removed_edge_count if a.prune is not None else 0
        pruned_vectors = a.prune.removed_vector_count if a.prune is not None else 0
        edges += a.mldg.num_edges + pruned_edges
        vectors += sum(1 for _ in a.mldg.all_vectors()) + pruned_vectors
        removed += pruned_vectors
        doall += int(a.fusion.is_doall)
        if a.fused is not None:
            emitted += len(emit_fused_program(a.fused))
    n = max(1, len(artifacts))
    out["depend.mldg_edges"] = edges / n
    out["analysis.pruned_ratio"] = removed / vectors if vectors else 0.0
    out["fusion.doall_ratio"] = doall / n
    out["codegen.emitted_bytes"] = emitted / n
    return out


_COLD_START = """
import sys
sys.path.insert(0, sys.argv[1])
from repro.core.session import Session
from repro.gallery.paper import figure2_code
Session.isolated().fuse_program(figure2_code())
"""


def cold_start() -> None:
    """A fresh interpreter that imports the compiler and compiles Figure 2:
    the set-up a cold compile pays before its first program."""
    proc = subprocess.Popen([sys.executable, "-c", _COLD_START, os.path.join(ROOT, "src")],
                            cwd=ROOT)
    # a blocking wait: ``wait(timeout=...)`` polls in sleeps of up to
    # 50 ms, which rounded every cold start to a multiple of 50 ms
    killer = threading.Timer(60, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    if code:
        raise subprocess.CalledProcessError(code, proc.args)


def gate_compile(results: Dict[int, Any]) -> Dict[int, str]:
    """``check_equivalence`` on every distinct program that compiled;
    program index -> what was wrong."""
    bad = {}
    for idx, out in sorted(results.items()):
        if out.fused is None:
            continue  # no fused body order exists; nothing to execute
        if not check_equivalence(out.nest, out.fused).equivalent:
            bad[idx] = "fused output differs from the original program"
    return bad


def run_compile_cold(cfg: RunConfig) -> Outcome:
    pool = 11 if cfg.smoke else 132
    sources = generated_programs(cfg.seed, pool, "compile-cold")
    setup_s, _ = timed_setup(cold_start, 1 if cfg.smoke else 5)

    def phase(seconds: float, rec: Optional[SpanRecorder]) -> Phase:
        results: Dict[int, Any] = {}
        errors: Dict[int, str] = {}
        counts: Dict[int, int] = defaultdict(int)

        def op(k: int) -> Optional[Tuple[float, Any]]:
            idx = k % pool
            counts[idx] += 1
            t0 = time.perf_counter()
            try:
                out = (
                    traced_compile(sources[idx], rec)
                    if rec is not None
                    else Session.isolated().fuse_program(sources[idx])
                )
            except Exception as exc:  # a legal program must compile
                errors[idx] = f"{type(exc).__name__}: {exc}"
                return None
            latency = ms(time.perf_counter() - t0)
            results.setdefault(idx, out)
            return latency, idx

        got = closed_loop(seconds, op)
        got.extra = {"results": results, "errors": errors, "counts": counts}
        return got

    untraced = phase(cfg.seconds / 2 if cfg.trace else cfg.seconds, None)
    outcome = Outcome(e2e=end_to_end(setup_s, untraced, pool))
    phases = [untraced]
    if cfg.trace:
        rec = SpanRecorder()
        traced = phase(cfg.seconds / 2, rec)
        phases.append(traced)
        artifacts = list(traced.extra["results"].values())
        outcome.recorder = rec
        outcome.layers = layer_defaults()
        outcome.layers.update(compile_layers(rec, max(1, len(traced.samples)), artifacts))
        outcome.layers["bench.trace_overhead"] = traced.rate / untraced.rate
        outcome.info["irPrograms"] = len(artifacts)

    t_gate = time.perf_counter()
    results = untraced.extra["results"]
    wrong = gate_compile(results)
    for p in phases:
        # a program that raises or compiles wrongly does so every time
        errors = p.extra["errors"]
        outcome.attempted += p.ops
        outcome.failed += sum(p.extra["counts"][i] for i in set(errors) | set(wrong))
        outcome.errors += [f"program {i}: {e}" for i, e in sorted(errors.items())]
    outcome.mismatches += [f"program {i}: {why}" for i, why in sorted(wrong.items())]
    outcome.info.update(
        latency=latency_report(untraced),
        distinctPrograms=len(results),
        noFusedBody=sum(1 for r in results.values() if r.fused is None),
        gateS=time.perf_counter() - t_gate,
    )
    return outcome


# --------------------------------------------------------------------- #
# exec-large / exec-small
# --------------------------------------------------------------------- #


@dataclass
class Kernel:
    name: str
    source: str
    base: ArrayStore
    out: Any = None  # PipelineResult once compiled
    last: Optional[ArrayStore] = None  # output of the last timed call

    def args(self) -> Dict[str, Any]:
        return {"schedule": self.out.fusion.schedule, "is_doall": self.out.fusion.is_doall}


def run_static(kernel: Kernel, backend: str, size: int, store: ArrayStore) -> ArrayStore:
    """One call of a fixed backend (``parallel-jN`` = parallel, N jobs)."""
    name, _, jobs = backend.partition("-j")
    return execute_fused(
        name, kernel.out.fused, size, size, store=store,
        jobs=int(jobs) if jobs else None, **kernel.args(),
    )


def run_exec(cfg: RunConfig, size: int) -> Outcome:
    kernels = [
        Kernel(name, src, ArrayStore.for_program(parse_program(src), size, size, seed=cfg.seed))
        for name, src in gallery_sources()
    ]

    def setup() -> Session:
        # a fresh planner profile, private kernel cache, cold compiles;
        # two warm-up rounds build every kernel and settle the planner
        memory_profiles().clear()
        session = Session.isolated(options=SessionOptions(backend="auto"))
        for k in kernels:
            k.out = session.fuse_program(k.source)
        for _ in range(2):
            for k in kernels:
                session.execute_fused(k.out.fused, size, size, store=k.base.copy(), **k.args())
        return session

    setup_s, session = timed_setup(setup, 1 if cfg.smoke else (5 if size > 64 else 9))

    def phase(seconds: float, rec: Optional[SpanRecorder]) -> Phase:
        copy_s = [0.0]

        def op(n: int) -> Tuple[float, Any]:
            k = kernels[n % len(kernels)]
            t0 = time.perf_counter()
            store = k.base.copy()
            t1 = time.perf_counter()
            if rec is None:
                session.execute_fused(k.out.fused, size, size, store=store, **k.args())
            else:
                replay_execute(session, k, size, store, rec)
            t2 = time.perf_counter()
            copy_s[0] += t1 - t0
            k.last = store
            return ms(t2 - t1), k.name

        got = closed_loop(seconds, op)
        got.extra["copy_ms"] = ms(copy_s[0]) / max(1, got.ops)
        return got

    # a trace run gives a quarter of its time each to the untraced and the
    # traced loop and half to the static sweep, so that on 256x256 it
    # still ends within 30 s with set-up and gate
    loop_s = cfg.seconds / 4 if cfg.trace else cfg.seconds
    untraced = phase(loop_s, None)
    outcome = Outcome(e2e=end_to_end(setup_s, untraced, len(kernels)), attempted=untraced.ops)
    outcome.info["latency"] = latency_report(untraced)
    outcome.info["plan"] = {
        k.name: session.planner.plan_execution(
            k.out.fused, size, size, session_backend="auto", **k.args()
        ).backend
        for k in kernels
    }
    if cfg.trace:
        rec = SpanRecorder()
        traced = phase(loop_s, rec)
        outcome.attempted += traced.ops
        calls = max(1, traced.ops)
        layers = layer_defaults()
        layers.update({
            "plan.select_ms": rec.self_ms("plan.select") / calls,
            "plan.record_ms": rec.self_ms("plan.record") / calls,
            "exec.kernel_ms": rec.self_ms("exec.kernel") / calls,
            "exec.unattributed_ms": rec.self_ms("exec.call") / calls,
            "exec.store_copy_ms": untraced.extra["copy_ms"],
            "bench.trace_overhead": traced.rate / untraced.rate,
        })
        medians = per_item_medians(untraced.samples)
        layers.update({f"exec.auto.{name}_ms": v for name, v in medians.items()})
        # the set-up's compile work, traced, and cold kernel builds
        artifacts = [traced_compile(k.source, rec) for k in kernels]
        layers.update(compile_layers(rec, len(kernels), artifacts))
        layers.update(cold_builds(kernels))
        sweep_layers, outcome.info["sweep"] = static_sweep(session, kernels, size, cfg.seconds / 2)
        layers.update(sweep_layers)
        outcome.layers = layers
        outcome.recorder = rec

    t_gate = time.perf_counter()
    wrong = gate_exec(kernels, size)
    outcome.attempted += len(kernels) * (1 + len(GATE_BACKENDS))
    outcome.failed += len(wrong)
    outcome.mismatches += wrong
    outcome.info["gateS"] = time.perf_counter() - t_gate
    return outcome


def replay_execute(
    session: Session, k: Kernel, size: int, store: ArrayStore, rec: SpanRecorder
) -> None:
    """``Session.execute_fused`` as plan -> dispatch -> record, one span each."""
    with rec.span("exec.call", kernel=k.name):
        with session.activate():
            with rec.span("plan.select"):
                plan = session.planner.plan_execution(
                    k.out.fused, size, size, requested=None,
                    session_backend=session.options.backend,
                    jobs=session.options.jobs, **k.args(),
                )
            with rec.span("exec.kernel", backend=plan.backend):
                t0 = time.perf_counter()
                execute_fused(
                    plan.backend, k.out.fused, size, size, store=store,
                    jobs=plan.jobs, tile=plan.tile, **k.args(),
                )
                elapsed = time.perf_counter() - t0
            with rec.span("plan.record"):
                session.planner.record(plan, elapsed, budget=session.effective_budget)


def cold_builds(kernels: Sequence[Kernel]) -> Dict[str, float]:
    """Mean kernel build time per program with an empty kernel cache."""
    compiled = numpy_s = 0.0
    for k in kernels:
        with Session.isolated().activate():
            t0 = time.perf_counter()
            compile_fused(k.out.fused)
            t1 = time.perf_counter()
            compile_numpy(k.out.fused, schedule=k.out.fusion.schedule)
            t2 = time.perf_counter()
        compiled += t1 - t0
        numpy_s += t2 - t1
    return {
        "codegen.build_compiled_ms": ms(compiled) / len(kernels),
        "codegen.build_numpy_ms": ms(numpy_s) / len(kernels),
    }


#: Fewest rounds of the static sweep, whatever its time budget.
MIN_SWEEP_ROUNDS = 3


def static_sweep(
    session: Session, kernels: Sequence[Kernel], size: int, budget_s: float
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Rounds of interleaved calls of ``auto`` and every static backend
    per kernel, until ``budget_s`` has passed; each backend's geomean of
    per-kernel medians, and auto against the best static backend per
    kernel."""
    backends = ("auto",) + (("interp",) if size <= 64 else ()) + STATIC_BACKENDS
    times: Dict[Tuple[str, str], List[float]] = {
        (k.name, b): [] for k in kernels for b in backends
    }
    rounds = 0
    deadline = time.perf_counter() + budget_s
    while rounds < MIN_SWEEP_ROUNDS or time.perf_counter() < deadline:
        rounds += 1
        for k in kernels:
            for b in backends:
                store = k.base.copy()
                t0 = time.perf_counter()
                if b == "auto":
                    session.execute_fused(k.out.fused, size, size, store=store, **k.args())
                else:
                    run_static(k, b, size, store)
                times[(k.name, b)].append(ms(time.perf_counter() - t0))
    med = {key: statistics.median(v) for key, v in times.items()}
    static = [b for b in backends if b != "auto"]
    layers = {f"exec.{b}_ms": geomean([med[(k.name, b)] for k in kernels]) for b in static}
    ratios = {
        k.name: med[(k.name, "auto")] / min(med[(k.name, b)] for b in static) for k in kernels
    }
    worst = max(ratios, key=lambda name: ratios[name])
    layers["plan.vs_best_static"] = geomean(list(ratios.values()))
    layers["plan.worst_vs_best_static"] = ratios[worst]
    info = {
        "rounds": rounds,
        "worstKernel": worst,
        "vsBestStatic": ratios,
        "bestStatic": {k.name: min(static, key=lambda b: med[(k.name, b)]) for k in kernels},
        "medianMs": {f"{name}/{b}": v for (name, b), v in med.items()},
    }
    return layers, info


#: Backends the exec gate runs beside the timed ``auto`` output.
GATE_BACKENDS = ("compiled", "numpy", "parallel-j2")


def gate_exec(kernels: Sequence[Kernel], size: int) -> List[str]:
    """Every backend's output, and the last timed ``auto`` output,
    bit-for-bit against the interpreter at the workload's size."""
    bad = []
    for k in kernels:
        reference = run_static(k, "interp", size, k.base.copy())
        outputs = {"auto": k.last}
        outputs.update({b: run_static(k, b, size, k.base.copy()) for b in GATE_BACKENDS})
        bad += [
            f"{k.name}: {b} differs from interp at {size}x{size}"
            for b, got in outputs.items()
            if not reference.equal(got)
        ]
    return bad


# --------------------------------------------------------------------- #
# serve-warm / serve-chaos
# --------------------------------------------------------------------- #

HOT_GENERATED = 24
CLIENT_THREADS = 2
#: serve-chaos crashes a worker every this many seconds, the first half
#: a period in: a fixed rate in time gives every run the same faults.  No
#: hangs: after a hang's in-process fallback compile, the replacement
#: pool forked beside it strands a request until its 10 s deadline in
#: about four runs of ten, which no bound can absorb (bench/README.md).
CRASH_EVERY_S = 2.5
#: --smoke crashes faster, so a 1 s phase still meets a crash.
SMOKE_CRASH_EVERY_S = 0.5


def crash_once_seed(base: int) -> int:
    """The first seed from ``base`` on whose ``WorkerCrash(0.5)`` kills a
    request's first attempt and spares its retry (the worker draws once
    per attempt from ``random.Random(seed + attempt)``).

    A crash on every attempt kills the pool three times within ~100 ms;
    a request in flight beside it is charged each time, trips its own
    class's breaker, and the next request for that program is refused.
    """
    seed = base
    while not random.Random(seed).random() < 0.5 <= random.Random(seed + 1).random():
        seed += 1
    return seed


class RequestStream:
    """Request ``k`` of the seeded stream, a pure function of (seed, k).

    80% of requests name one of the hot set, 20% a fresh generated
    program; every third is resilient.  The hot set is a fixed corpus --
    the 8 gallery kernels plus 24 programs generated once -- because a
    seeded one moved the serve metrics by more than the host's noise.  A
    request that carries a crash uses a fresh program, so a breaker it
    trips refuses nobody else.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.hot = [src for _, src in gallery_sources()]
        self.hot += generated_programs(0, HOT_GENERATED, "serve-hot")

    def source(self, k: int, fresh: bool = False) -> Tuple[str, str]:
        """``(kind, program)`` of request ``k``."""
        rng = random.Random(f"serve-req:{self.seed}:{k}")
        if rng.random() < 0.8 and not fresh:
            return "hot", self.hot[rng.randrange(len(self.hot))]
        return "fresh", generated_program(rng, loop_count(k // 3))

    def request(self, k: int, crash: bool = False) -> Tuple[str, bytes]:
        """``(kind, encoded body)`` of request ``k``, optionally carrying a
        worker crash."""
        kind, source = self.source(k, fresh=crash)
        spec: Optional[Dict[str, Any]] = None
        if crash:
            kind = "crash"
            spec = {"injector": "WorkerCrash", "seed": crash_once_seed(self.seed * 100_003 + k),
                    "probability": 0.5}
        req = request_from_program(
            f"{kind}#{k}", source, resilient=(k % 3 == 0), fault=spec
        ).to_dict()
        req["emit"] = False
        return kind, json.dumps(req).encode("utf-8")

    def warmup(self) -> List[bytes]:
        return [
            json.dumps(request_from_program(f"warm#{i}", src).to_dict() | {"emit": False}).encode()
            for i, src in enumerate(self.hot)
        ]


class CrashClock:
    """Says when the next crash is due: every ``every`` seconds into the
    phase, the first at ``every / 2``."""

    def __init__(self, every: float) -> None:
        self.every = every
        self.handed = 0

    def due(self, now: float) -> bool:
        if now < (self.handed + 0.5) * self.every:
            return False
        self.handed += 1
        return True


class Client:
    """One keep-alive HTTP connection to the daemon."""

    def __init__(self, url: str) -> None:
        host, port = url.removeprefix("http://").split(":")
        self.conn = http.client.HTTPConnection(host, int(port), timeout=60)

    def request(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        try:
            self.conn.request(method, path, body, {"Content-Type": "application/json"})
            resp = self.conn.getresponse()
            return resp.status, resp.read()
        except (http.client.HTTPException, OSError):
            self.conn.close()
            raise

    def statz(self) -> Dict[str, Any]:
        status, raw = self.request("GET", "/statz")
        if status != 200:
            raise RuntimeError(f"/statz answered HTTP {status}")
        return json.loads(raw)

    def close(self) -> None:
        self.conn.close()


@dataclass
class Reply:
    k: int
    kind: str
    latency_ms: float
    http_status: int
    resp: Optional[Dict[str, Any]]
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def classify(http_status: int, raw: bytes) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
    """The parsed response and why it counts as failed (``None`` if not)."""
    try:
        resp = json.loads(raw)
        parsed = CompileResponse.from_dict(resp)
    except (ValueError, WireError) as exc:
        return None, f"malformed response: {exc}"
    if not parsed.well_formed:
        return resp, "malformed response envelope"
    if http_status != 200 or not parsed.ok:
        return resp, f"HTTP {http_status} status={parsed.status} code={parsed.code}"
    return resp, None


def drive(
    url: str,
    stream: RequestStream,
    start: int,
    seconds: float,
    crashes: Optional[CrashClock],
    rec: Optional[SpanRecorder],
) -> Tuple[List[Reply], float]:
    """Closed-loop clients sending the stream from request ``start`` on
    for ``seconds``; the replies in request order and the wall time."""
    replies: List[Reply] = []
    crashed: List[Exception] = []
    lock = threading.Lock()
    cursor = [start]
    t_start = time.perf_counter()

    def client_loop() -> None:
        client = Client(url)
        try:
            while True:
                with lock:
                    now = time.perf_counter() - t_start
                    if now >= seconds:
                        return
                    k = cursor[0]
                    cursor[0] += 1
                    crash = crashes is not None and crashes.due(now)
                kind, body = stream.request(k, crash)
                t0 = time.perf_counter_ns()
                try:
                    status, raw = client.request("POST", "/v1/compile", body)
                    resp, error = classify(status, raw)
                except (http.client.HTTPException, OSError) as exc:
                    status, resp, error = 0, None, f"{type(exc).__name__}: {exc}"
                dur = time.perf_counter_ns() - t0
                if rec is not None:
                    rec.add("serve.request", t0, dur, k=k, kind=kind, status=status,
                            **{key: (resp or {}).get(key)
                               for key in ("queueMs", "workerMs", "totalMs")})
                with lock:
                    replies.append(Reply(k, kind, dur / 1e6, status, resp, error))
        except Exception as exc:  # a client bug must fail the run, not thin the load
            crashed.append(exc)
        finally:
            client.close()

    threads = [threading.Thread(target=client_loop, name=f"bench-client-{i}")
               for i in range(CLIENT_THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if crashed:
        raise crashed[0]
    return sorted(replies, key=lambda r: r.k), time.perf_counter() - t_start


def serve_layers(
    replies: Sequence[Reply], before: Dict[str, Any], after: Dict[str, Any]
) -> Dict[str, float]:
    """Serve, store and resilience per-layer metrics of one phase: p50s of
    the response timing fields, and ``/statz`` counter deltas."""
    timed = [r.resp for r in replies if r.ok and r.resp.get("workerMs") is not None]

    def p50(values: List[float]) -> float:
        return statistics.median(values) if values else 0.0

    def worker(kind: str) -> float:
        return p50([r.resp["workerMs"] for r in replies
                    if r.ok and r.kind == kind and r.resp.get("workerMs") is not None])

    wire = [r.latency_ms - r.resp["totalMs"] for r in replies
            if r.ok and r.resp.get("totalMs") is not None]
    total = [resp["totalMs"] for resp in timed]
    c0 = before["metrics"].get("counters", {})
    c1 = after["metrics"].get("counters", {})
    s0 = before["service"].get("store") or {}
    s1 = after["service"].get("store") or {}
    hits = s1.get("storedHits", 0) - s0.get("storedHits", 0)
    puts = s1.get("currsize", 0) - s0.get("currsize", 0)

    def delta(name: str) -> float:
        return float(c1.get(name, 0) - c0.get(name, 0))

    return {
        "serve.wire_ms": p50(wire),
        "serve.queue_ms": p50([resp["queueMs"] or 0.0 for resp in timed]),
        "serve.dispatch_ms": p50([
            resp["totalMs"] - (resp["queueMs"] or 0.0) - resp["workerMs"] for resp in timed
        ]),
        "serve.worker_hot_ms": worker("hot"),
        "serve.worker_fresh_ms": worker("fresh"),
        "store.hit_ratio": hits / (hits + puts) if hits + puts else 0.0,
        "store.puts": puts / max(1, len(replies)),
        "serve.retries": delta("serve.retries"),
        "serve.worker_crashes": delta("serve.worker_crashes"),
        "serve.timeouts": delta("serve.timeouts"),
        "serve.shed": delta("serve.admission.shed"),
        "serve.breaker_trips": delta("serve.breaker.trips"),
        "serve.latency_p50_ms": percentile(total, 0.50) if total else 0.0,
        "serve.latency_p90_ms": percentile(total, 0.90) if total else 0.0,
        "serve.degraded_ratio": sum(1 for r in replies if r.ok and r.resp["status"] == "degraded")
        / max(1, len(replies)),
    }


def gate_serve(replies: Sequence[Reply], stream: RequestStream) -> List[str]:
    """Every distinct ``ok`` retiming against a local serial compile."""
    bad = []
    checked: Dict[str, Any] = {}
    for r in replies:
        if not r.ok or r.resp["status"] != "ok" or r.resp.get("retiming") is None:
            continue  # resilient responses carry a rung, not a retiming
        source = stream.source(r.k, fresh=r.kind == "crash")[1]
        if source not in checked:
            out = Session.isolated().fuse_program(source)
            checked[source] = {n: list(v) for n, v in out.fusion.retiming.as_dict().items()}
        if r.resp["retiming"] != checked[source]:
            bad.append(f"request {r.k} ({r.kind}): retiming differs from a serial compile")
    return bad


def reap_children() -> None:
    """Wait for every worker process this process started."""
    for proc in multiprocessing.active_children():
        proc.join(timeout=5)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=5)


def run_serve(cfg: RunConfig, chaos: bool) -> Outcome:
    available = len(os.sched_getaffinity(0))
    if CLIENT_THREADS > available:
        raise RuntimeError(
            f"{CLIENT_THREADS} client threads need {CLIENT_THREADS} CPUs; "
            f"this host offers {available}"
        )
    stream = RequestStream(cfg.seed)
    warm = stream.warmup()
    tmp = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    setups = [0]

    def send(url: str, bodies: Sequence[bytes]) -> None:
        client = Client(url)
        try:
            for body in bodies:
                client.request("POST", "/v1/compile", body)
        finally:
            client.close()

    def setup() -> ServeDaemon:
        setups[0] += 1
        path = os.path.join(tmp, f"setup{setups[0]}", "store.db")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        daemon = ServeDaemon(ServeConfig(
            workers=2, store_path=path, allow_faults=chaos, seed=cfg.seed,
        )).start()
        # the hot set once through the pool: workers spawned, store warm
        threads = [threading.Thread(target=send, args=(daemon.url, warm[i::CLIENT_THREADS]))
                   for i in range(CLIENT_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return daemon

    def discard(daemon: ServeDaemon) -> None:
        daemon.shutdown()
        reap_children()

    phases = []
    daemon: Optional[ServeDaemon] = None
    try:
        setup_s, daemon = timed_setup(setup, 1 if cfg.smoke else 3, discard)
        admin = Client(daemon.url)
        try:
            start = 0
            for rec in ([None, SpanRecorder()] if cfg.trace else [None]):
                crashes = (
                    CrashClock(SMOKE_CRASH_EVERY_S if cfg.smoke else CRASH_EVERY_S)
                    if chaos else None
                )
                before = admin.statz()
                replies, elapsed = drive(daemon.url, stream, start,
                                         cfg.seconds / 2 if cfg.trace else cfg.seconds,
                                         crashes, rec)
                # the traced phase continues the stream, so its fresh
                # programs are fresh too
                start = replies[-1].k + 1 if replies else start
                phases.append((rec, replies, elapsed, before, admin.statz()))
        finally:
            admin.close()
    finally:
        if daemon is not None:
            daemon.shutdown()
        reap_children()
        shutil.rmtree(tmp, ignore_errors=True)

    def as_phase(replies: List[Reply], elapsed: float) -> Phase:
        return Phase([(r.latency_ms, r.kind) for r in replies if r.ok], len(replies), elapsed)

    _, replies, elapsed, _, _ = phases[0]
    untraced = as_phase(replies, elapsed)
    outcome = Outcome(e2e=end_to_end(setup_s, untraced, None))
    if cfg.trace:
        rec, t_replies, t_elapsed, before, after = phases[1]
        outcome.recorder = rec
        outcome.layers = layer_defaults()
        outcome.layers.update(serve_layers(t_replies, before, after))
        outcome.layers["bench.trace_overhead"] = as_phase(t_replies, t_elapsed).rate / untraced.rate

    t_gate = time.perf_counter()
    every = [r for _, phase_replies, _, _, _ in phases for r in phase_replies]
    failed = [r for r in every if not r.ok]
    outcome.mismatches = gate_serve(every, stream)
    outcome.errors = [f"request {r.k} ({r.kind}): {r.error}" for r in failed]
    outcome.attempted = len(every)
    outcome.failed = len(failed) + len(outcome.mismatches)
    by_status: Dict[str, int] = defaultdict(int)
    for r in every:
        by_status[r.resp["status"] if r.resp is not None else "transport-error"] += 1
    outcome.info.update(
        latency=latency_report(untraced),
        byStatus=dict(by_status),
        byKind={kind: sum(1 for r in replies if r.kind == kind)
                for kind in ("hot", "fresh", "crash")},
        gateS=time.perf_counter() - t_gate,
    )
    return outcome


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #

#: Why each workload was chosen: bench/README.md and BENCHMARK.json.
WORKLOADS: Dict[str, Callable[[RunConfig], Outcome]] = {
    "compile-cold": run_compile_cold,
    "exec-large": lambda cfg: run_exec(cfg, 256),
    "exec-small": lambda cfg: run_exec(cfg, 24),
    "serve-warm": lambda cfg: run_serve(cfg, chaos=False),
    "serve-chaos": lambda cfg: run_serve(cfg, chaos=True),
}
