"""The performance-trajectory harness.

Times the execution backends (tree-walking interpreter, compiled row
kernels, staged numpy lowering), the fusion memo cache, and the
constraint solvers on gallery workloads, and renders the measurements as
machine-readable records -- the same shape ``BENCH_perf.json`` archives and
``repro-fuse bench --format json`` prints.

Every record carries the benchmark name, backend, iteration-space size,
median wall-clock seconds over ``repeats`` runs with a spread estimate
(half the min-max range), and any backend-specific extras (cache statistics, speedup vs the serial interpreter).  Medians rather than
means keep one preempted run from skewing a record.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "BenchRecord",
    "time_callable",
    "bench_backends",
    "bench_backend_sweep",
    "bench_fusion_cache",
    "bench_plan",
    "bench_solvers",
    "bench_store",
    "bench_store_gallery",
    "parse_sizes",
    "platform_block",
    "run_bench_suite",
    "render_records_text",
    "records_to_json",
]


@dataclass
class BenchRecord:
    """One timed configuration."""

    name: str
    backend: str
    median_s: float
    err_s: float
    repeats: int
    n: Optional[int] = None
    m: Optional[int] = None
    speedup_vs_interp: Optional[float] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "backend": self.backend,
            "medianSeconds": self.median_s,
            "errSeconds": self.err_s,
            "repeats": self.repeats,
        }
        if self.n is not None:
            out["n"] = self.n
        if self.m is not None:
            out["m"] = self.m
        if self.speedup_vs_interp is not None:
            out["speedupVsInterp"] = round(self.speedup_vs_interp, 3)
        if self.extra:
            out.update(self.extra)
        return out


def time_callable(
    fn: Callable[[], Any], *, repeats: int = 3, warmup: int = 1
) -> Tuple[float, float]:
    """Median and half-range of ``repeats`` timed runs of ``fn``."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for _ in range(warmup):
        fn()
    samples: List[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    median = statistics.median(samples)
    err = (max(samples) - min(samples)) / 2.0
    return median, err


# ------------------------------------------------------------------ #
# workload setup
# ------------------------------------------------------------------ #

_EXAMPLES: Dict[str, Callable[[], str]] = {}


def _example_source(name: str) -> str:
    """Loop-IR source for a named gallery example."""
    from repro.gallery.common import floyd_steinberg_code, iir2d_code
    from repro.gallery.extended import extended_kernels
    from repro.gallery.paper import figure2_code

    sources: Dict[str, Optional[str]] = {
        "fig2": figure2_code(),
        "iir2d": iir2d_code(),
        "sor": floyd_steinberg_code(),
    }
    for k in extended_kernels():
        sources[k.key] = k.code
    try:
        src = sources[name]
    except KeyError:
        raise ValueError(
            f"unknown bench example {name!r}; choose from {sorted(sources)}"
        ) from None
    if src is None:
        raise ValueError(f"example {name!r} has no runnable source")
    return src


def bench_examples() -> List[str]:
    """Names accepted by :func:`bench_backends` (stable order)."""
    from repro.gallery.extended import extended_kernels

    return ["fig2", "iir2d", "sor"] + [k.key for k in extended_kernels()]


# ------------------------------------------------------------------ #
# backend benchmarks
# ------------------------------------------------------------------ #


def _kernel_cache_delta(before: Any, after: Any) -> Dict[str, int]:
    """Hits/misses attributable to one backend phase (satellite of the
    global counters, which smear all phases together)."""
    return {
        "hits": after.hits - before.hits,
        "misses": after.misses - before.misses,
    }


def bench_backends(
    example: str = "fig2",
    *,
    n: int = 256,
    m: int = 256,
    backends: Sequence[str] = ("interp", "compiled", "numpy"),
    repeats: int = 3,
    verify: bool = True,
) -> List[BenchRecord]:
    """Time the execution backends on one gallery example.

    When ``verify`` is set (default) each backend's result is checked
    bit-identical against the serial interpreter before it is timed --
    a benchmark of a wrong answer is worthless.

    Timing is *kernel-only* and uniform across backends: every backend
    runs over one pre-copied store reused across the timed repeats (the
    operation count is size-determined, not value-determined, so reusing
    the mutated store is fair), and the input-copy cost every end-to-end
    caller also pays is reported once as a separate ``store-copy`` record.
    Kernel-compiling backends report the kernel-cache hits/misses their
    own phase produced (``kernelCache``), so a warm cache is visible per
    backend instead of as one smeared global ratio.
    """
    from repro.codegen import ArrayStore, apply_fusion, run_fused
    from repro.codegen.nplower import compile_numpy
    from repro.codegen.pycompile import compile_fused, kernel_cache_info
    from repro.depend import extract_mldg
    from repro.fusion import fuse
    from repro.loopir import parse_program

    nest = parse_program(_example_source(example))
    g = extract_mldg(nest)
    result = fuse(g)
    fp = apply_fusion(nest, result.retiming, mldg=g)
    base = ArrayStore.for_program(nest, n, m, seed=0)

    reference = run_fused(fp, n, m, store=base.copy(), mode="serial")
    records: List[BenchRecord] = []
    copy_median, copy_err = time_callable(lambda: base.copy(), repeats=repeats)
    records.append(
        BenchRecord(
            name=f"{example}-fused", backend="store-copy", median_s=copy_median,
            err_s=copy_err, repeats=repeats, n=n, m=m,
            extra={"note": "input-copy cost excluded from the backend rows"},
        )
    )

    interp_median: Optional[float] = None
    compiled_median: Optional[float] = None
    if "interp" in backends:
        work = base.copy()
        median, err = time_callable(
            lambda: run_fused(fp, n, m, store=work, mode="serial"),
            repeats=repeats,
            warmup=0,
        )
        interp_median = median
        records.append(
            BenchRecord(
                name=f"{example}-fused", backend="interp", median_s=median,
                err_s=err, repeats=repeats, n=n, m=m,
                extra={"parallelism": result.parallelism.value},
            )
        )

    if "compiled" in backends:
        snap = kernel_cache_info()
        kernel = compile_fused(fp)
        if verify:
            got = base.copy()
            kernel(got, n, m)
            if not reference.equal(got):  # pragma: no cover - correctness guard
                raise AssertionError("compiled backend diverged from the interpreter")
        work = base.copy()
        compiled_median, err = time_callable(
            lambda: kernel(work, n, m), repeats=repeats
        )
        records.append(
            BenchRecord(
                name=f"{example}-fused", backend="compiled",
                median_s=compiled_median,
                err_s=err, repeats=repeats, n=n, m=m,
                speedup_vs_interp=(interp_median / compiled_median)
                if interp_median else None,
                extra={"kernelCache": _kernel_cache_delta(snap, kernel_cache_info())},
            )
        )

    if "numpy" in backends:
        snap = kernel_cache_info()
        np_kernel = compile_numpy(fp, schedule=result.schedule)
        if verify:
            got = base.copy()
            np_kernel(got, n, m)
            if not reference.equal(got):  # pragma: no cover - correctness guard
                raise AssertionError("numpy backend diverged from the interpreter")
        work = base.copy()
        median, err = time_callable(
            lambda: np_kernel(work, n, m), repeats=repeats
        )
        extra: Dict[str, Any] = {
            "kernelCache": _kernel_cache_delta(snap, kernel_cache_info()),
            "plan": np_kernel.plan,  # type: ignore[attr-defined]
        }
        if compiled_median:
            extra["speedupVsCompiled"] = round(compiled_median / median, 3)
        records.append(
            BenchRecord(
                name=f"{example}-fused", backend="numpy", median_s=median,
                err_s=err, repeats=repeats, n=n, m=m,
                speedup_vs_interp=(interp_median / median) if interp_median else None,
                extra=extra,
            )
        )

    return records


def parse_sizes(spec: str) -> List[Tuple[int, int]]:
    """Parse a ``--sizes``-style sweep spec: ``N1xM1,N2xM2,...``."""
    sizes: List[Tuple[int, int]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            n_s, m_s = part.lower().split("x")
            sizes.append((int(n_s), int(m_s)))
        except ValueError:
            raise ValueError(
                f"bad size {part!r} in sweep spec; expected NxM (e.g. 64x64)"
            ) from None
    if not sizes:
        raise ValueError("empty size sweep spec")
    return sizes


def bench_backend_sweep(
    example: str = "fig2",
    *,
    sizes: Sequence[Tuple[int, int]],
    backends: Sequence[str] = ("interp", "compiled", "numpy"),
    repeats: int = 3,
    verify: bool = True,
) -> List[BenchRecord]:
    """:func:`bench_backends` across an iteration-space size sweep.

    The interp/compiled/numpy crossover points move with size (fixed
    per-call overhead vs per-element work), so backend selection needs
    the curve, not one point.
    """
    records: List[BenchRecord] = []
    for n, m in sizes:
        records += bench_backends(
            example, n=n, m=m, backends=backends, repeats=repeats, verify=verify,
        )
    return records


def bench_fusion_cache(
    example: str = "fig2", *, repeats: int = 5
) -> List[BenchRecord]:
    """Time a cold ``fuse()`` against memo-cache hits on the same MLDG."""
    from repro.depend import extract_mldg
    from repro.fusion import fuse
    from repro.loopir import parse_program
    from repro.perf.memo import fusion_cache

    nest = parse_program(_example_source(example))
    g = extract_mldg(nest)

    cache = fusion_cache()
    cache.clear()
    median_cold, err_cold = time_callable(
        lambda: (cache.clear(), fuse(g)), repeats=repeats, warmup=1
    )
    fuse(g)  # prime
    median_hot, err_hot = time_callable(lambda: fuse(g), repeats=repeats)
    info = cache.cache_info()
    return [
        BenchRecord(
            name=f"{example}-fuse", backend="solver", median_s=median_cold,
            err_s=err_cold, repeats=repeats,
        ),
        BenchRecord(
            name=f"{example}-fuse", backend="memo-cache", median_s=median_hot,
            err_s=err_hot, repeats=repeats,
            speedup_vs_interp=None,
            extra={"cache": info.to_dict(),
                   "speedupVsSolver": round(median_cold / median_hot, 1)
                   if median_hot else None},
        ),
    ]


def bench_store(
    example: str = "fig2",
    *,
    repeats: int = 5,
    store_path: Optional[str] = None,
) -> List[BenchRecord]:
    """Cold vs warm compile latency through the persistent store (L2).

    Three configurations, each with a private (session-owned) L1 cleared
    before every timed run so the L1 never shadows what is being measured:

    - ``no-store``: the solver alone -- the cold-compile baseline.
    - ``store-cold``: solver plus write-through to a fresh store file, the
      persistence overhead a first compile pays.
    - ``store-warm``: the store primed, every run served from disk after
      re-verification -- what a second process (or serve worker) pays.

    The warm record's ``store`` extra carries the L2 hit ratio observed
    during the warm phase.  With ``store_path=None`` a temporary file is
    used and removed afterwards.
    """
    import os
    import shutil
    import tempfile

    from repro.core.session import Session, SessionCaches, SessionOptions
    from repro.depend import extract_mldg
    from repro.fusion import fuse
    from repro.loopir import parse_program

    nest = parse_program(_example_source(example))
    g = extract_mldg(nest)
    records: List[BenchRecord] = []

    tmpdir: Optional[str] = None
    if store_path is None:
        tmpdir = tempfile.mkdtemp(prefix="repro-bench-store-")
        store_path = os.path.join(tmpdir, "bench-store.db")
    try:
        # cold baseline: private L1, no store in scope -- mask the env
        # default so a `bench --store` invocation cannot leak into it
        saved_env = os.environ.pop("REPRO_FUSE_STORE", None)
        try:
            bare = Session(caches=SessionCaches.private())
            with bare.activate():
                cold_median, cold_err = time_callable(
                    lambda: (
                        bare.caches.fusion.clear(),
                        bare.caches.retiming.clear(),
                        fuse(g),
                    ),
                    repeats=repeats,
                )
        finally:
            if saved_env is not None:
                os.environ["REPRO_FUSE_STORE"] = saved_env
        records.append(
            BenchRecord(
                name=f"{example}-pipeline", backend="no-store",
                median_s=cold_median, err_s=cold_err, repeats=repeats,
            )
        )

        session = Session(
            options=SessionOptions(store_path=store_path),
            caches=SessionCaches.private(),
        )
        store = session.caches.store
        assert store is not None
        with session.activate():
            # store-cold: every run clears both tiers, so the row is
            # recomputed and re-persisted each time
            sc_median, sc_err = time_callable(
                lambda: (
                    session.caches.fusion.clear(),
                    session.caches.retiming.clear(),
                    store.clear(),
                    fuse(g),
                ),
                repeats=repeats,
            )
            records.append(
                BenchRecord(
                    name=f"{example}-pipeline", backend="store-cold",
                    median_s=sc_median, err_s=sc_err, repeats=repeats,
                    extra={
                        "overheadVsNoStore": round(sc_median / cold_median, 3)
                        if cold_median else None,
                    },
                )
            )

            # store-warm: prime once, then only the L1 is cleared -- each
            # run is an L2 load + verify
            fuse(g)
            before = store.stats()
            sw_median, sw_err = time_callable(
                lambda: (session.caches.fusion.clear(), fuse(g)),
                repeats=repeats,
            )
            after = store.stats()
            delta_hits = after.hits - before.hits
            delta_misses = after.misses - before.misses
            looked_up = delta_hits + delta_misses
            records.append(
                BenchRecord(
                    name=f"{example}-pipeline", backend="store-warm",
                    median_s=sw_median, err_s=sw_err, repeats=repeats,
                    speedup_vs_interp=None,
                    extra={
                        "speedupVsSolver": round(cold_median / sw_median, 1)
                        if sw_median else None,
                        "store": {
                            "hits": delta_hits,
                            "misses": delta_misses,
                            "hitRatio": round(delta_hits / looked_up, 3)
                            if looked_up else 0.0,
                            "entries": after.entries,
                        },
                    },
                )
            )
    finally:
        if tmpdir is not None:
            # the handle reopens lazily if anything touches this path again,
            # but the temp path is unique so closing it here is final
            from repro.store import open_store

            open_store(store_path).close()
            shutil.rmtree(tmpdir, ignore_errors=True)
    return records


def bench_store_gallery(*, store_path: Optional[str] = None) -> List[BenchRecord]:
    """Compile the whole gallery twice through one shared store.

    The cold pass populates the store; the warm pass runs with a fresh
    private L1 against the same file, so every compile must be served from
    disk (after re-verification).  Records per-pass wall clock, the warm
    pass's L2 hit ratio, and whether the warm results are bit-identical to
    the cold ones -- the acceptance row archived in ``BENCH_perf.json``.
    """
    import os
    import shutil
    import tempfile

    from repro.core.session import Session, SessionCaches, SessionOptions
    from repro.depend import extract_mldg
    from repro.fusion import fuse
    from repro.loopir import parse_program

    graphs = []
    for name in bench_examples():
        try:
            source = _example_source(name)
        except ValueError:  # gallery entry with no runnable loop-IR source
            continue
        graphs.append((name, extract_mldg(parse_program(source))))

    def outcome(result: Any) -> Tuple[Any, ...]:
        """Everything a fusion result pins down, in comparable form."""
        return (
            result.strategy.value,
            tuple(sorted(
                (k, tuple(v)) for k, v in result.retiming.as_dict().items()
            )),
            tuple(result.schedule),
            tuple(result.hyperplane) if result.hyperplane is not None else None,
        )

    tmpdir: Optional[str] = None
    if store_path is None:
        tmpdir = tempfile.mkdtemp(prefix="repro-bench-store-")
        store_path = os.path.join(tmpdir, "gallery-store.db")
    try:
        cold = Session(
            options=SessionOptions(store_path=store_path),
            caches=SessionCaches.private(),
        )
        with cold.activate():
            t0 = time.perf_counter()
            cold_out = {name: outcome(fuse(g)) for name, g in graphs}
            cold_s = time.perf_counter() - t0
        store = cold.caches.store
        assert store is not None
        before = store.stats()

        warm = Session(
            options=SessionOptions(store_path=store_path),
            caches=SessionCaches.private(),
        )
        with warm.activate():
            t0 = time.perf_counter()
            warm_out = {name: outcome(fuse(g)) for name, g in graphs}
            warm_s = time.perf_counter() - t0
        after = store.stats()
        delta_hits = after.hits - before.hits
        delta_misses = after.misses - before.misses
        looked_up = delta_hits + delta_misses
        return [
            BenchRecord(
                name="gallery-store", backend="cold-pass", median_s=cold_s,
                err_s=0.0, repeats=1,
                extra={"examples": len(graphs), "entries": before.entries},
            ),
            BenchRecord(
                name="gallery-store", backend="warm-pass", median_s=warm_s,
                err_s=0.0, repeats=1,
                extra={
                    "examples": len(graphs),
                    "speedupVsSolver": round(cold_s / warm_s, 1) if warm_s else None,
                    "bitIdentical": cold_out == warm_out,
                    "store": {
                        "hits": delta_hits,
                        "misses": delta_misses,
                        "hitRatio": round(delta_hits / looked_up, 3)
                        if looked_up else 0.0,
                    },
                },
            ),
        ]
    finally:
        if tmpdir is not None:
            from repro.store import open_store

            open_store(store_path).close()
            shutil.rmtree(tmpdir, ignore_errors=True)


def bench_plan(
    example: str = "fig2",
    *,
    sizes: Sequence[Tuple[int, int]] = ((24, 24),),
    repeats: int = 3,
) -> List[BenchRecord]:
    """Planner-driven ``auto`` execution against every static backend.

    Per size, every static backend and then ``auto`` run through
    ``Session.execute_fused``.  The ``auto`` record archives the rule's
    pick (backend/source/rationale) and its median against the best and
    worst static backend, so ``BENCH_perf.json`` shows whether the rule
    lands on the measured winner (``vsBestStatic`` ~ 1.0) and stays off
    the loser (``vsWorstStatic`` well under 1.0 wherever the spread is
    real).
    """
    from repro.codegen import ArrayStore
    from repro.core.session import Session, SessionCaches, SessionOptions

    session = Session(
        options=SessionOptions(backend="auto"), caches=SessionCaches.private()
    )
    out = session.fuse_program(_example_source(example))
    fp = out.fused
    if fp is None:
        raise ValueError(f"example {example!r} emitted no fused program")
    schedule = out.fusion.schedule
    is_doall = out.fusion.is_doall

    def run(_n: int, _m: int, backend: Optional[str], store: Any) -> Any:
        return session.execute_fused(
            fp, _n, _m, store=store, backend=backend,
            schedule=schedule, is_doall=is_doall,
        )

    records: List[BenchRecord] = []
    for _n, _m in sizes:
        base = ArrayStore.for_program(out.nest, _n, _m, seed=0)
        reference = run(_n, _m, "interp", base.copy())
        timings: Dict[str, float] = {}
        for backend in ("interp", "compiled", "numpy"):
            median, err = time_callable(
                lambda: run(_n, _m, backend, base.copy()), repeats=repeats
            )
            timings[backend] = median
            records.append(
                BenchRecord(
                    name=f"{example}-plan", backend=backend,
                    median_s=median, err_s=err, repeats=repeats, n=_n, m=_m,
                )
            )
        plan = session.planner.plan_execution(
            fp, _n, _m, schedule=schedule, is_doall=is_doall,
            session_backend="auto",
        )
        got = run(_n, _m, None, base.copy())
        if not reference.equal(got):  # pragma: no cover - correctness guard
            raise AssertionError(
                f"auto backend diverged from the interpreter at {_n}x{_m}"
            )
        auto_median, auto_err = time_callable(
            lambda: run(_n, _m, None, base.copy()), repeats=repeats
        )
        best = min(timings, key=lambda b: timings[b])
        worst = max(timings, key=lambda b: timings[b])
        records.append(
            BenchRecord(
                name=f"{example}-plan", backend="auto",
                median_s=auto_median, err_s=auto_err, repeats=repeats,
                n=_n, m=_m,
                extra={
                    "chosen": plan.to_dict(),
                    "bestStatic": {"backend": best, "medianSeconds": timings[best]},
                    "worstStatic": {"backend": worst, "medianSeconds": timings[worst]},
                    "vsBestStatic": round(auto_median / timings[best], 3)
                    if timings[best] else None,
                    "vsWorstStatic": round(auto_median / timings[worst], 3)
                    if timings[worst] else None,
                    "bitIdentical": True,
                },
            )
        )
    return records


def bench_solvers(*, chain: int = 400, repeats: int = 3) -> List[BenchRecord]:
    """SLF worklist vs round-based relaxation on an adversarial chain.

    The chain's edge list is reversed against propagation direction, the
    round-based solver's worst case (one node converges per O(E) round);
    the SLF worklist only re-relaxes touched vertices.
    """
    from repro.constraints.bellman_ford import scalar_bellman_ford

    nodes = ["s"] + [f"x{i}" for i in range(chain)]
    edges = [(f"x{i - 1}" if i else "s", f"x{i}", -1) for i in range(chain)]
    edges.reverse()

    records = []
    slf_median, slf_err = time_callable(
        lambda: scalar_bellman_ford(nodes, edges, "s"), repeats=repeats
    )
    rounds_median, rounds_err = time_callable(
        lambda: scalar_bellman_ford(nodes, edges, "s", algorithm="rounds"),
        repeats=repeats,
    )
    records.append(
        BenchRecord(
            name=f"bellman-ford-chain-{chain}", backend="slf",
            median_s=slf_median, err_s=slf_err, repeats=repeats,
            extra={"speedupVsRounds": round(rounds_median / slf_median, 1)
                   if slf_median else None},
        )
    )
    records.append(
        BenchRecord(
            name=f"bellman-ford-chain-{chain}", backend="rounds",
            median_s=rounds_median, err_s=rounds_err, repeats=repeats,
        )
    )
    return records


# ------------------------------------------------------------------ #
# suite + rendering
# ------------------------------------------------------------------ #


def run_bench_suite(
    example: str = "fig2",
    *,
    n: int = 256,
    m: int = 256,
    sizes: Optional[Sequence[Tuple[int, int]]] = None,
    backends: Sequence[str] = ("interp", "compiled", "numpy"),
    repeats: int = 3,
    include_cache: bool = True,
    include_solver: bool = True,
    include_store: bool = True,
    include_plan: bool = True,
    store_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the full suite; returns the ``BENCH_perf.json``-shaped document.

    ``sizes`` (a sweep of ``(n, m)`` pairs) overrides the single ``n``/``m``.
    """
    records = bench_backend_sweep(
        example, sizes=sizes if sizes is not None else [(n, m)],
        backends=backends, repeats=repeats,
    )
    if include_cache:
        records += bench_fusion_cache(example)
    if include_store:
        records += bench_store(example, repeats=repeats, store_path=store_path)
    if include_plan:
        records += bench_plan(
            example, sizes=sizes if sizes is not None else [(n, m)],
            repeats=repeats,
        )
    if include_solver:
        records += bench_solvers()
    return records_to_json(records)


def platform_block() -> Dict[str, Any]:
    """The ``platform`` object stamped into benchmark documents.

    Includes the array/graph library versions (``numpy``, ``networkx``):
    perf trajectories are uninterpretable without them.
    """
    import os

    import networkx
    import numpy

    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpuCount": os.cpu_count(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
    }


def records_to_json(records: Sequence[BenchRecord]) -> Dict[str, Any]:
    from repro import obs
    from repro.codegen.pycompile import kernel_cache_info
    from repro.perf.memo import fusion_cache, retiming_cache

    return {
        "schema": "repro-bench-perf/1",
        "platform": platform_block(),
        "caches": {
            "fusion": fusion_cache().cache_info().to_dict(),
            "retiming": retiming_cache().cache_info().to_dict(),
            "kernels": kernel_cache_info().to_dict(),
        },
        # additive since repro.obs: solver/cache/execution counters observed
        # while the benchmarked code ran (relaxation rounds, worklist pops,
        # chunk counts, ...); readers of repro-bench-perf/1 may ignore it
        "metrics": obs.default_registry().to_dict(),
        "benchmarks": [r.to_dict() for r in records],
    }


def render_records_text(doc: Dict[str, Any]) -> str:
    """A fixed-width table of a :func:`records_to_json` document."""
    headers = ["name", "backend", "n x m", "median", "err", "speedup"]
    rows: List[List[str]] = []
    for r in doc["benchmarks"]:
        size = f"{r['n']}x{r['m']}" if "n" in r else "-"
        rows.append(
            [
                r["name"],
                r["backend"],
                size,
                f"{r['medianSeconds'] * 1e3:.2f} ms",
                f"{r['errSeconds'] * 1e3:.2f} ms",
                str(r.get("speedupVsInterp", r.get("speedupVsSolver", "-"))),
            ]
        )
    widths = [max(len(h), *(len(row[k]) for row in rows)) if rows else len(h)
              for k, h in enumerate(headers)]
    lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)),
             "-+-".join("-" * w for w in widths)]
    for row in rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    caches = doc.get("caches", {})
    if caches:
        lines.append("")
        for name, info in caches.items():
            lines.append(
                f"cache {name}: {info['hits']} hits / {info['misses']} misses "
                f"/ {info['evictions']} evictions (size {info['currsize']})"
            )
    return "\n".join(lines)


def write_json(doc: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
