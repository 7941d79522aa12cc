"""The performance layer: memo caches and the bench harness.

Two pillars (see ``docs/PERFORMANCE.md``):

* :mod:`repro.perf.memo` -- canonical structural hashing of MLDGs feeding
  LRU caches so repeated and isomorphic ``fuse()`` queries are O(1);
* :mod:`repro.perf.bench` -- the measured-perf harness behind
  ``repro-fuse bench`` and ``BENCH_perf.json``.

Submodules are loaded lazily so that low-level packages (e.g. the fusion
driver, which consumes :mod:`repro.perf.memo`) can import this package
without dragging in the bench harness.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

__all__ = [
    "MemoCache",
    "CacheInfo",
    "canonical_mldg_key",
    "structural_hash",
    "fusion_cache",
    "retiming_cache",
    "clear_all_caches",
    "run_bench_suite",
    "BenchRecord",
]

_LAZY = {
    "MemoCache": "repro.perf.memo",
    "CacheInfo": "repro.perf.memo",
    "canonical_mldg_key": "repro.perf.memo",
    "structural_hash": "repro.perf.memo",
    "fusion_cache": "repro.perf.memo",
    "retiming_cache": "repro.perf.memo",
    "clear_all_caches": "repro.perf.memo",
    "run_bench_suite": "repro.perf.bench",
    "BenchRecord": "repro.perf.bench",
}

if TYPE_CHECKING:  # pragma: no cover - static imports for type checkers
    from repro.perf.bench import BenchRecord, run_bench_suite  # noqa: F401
    from repro.perf.memo import (  # noqa: F401
        CacheInfo,
        MemoCache,
        canonical_mldg_key,
        clear_all_caches,
        fusion_cache,
        retiming_cache,
        structural_hash,
    )


def __getattr__(name: str):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value
