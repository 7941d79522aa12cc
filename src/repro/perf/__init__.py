"""The performance layer: memo caches (see ``docs/PERFORMANCE.md``).

:mod:`repro.perf.memo` -- canonical structural hashing of MLDGs feeding
LRU caches so repeated and isomorphic ``fuse()`` queries are O(1).
Measurements live in the benchmark at ``bench/`` (``python3 bench/run.py``).

Names are loaded lazily so that low-level packages (e.g. the fusion
driver, which consumes :mod:`repro.perf.memo`) can import this package
cheaply.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

__all__ = [
    "MemoCache",
    "CacheInfo",
    "canonical_mldg_key",
    "structural_hash",
    "fusion_cache",
    "clear_all_caches",
]

_LAZY = {
    "MemoCache": "repro.perf.memo",
    "CacheInfo": "repro.perf.memo",
    "canonical_mldg_key": "repro.perf.memo",
    "structural_hash": "repro.perf.memo",
    "fusion_cache": "repro.perf.memo",
    "clear_all_caches": "repro.perf.memo",
}

if TYPE_CHECKING:  # pragma: no cover - static imports for type checkers
    from repro.perf.memo import (  # noqa: F401
        CacheInfo,
        MemoCache,
        canonical_mldg_key,
        clear_all_caches,
        fusion_cache,
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
