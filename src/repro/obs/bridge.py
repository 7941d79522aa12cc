"""Bridges between the observability layer and the rest of the library.

:mod:`repro.obs` proper imports nothing from the rest of :mod:`repro`, so
every subsystem can instrument itself without import cycles.  The glue
that *does* need to look across subsystems -- snapshotting the memo/kernel
caches into the registry, and assembling the ``repro-fuse stats``
document -- lives here, behind function-local imports.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.metrics import MetricsRegistry, default_registry

__all__ = [
    "STATS_SCHEMA",
    "cache_snapshot",
    "snapshot_caches",
    "stats_document",
    "render_stats_text",
]

STATS_SCHEMA = "repro-stats/1"


def cache_snapshot() -> Dict[str, Dict[str, Any]]:
    """Current hit/miss/eviction statistics of every cache tier in scope.

    The two L1 memo caches (fusion, kernels) are always present; the
    ``store`` block (the L2 disk tier, :mod:`repro.store`) appears when one
    is configured for this context -- its dict carries the same hits/misses/evictions/
    currsize core plus file-level fields (``sizeBytes``, ``storedHits``).
    """
    from repro.codegen.pycompile import kernel_cache_info
    from repro.perf.memo import fusion_cache
    from repro.store import active_store

    snap = {
        "fusion": fusion_cache().cache_info().to_dict(),
        "kernels": kernel_cache_info().to_dict(),
    }
    store = active_store()
    if store is not None:
        snap["store"] = store.stats().to_dict()
    return snap


def snapshot_caches(registry: Optional[MetricsRegistry] = None) -> None:
    """Mirror the cache statistics into gauges (``cache.<name>.<stat>``).

    The live hit/miss *counters* are incremented at the caches' call sites
    as they happen; this snapshot adds the caches' own cumulative view
    (including activity from before the registry was last reset).
    """
    reg = registry if registry is not None else default_registry()
    for name, info in cache_snapshot().items():
        for stat in ("hits", "misses", "evictions", "currsize"):
            reg.gauge(f"cache.{name}.{stat}").set(info[stat])


def stats_document(registry: Optional[MetricsRegistry] = None) -> Dict[str, Any]:
    """The ``repro-stats/1`` document ``repro-fuse stats`` prints."""
    from repro.plan import plan_snapshot

    reg = registry if registry is not None else default_registry()
    return {
        "schema": STATS_SCHEMA,
        "metrics": reg.to_dict(),
        "caches": cache_snapshot(),
        "plan": plan_snapshot(reg),
    }


def render_stats_text(doc: Dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`stats_document`."""
    metrics = doc.get("metrics", {})
    rows = []
    for name, value in metrics.get("counters", {}).items():
        rows.append((name, str(value)))
    for name, value in metrics.get("gauges", {}).items():
        rows.append((name, str(value)))
    for name, h in metrics.get("histograms", {}).items():
        rows.append(
            (name, f"count={h['count']} sum={h['sum']:.6g} mean={h['mean']:.6g}")
        )
    lines = []
    if rows:
        width = max(len(name) for name, _ in rows)
        lines.extend(f"{name.ljust(width)}  {value}" for name, value in sorted(rows))
    else:
        lines.append("(no metrics recorded)")
    caches = doc.get("caches", {})
    if caches:
        lines.append("")
        for name, info in caches.items():
            lines.append(
                f"cache {name}: {info['hits']} hits / {info['misses']} misses "
                f"/ {info['evictions']} evictions (size {info['currsize']})"
            )
    return "\n".join(lines)
