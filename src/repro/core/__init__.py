"""repro.core -- the Session + PassManager compilation core.

The composable heart of the library (docs/ARCHITECTURE.md):

* :class:`~repro.core.session.Session` owns every piece of cross-cutting
  context -- options, budget, tracer, metrics registry, memo caches,
  accumulated diagnostics -- and exposes ``fuse`` / ``fuse_program`` /
  ``fuse_program_resilient`` / ``fuse_many`` (batch compilation).
* :class:`~repro.core.manager.PassManager` runs the pipeline as
  registered :class:`~repro.core.passes.Pass` objects (parse -> validate
  -> lint -> extract-mldg -> legality -> fuse -> verify-retiming ->
  codegen) with uniform tracing, metrics and error-to-diagnostic
  conversion.
* :class:`~repro.core.codes.ExitCode` is the one exit-code table shared
  by every CLI subcommand.

This ``__init__`` resolves its public names lazily (PEP 562): the
low-level modules (:mod:`repro.perf.memo`, :mod:`repro.codegen.pycompile`)
import :mod:`repro.core.context` at import time, and a heavy eager
``__init__`` here would turn that into a cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.codes import ExitCode
from repro.core.context import current_session

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.backends import ExecutionBackend, backend_names, execute_fused
    from repro.core.batch import BATCH_SCHEMA, BatchEntry, BatchReport
    from repro.core.manager import PassManager, diagnostics_from_exception
    from repro.core.passes import Artifact, Pass, resilient_passes, strict_passes
    from repro.core.session import (
        LADDER_VARIANTS,
        Session,
        SessionCaches,
        SessionOptions,
    )

__all__ = [
    "Artifact",
    "BATCH_SCHEMA",
    "BatchEntry",
    "BatchReport",
    "ExecutionBackend",
    "ExitCode",
    "LADDER_VARIANTS",
    "Pass",
    "PassManager",
    "Session",
    "SessionCaches",
    "SessionOptions",
    "backend_names",
    "current_session",
    "diagnostics_from_exception",
    "execute_fused",
    "resilient_passes",
    "strict_passes",
]

_LAZY = {
    "Artifact": ("repro.core.passes", "Artifact"),
    "ExecutionBackend": ("repro.core.backends", "ExecutionBackend"),
    "backend_names": ("repro.core.backends", "backend_names"),
    "execute_fused": ("repro.core.backends", "execute_fused"),
    "Pass": ("repro.core.passes", "Pass"),
    "strict_passes": ("repro.core.passes", "strict_passes"),
    "resilient_passes": ("repro.core.passes", "resilient_passes"),
    "PassManager": ("repro.core.manager", "PassManager"),
    "diagnostics_from_exception": ("repro.core.manager", "diagnostics_from_exception"),
    "Session": ("repro.core.session", "Session"),
    "SessionCaches": ("repro.core.session", "SessionCaches"),
    "SessionOptions": ("repro.core.session", "SessionOptions"),
    "LADDER_VARIANTS": ("repro.core.session", "LADDER_VARIANTS"),
    "BatchEntry": ("repro.core.batch", "BatchEntry"),
    "BatchReport": ("repro.core.batch", "BatchReport"),
    "BATCH_SCHEMA": ("repro.core.batch", "BATCH_SCHEMA"),
}


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro.core' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def __dir__() -> "list[str]":
    return sorted(__all__)
