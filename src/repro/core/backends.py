"""The execution-backend registry.

Three interchangeable executors can run a fused program; this module
gives them one name table and one calling convention so every selection
site -- ``repro-fuse run --backend``, ``SessionOptions.backend`` (and
through it the serve workers and ``fuse_many``) and the benchmark's
static backends (``python3 bench/run.py``) -- resolves backends the same
way:

========== =========================================================
``interp``   tree-walking interpreter (:func:`repro.codegen.interp.run_fused`,
             serial mode) -- the semantic ground truth
``compiled`` generated Python with per-row numpy slices
             (:func:`repro.codegen.pycompile.compile_fused`)
``numpy``    staged whole-array lowering
             (:func:`repro.codegen.nplower.compile_numpy`)
========== =========================================================

``"auto"`` lets the execution planner (:mod:`repro.plan`) pick one of
them.  The removed ``parallel`` backend's name is still accepted and
resolves like ``"auto"`` with a :class:`DeprecationWarning`.

Every runner takes the same arguments and mutates/returns the given
:class:`~repro.codegen.interp.ArrayStore`; all are bit-identical to
``interp`` (enforced by the callers that verify, and by the test suite).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.codegen.fused import FusedProgram
    from repro.codegen.interp import ArrayStore
    from repro.vectors import IVec

__all__ = [
    "ExecutionBackend",
    "register",
    "get",
    "backend_names",
    "canonical_backend",
    "execute_fused",
    "selectable_backends",
]

#: Runner signature: ``(fp, n, m, store, schedule, is_doall) -> store``.
Runner = Callable[..., "ArrayStore"]


@dataclass(frozen=True)
class ExecutionBackend:
    """One way to execute a fused program over an :class:`ArrayStore`."""

    name: str
    description: str
    runner: Runner


_REGISTRY: Dict[str, ExecutionBackend] = {}


def register(backend: ExecutionBackend) -> ExecutionBackend:
    """Add (or replace) a backend in the registry."""
    _REGISTRY[backend.name] = backend
    return backend


def get(name: str) -> ExecutionBackend:
    """Look a backend up by name; raises ``KeyError`` listing the options."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown execution backend {name!r}; known: {backend_names()}"
        ) from None


def backend_names() -> Tuple[str, ...]:
    """Registered backend names, registration order."""
    return tuple(_REGISTRY)


#: Names of removed backends, accepted for compatibility, and what they
#: resolve to.
DEPRECATED_BACKENDS = {"parallel": "auto"}


def selectable_backends() -> Tuple[str, ...]:
    """Every name a caller may select: the registry, ``"auto"`` and the
    deprecated names."""
    return backend_names() + ("auto",) + tuple(DEPRECATED_BACKENDS)


def canonical_backend(name: str) -> str:
    """``name``, or its replacement when it names a removed backend (with
    a :class:`DeprecationWarning`)."""
    if name not in DEPRECATED_BACKENDS:
        return name
    replacement = DEPRECATED_BACKENDS[name]
    warnings.warn(
        f"the {name!r} execution backend was removed; it resolves like "
        f"{replacement!r}",
        DeprecationWarning,
        stacklevel=3,
    )
    return replacement


def execute_fused(
    name: str,
    fp: "FusedProgram",
    n: int,
    m: int,
    *,
    store: "ArrayStore",
    schedule: Optional["IVec"] = None,
    is_doall: bool = True,
    jobs: Optional[int] = None,
    tile: Optional[int] = None,
) -> "ArrayStore":
    """Run ``fp`` over ``store`` (mutated in place) with the named backend.

    ``schedule``/``is_doall`` come from the fusion result (the hyperplane
    vector when the fusion is not DOALL).  ``name="auto"`` resolves
    through the execution planner (:mod:`repro.plan`); whatever it picks
    is bit-identical to ``interp``.  ``jobs`` and ``tile`` are accepted
    for older callers and ignored.
    """
    name = canonical_backend(name)
    if name == "auto":
        from repro.plan import default_planner

        name = default_planner().plan_execution(
            fp, n, m, schedule=schedule, is_doall=is_doall,
        ).backend
    return get(name).runner(fp, n, m, store, schedule, is_doall)


# ------------------------------------------------------------------ #
# the built-in three
# ------------------------------------------------------------------ #


def _run_interp(
    fp: FusedProgram,
    n: int,
    m: int,
    store: ArrayStore,
    schedule: Optional[IVec],
    is_doall: bool,
) -> ArrayStore:
    from repro.codegen.interp import run_fused

    return run_fused(fp, n, m, store=store, mode="serial")


def _run_compiled(
    fp: FusedProgram,
    n: int,
    m: int,
    store: ArrayStore,
    schedule: Optional[IVec],
    is_doall: bool,
) -> ArrayStore:
    from repro.codegen.pycompile import compile_fused

    compile_fused(fp)(store, n, m)
    return store


def _run_numpy(
    fp: FusedProgram,
    n: int,
    m: int,
    store: ArrayStore,
    schedule: Optional[IVec],
    is_doall: bool,
) -> ArrayStore:
    from repro.codegen.nplower import compile_numpy

    compile_numpy(fp, schedule=schedule)(store, n, m)
    return store


register(ExecutionBackend(
    "interp", "tree-walking interpreter (serial; ground truth)", _run_interp,
))
register(ExecutionBackend(
    "compiled", "generated Python, per-row numpy slices", _run_compiled,
))
register(ExecutionBackend(
    "numpy", "staged whole-array numpy lowering", _run_numpy,
))
