"""The execution planner: one rule from the stage mix to a backend.

Every execution is resolved under one precedence:

    **explicit > session > rule**

An explicit per-call (or per-request) backend always wins.  A session
configured with a concrete backend wins next.  Only ``"auto"`` reaches
the rule, :func:`choose_backend`, which looks at two facts and nothing
else: whether the fusion is DOALL (Theorems 4.1/4.2) or needs a
hyperplane schedule (Lemma 4.3), and the stage mix
:func:`repro.codegen.nplower.plan_lowering` builds for the fused body.

* A hyperplane fusion goes to ``numpy``, which lowers it to array
  stages, while ``compiled`` runs it cell by cell.
* A DOALL fusion whose whole-array statements are at least as many as
  its row-bound ones (slab recurrences plus scalar fallbacks) goes to
  ``numpy`` too: those stages become one array op each.
* Any other DOALL fusion goes to ``compiled``, whose per-row slices beat
  the staged slabs on recurrence-bound bodies.

The rule reads no clock, store or environment, and does not depend on
the problem size: the measurements behind it (docs/PLANNING.md) show the
compiled/numpy ratio of each kernel stays steady from 24x24 to 256x256.
Decisions are memoized per program (:mod:`repro.plan.profile`).  Every
decision emits a ``plan.select`` trace span and ``plan.*`` counters,
which ``repro-fuse stats`` and the daemon's ``/statz`` report.

The planner picks *how* to run, never *what* is computed: every backend
it can choose is bit-identical to the interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro import obs
from repro.plan.profile import memory_profiles

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.codegen.fused import FusedProgram
    from repro.vectors import IVec

__all__ = [
    "ExecutionPlan",
    "Planner",
    "choose_backend",
    "default_planner",
    "plan_snapshot",
]

#: Decision provenance values, strongest-precedence first.
PLAN_SOURCES = ("explicit", "session", "rule")


@dataclass(frozen=True)
class ExecutionPlan:
    """One resolved execution decision: the backend and why."""

    backend: str
    source: str  # one of PLAN_SOURCES
    rationale: str

    @property
    def jobs(self) -> int:
        """Always 1: every backend runs in the calling thread."""
        return 1

    @property
    def tile(self) -> None:
        """Always ``None``: no backend tiles its iteration space."""
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "backend": self.backend,
            "source": self.source,
            "rationale": self.rationale,
        }

    def describe(self) -> str:
        return f"{self.backend} [{self.source}] -- {self.rationale}"


def choose_backend(
    is_doall: bool, whole_array: int, slab: int, scalar: int = 0
) -> Tuple[str, str]:
    """The rule: ``(backend, rationale)`` from the fusion kind and stage mix.

    ``whole_array``, ``slab`` and ``scalar`` count the fused body's
    statements per stage kind of the staged lowering.
    """
    mix = f"stage mix w{whole_array}/s{slab}/x{scalar}"
    if not is_doall:
        return "numpy", (
            f"hyperplane fusion ({mix}): compiled runs it cell by cell, "
            "numpy as array stages"
        )
    row_bound = slab + scalar
    if whole_array >= row_bound:
        return "numpy", (
            f"DOALL fusion, {mix}: whole-array statements ({whole_array}) "
            f">= row-bound ones ({row_bound})"
        )
    return "compiled", (
        f"DOALL fusion, {mix}: row-bound statements ({row_bound}) "
        f"> whole-array ones ({whole_array})"
    )


def _rule_decision(
    fp: "FusedProgram", schedule: Optional["IVec"], is_doall: bool
) -> Tuple[str, str]:
    """The rule applied to ``fp``, memoized per program object."""
    from repro.codegen.nplower import plan_lowering
    from repro.perf.memo import memoization_enabled

    memo = memory_profiles() if memoization_enabled() else None
    if memo is not None:
        hit = memo.get(fp, schedule, is_doall)
        if hit is not None:
            return hit
    lowering = plan_lowering(fp, schedule=schedule)
    decision = choose_backend(
        is_doall,
        lowering.count("whole-array"),
        lowering.count("slab"),
        lowering.count("scalar"),
    )
    if memo is not None:
        memo.put(fp, schedule, is_doall, decision)
    return decision


def plan_snapshot(registry: Optional[obs.MetricsRegistry] = None) -> Dict[str, Any]:
    """The ``plan.*`` counters, for ``repro-fuse stats`` and ``/statz``."""
    reg = registry if registry is not None else obs.default_registry()
    counters = reg.to_dict()["counters"]
    return {"counters": {k: v for k, v in counters.items() if k.startswith("plan.")}}


class Planner:
    """Resolves an :class:`ExecutionPlan` for one execution."""

    def plan_execution(
        self,
        fp: "FusedProgram",
        n: Optional[int] = None,
        m: Optional[int] = None,
        *,
        schedule: Optional["IVec"] = None,
        is_doall: bool = True,
        requested: Optional[str] = None,
        session_backend: Optional[str] = None,
        jobs: Optional[int] = None,
    ) -> ExecutionPlan:
        """Resolve how to execute ``fp``.

        ``requested`` is the per-call/per-request backend (strongest),
        ``session_backend`` the session default; either being ``"auto"``
        (or absent) delegates to the rule.  ``n``/``m`` only label the
        ``plan.select`` span, and ``jobs`` is accepted for older callers
        and ignored: the rule depends on neither.
        """
        from repro.core.backends import backend_names, canonical_backend

        if requested is not None:
            requested = canonical_backend(requested)
        if session_backend is not None:
            session_backend = canonical_backend(session_backend)
        with obs.trace_span("plan.select", n=n, m=m) as sp:
            if requested is not None and requested != "auto":
                plan = ExecutionPlan(
                    requested, "explicit", "per-call backend wins over the planner"
                )
            elif session_backend is not None and session_backend != "auto":
                plan = ExecutionPlan(
                    session_backend, "session", "session options pin the backend"
                )
            else:
                backend, rationale = _rule_decision(fp, schedule, is_doall)
                plan = ExecutionPlan(backend, "rule", rationale)
            sp.set(backend=plan.backend, source=plan.source)
        reg = obs.default_registry()
        reg.counter("plan.selects").inc()
        reg.counter(f"plan.source.{plan.source}").inc()
        if plan.backend in backend_names():
            reg.counter(f"plan.backend.{plan.backend}").inc()
        return plan

    def record(self, plan: ExecutionPlan, elapsed_s: float, *, budget: Any = None) -> bool:
        """Accepted for older callers; the rule learns nothing from timings."""
        return False


_DEFAULT = Planner()


def default_planner() -> Planner:
    """The shared planner (it holds no state)."""
    return _DEFAULT
