"""The Session: one object owning all cross-cutting compilation context.

Four subsystems used to thread their state through the ``fuse_program``
call chains ad hoc -- lint diagnostics, resilience budgets, perf memo
caches, obs tracer/metrics.  A :class:`Session` owns all of it:

* ``options`` -- default strategy, ladder variant, resilience knobs;
* ``budget`` -- the :class:`~repro.resilience.budget.Budget` every solver
  call runs under;
* ``tracer`` / ``registry`` -- session-scoped observability (``None``
  keeps the process-wide defaults);
* ``caches`` -- fusion/kernel memo caches
  (:meth:`SessionCaches.private` isolates them per session);
* ``diagnostics`` -- every structured finding the session's pipelines
  accumulated, thread-safe.

While a session is :meth:`activate`-d, the module-level cache accessors
(:func:`repro.perf.memo.fusion_cache` and friends) and the obs globals
resolve through it, so the whole library becomes session-aware without
threading a parameter through every signature.  The legacy entry points
(``repro.pipeline.fuse_program`` etc.) are thin wrappers over an
ephemeral default session and remain bit-identical.

:meth:`Session.fuse_many` is batch compilation: a thread pool over
independent programs with per-program diagnostics and trace ids and one
aggregated :class:`~repro.core.batch.BatchReport` -- the first step
toward a serving layer (exposed as ``repro-fuse batch``).
"""

from __future__ import annotations

import threading
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import obs
from repro.core import context as _context
from repro.core.manager import PassManager
from repro.core.passes import Artifact, resilient_passes, strict_passes
from repro.fusion.driver import FusionResult, Strategy, fuse as _fuse
from repro.graph.mldg import MLDG
from repro.lint.diagnostics import Diagnostic
from repro.loopir import LoopNest
from repro.perf.memo import MemoCache
from repro.resilience.budget import Budget
from repro.store import CompileStore, open_store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.batch import BatchReport
    from repro.pipeline import PipelineResult
    from repro.resilience.pipeline import ResilientPipelineResult

__all__ = ["LADDER_VARIANTS", "Session", "SessionCaches", "SessionOptions"]


#: Named degradation-ladder variants: rung-label sequences the resilient
#: fuse stage walks strongest-first.  Selected per session via
#: ``SessionOptions.ladder`` (a variant name or an explicit label tuple).
LADDER_VARIANTS = {
    # the full descent (the default; docs/RESILIENCE.md)
    "full": ("doall", "hyperplane", "legal-only", "partition", "none"),
    # cheapest possible answers only (serve's grace-budget fallback)
    "conservative": ("partition", "none"),
}


@dataclass
class SessionOptions:
    """Per-session compilation defaults (overridable per call)."""

    #: Default fusion strategy for :meth:`Session.fuse_program`.
    strategy: Union[Strategy, str] = Strategy.AUTO
    #: Weakest acceptable rung for resilient compilation.
    min_rung: str = "none"
    #: Gate resilient rungs with operational dataflow execution.
    verify_execution: bool = True
    #: Iteration box for the resilient execution gate (``None`` = default).
    bounds: Optional[Sequence[int]] = None
    #: Degradation-ladder variant: a :data:`LADDER_VARIANTS` name, an
    #: explicit tuple of rung labels, or ``None`` for the built-in descent.
    ladder: Optional[Union[str, Sequence[str]]] = None
    #: Default worker count for :meth:`Session.fuse_many` (``None``:
    #: :data:`repro.core.batch.DEFAULT_BATCH_JOBS`).
    jobs: Optional[int] = None
    #: Execution backend for :meth:`Session.execute_fused`
    #: (:mod:`repro.core.backends`: interp / compiled / numpy, or
    #: ``"auto"`` to let the planner decide per program; docs/PLANNING.md).
    backend: str = "interp"
    #: Run the certificate-carrying MLDG edge-pruning pass
    #: (:mod:`repro.analysis.prune`).  Off: the pipeline compiles the
    #: fully syntactic graph -- how the equivalence tests compare pruned
    #: and unpruned output.
    prune_edges: bool = True
    #: Seeded fault injector active while the session is (chaos testing;
    #: ``repro.resilience.faults``).  Injection is thread-local, so batch
    #: worker threads re-enter it per program.
    injector: Optional[Any] = None
    #: Seed for :attr:`injector`.
    fault_seed: int = 0
    #: Path of the persistent L2 compile store (:mod:`repro.store`) this
    #: session reads through and writes through.  ``None`` falls back to
    #: the ``REPRO_FUSE_STORE`` environment default (itself optional).
    store_path: Optional[str] = None

    def ladder_labels(self) -> Optional[Tuple[str, ...]]:
        """The rung-label descent this options object selects, if any."""
        if self.ladder is None:
            return None
        if isinstance(self.ladder, str):
            try:
                return LADDER_VARIANTS[self.ladder]
            except KeyError:
                raise KeyError(
                    f"unknown ladder variant {self.ladder!r}; "
                    f"known: {sorted(LADDER_VARIANTS)}"
                ) from None
        return tuple(self.ladder)


@dataclass
class SessionCaches:
    """The memo caches one session resolves through.

    ``None`` fields fall back to the process-wide caches, so a default
    session shares state with the legacy module-global behavior; use
    :meth:`private` for fully isolated caches.

    ``store`` is the L2 disk tier beneath the fusion cache: a
    ``None`` store falls back to the ``REPRO_FUSE_STORE`` environment
    default (resolved by :func:`repro.store.active_store`).  Unlike the
    L1 caches it is *shared* state by design -- many sessions and many
    processes read and write the same file.
    """

    fusion: Optional[MemoCache] = None
    kernels: Optional[MemoCache] = None
    store: Optional["CompileStore"] = None

    @classmethod
    def private(
        cls,
        *,
        fusion_size: int = 256,
        kernel_size: int = 128,
    ) -> "SessionCaches":
        """Fresh, session-owned caches (sized like the process defaults)."""
        return cls(
            fusion=MemoCache(maxsize=fusion_size),
            kernels=MemoCache(maxsize=kernel_size),
        )


class Session:
    """All cross-cutting context for one compilation scope.

    >>> from repro.core import Session
    >>> from repro.gallery.paper import figure2_code
    >>> out = Session().fuse_program(figure2_code())
    >>> out.fusion.strategy.value
    'cyclic'
    """

    def __init__(
        self,
        *,
        options: Optional[SessionOptions] = None,
        budget: Optional[Budget] = None,
        tracer: Optional[obs.Tracer] = None,
        registry: Optional[obs.MetricsRegistry] = None,
        caches: Optional[SessionCaches] = None,
    ) -> None:
        self.options = options if options is not None else SessionOptions()
        self.budget = budget
        self.tracer = tracer
        self.registry = registry
        self.caches = caches if caches is not None else SessionCaches()
        if self.caches.store is None and self.options.store_path is not None:
            # one handle per path per process; the sqlite connection is
            # opened lazily, so constructing a session before forking a
            # worker pool never shares a connection across processes
            self.caches.store = open_store(self.options.store_path)
        self._diagnostics: List[Diagnostic] = []
        self._lock = threading.Lock()
        self._strict = PassManager(strict_passes(), name="strict")
        self._resilient = PassManager(resilient_passes(), name="resilient")

    @classmethod
    def isolated(
        cls,
        *,
        options: Optional[SessionOptions] = None,
        budget: Optional[Budget] = None,
        tracer: Optional[obs.Tracer] = None,
    ) -> "Session":
        """A session sharing *nothing* mutable with the process defaults:
        private memo caches and a private metrics registry (plus its own
        tracer when given)."""
        return cls(
            options=options,
            budget=budget,
            tracer=tracer,
            registry=obs.MetricsRegistry(),
            caches=SessionCaches.private(),
        )

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #

    @property
    def effective_budget(self) -> Optional[Budget]:
        """The budget consumers should honor *right now*: a context-local
        :func:`~repro.core.context.budget_scope` override when present
        (per-program deadlines on a shared session), else the session's
        own budget."""
        override = _context.current_budget_override()
        return override if override is not None else self.budget

    @property
    def diagnostics(self) -> List[Diagnostic]:
        """Every diagnostic the session's pipelines accumulated (a copy)."""
        with self._lock:
            return list(self._diagnostics)

    def extend_diagnostics(self, diagnostics: Sequence[Diagnostic]) -> None:
        with self._lock:
            self._diagnostics.extend(diagnostics)

    def clear_diagnostics(self) -> None:
        with self._lock:
            self._diagnostics.clear()

    def ladder_descent(self) -> Optional[Tuple[str, ...]]:
        """Rung labels for the resilient descent, or ``None`` for default."""
        return self.options.ladder_labels()

    @property
    def planner(self) -> Any:
        """The execution planner (:class:`repro.plan.Planner`)."""
        from repro.plan import default_planner

        return default_planner()

    @property
    def pass_names(self) -> Tuple[str, ...]:
        """The strict pipeline's registered pass sequence."""
        return self._strict.pass_names

    # ------------------------------------------------------------------ #
    # activation
    # ------------------------------------------------------------------ #

    @contextmanager
    def activate(self) -> Iterator["Session"]:
        """Make this the ambient session for the block (re-entrant).

        While active, the memo-cache accessors and -- when this session
        carries its own -- the obs tracer/registry resolve through it.
        """
        if _context.current_session() is self:
            yield self
            return
        with ExitStack() as stack:
            stack.enter_context(_context.session_scope(self))
            if self.registry is not None:
                stack.enter_context(obs.overriding_registry(self.registry))
            if self.tracer is not None:
                stack.enter_context(obs.overriding_tracer(self.tracer))
            self._enter_injection(stack)
            yield self

    @contextmanager
    def _program_scope(self, tracer: Optional[obs.Tracer]) -> Iterator[None]:
        """Worker-thread scope for one batch program: the session plus an
        optional per-program tracer that wins over the session tracer."""
        with ExitStack() as stack:
            stack.enter_context(_context.session_scope(self))
            if self.registry is not None:
                stack.enter_context(obs.overriding_registry(self.registry))
            effective = tracer if tracer is not None else self.tracer
            if effective is not None:
                stack.enter_context(obs.overriding_tracer(effective))
            self._enter_injection(stack)
            yield

    def _enter_injection(self, stack: ExitStack) -> None:
        """Enter the session's fault injector, if any (thread-local)."""
        if self.options.injector is not None:
            from repro.resilience import faults

            stack.enter_context(
                faults.inject(self.options.injector, seed=self.options.fault_seed)
            )

    # ------------------------------------------------------------------ #
    # compilation
    # ------------------------------------------------------------------ #

    def fuse(
        self,
        g: MLDG,
        *,
        strategy: Optional[Union[Strategy, str]] = None,
    ) -> FusionResult:
        """Graph-level fusion under this session's budget and caches."""
        with self.activate():
            return _fuse(
                g,
                strategy=strategy if strategy is not None else self.options.strategy,
                budget=self.effective_budget,
            )

    def fuse_program(
        self,
        source: Union[str, LoopNest],
        *,
        strategy: Optional[Union[Strategy, str]] = None,
    ) -> "PipelineResult":
        """The strict pipeline (parse -> ... -> codegen) for one program."""
        from repro.pipeline import PipelineResult

        artifact = self._artifact(source)
        artifact.strategy = (
            strategy if strategy is not None else self.options.strategy
        )
        with self.activate():
            with obs.trace_span("pipeline.fuse_program"):
                self._strict.run(artifact, self)
        assert artifact.nest is not None
        assert artifact.mldg is not None and artifact.fusion is not None
        return PipelineResult(
            nest=artifact.nest,
            mldg=artifact.mldg,
            fusion=artifact.fusion,
            fused=artifact.fused,
            notes=artifact.notes,
            diagnostics=artifact.diagnostics,
        )

    def fuse_program_resilient(
        self,
        source: Union[str, LoopNest],
        *,
        min_rung: Optional[Union[str, Any]] = None,
        verify_execution: Optional[bool] = None,
        bounds: Optional[Sequence[int]] = None,
    ) -> "ResilientPipelineResult":
        """The hardened pipeline: verified degradation instead of failure."""
        from repro.resilience.pipeline import ResilientPipelineResult

        artifact = self._artifact(source)
        artifact.min_rung = (
            min_rung if min_rung is not None else self.options.min_rung
        )
        artifact.verify_execution = (
            verify_execution
            if verify_execution is not None
            else self.options.verify_execution
        )
        artifact.bounds = bounds if bounds is not None else self.options.bounds
        with self.activate():
            with obs.trace_span("pipeline.fuse_program_resilient"):
                self._resilient.run(artifact, self)
        assert artifact.nest is not None
        assert artifact.mldg is not None and artifact.resilient is not None
        return ResilientPipelineResult(
            nest=artifact.nest,
            mldg=artifact.mldg,
            resilient=artifact.resilient,
            fused=artifact.fused,
            partitioned=artifact.partitioned,
            notes=artifact.notes,
            diagnostics=artifact.diagnostics,
        )

    def fuse_many(
        self,
        programs: Sequence[Any],
        *,
        jobs: Optional[int] = None,
        strategy: Optional[Union[Strategy, str]] = None,
        resilient: bool = False,
        names: Optional[Sequence[str]] = None,
        timeout_ms: Optional[float] = None,
        pool: str = "thread",
    ) -> "BatchReport":
        """Compile independent programs concurrently; see :mod:`repro.core.batch`.

        ``timeout_ms`` arms a per-program deadline
        :class:`~repro.resilience.budget.Budget` around each compile.
        ``pool="process"`` executes programs in worker *processes* via the
        ``repro-serve/1`` envelopes (crash isolation; requires DSL-text
        sources).
        """
        from repro.core.batch import run_batch

        return run_batch(
            self,
            programs,
            jobs=jobs if jobs is not None else self.options.jobs,
            strategy=strategy,
            resilient=resilient,
            names=names,
            timeout_ms=timeout_ms,
            pool=pool,
        )

    def execute_fused(
        self,
        fp: Any,
        n: int,
        m: int,
        *,
        store: Any,
        backend: Optional[str] = None,
        schedule: Optional[Any] = None,
        is_doall: bool = True,
    ) -> Any:
        """Run a fused program through the session's execution backend.

        The planner (:mod:`repro.plan`) resolves the backend under the
        precedence *explicit > session > rule*: an explicit ``backend``
        argument wins, else the session's configured backend, and
        ``"auto"`` applies the stage-mix rule.  Dispatch happens under
        this session's activation, so backend kernels hit the session's
        kernel cache and metrics registry.
        """
        from repro.core.backends import execute_fused as _execute

        with self.activate():
            plan = self.planner.plan_execution(
                fp, n, m,
                schedule=schedule, is_doall=is_doall,
                requested=backend, session_backend=self.options.backend,
            )
            return _execute(
                plan.backend, fp, n, m,
                store=store, schedule=schedule, is_doall=is_doall,
            )

    # ------------------------------------------------------------------ #

    @staticmethod
    def _artifact(source: Union[str, LoopNest]) -> Artifact:
        if isinstance(source, str):
            return Artifact(source=source)
        return Artifact(nest=source)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bits = []
        if self.budget is not None:
            bits.append("budget")
        if self.tracer is not None:
            bits.append("tracer")
        if self.registry is not None:
            bits.append("registry")
        if any(
            c is not None
            for c in (self.caches.fusion, self.caches.kernels)
        ):
            bits.append("private-caches")
        inner = ", ".join(bits) if bits else "defaults"
        return f"<Session {inner}; {len(self._diagnostics)} diagnostics>"
