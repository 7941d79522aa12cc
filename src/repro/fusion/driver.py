"""The unified fusion driver.

:func:`fuse` applies the strongest applicable algorithm of the paper and
returns a verified :class:`FusionResult`:

* acyclic MLDG -> Algorithm 3, DOALL fused loop (Theorem 4.1);
* cyclic MLDG satisfying Theorem 4.2 -> Algorithm 4, DOALL fused loop;
* any other legal MLDG -> Algorithm 5, DOALL hyperplane (Theorem 4.4).

Every result is re-verified against the paper's invariants
(:func:`repro.retiming.verify.verify_retiming`, one O(|E|) pass over the
retimed graph the result carries) before being returned -- the algorithms
are trusted, but the verification is cheap and turns any latent bug into a
loud error.

Successful outcomes are memoized by canonical MLDG structure
(:mod:`repro.perf.memo`): a repeated -- or isomorphic-but-relabelled --
query skips the constraint solvers and only re-runs the verification gate
on the rehydrated retiming.  When an L2 disk store is configured
(:mod:`repro.store`), misses fall through to it before compiling and
successful compiles are written through, so warm results survive process
boundaries; disk rows re-enter through exactly the same rehydrate +
re-verify gate, and rows that fail it are evicted and recompiled.
Limiting budgets and active fault injectors bypass *both* tiers through
one shared predicate, so resource probes and chaos tests always measure
real solver work and can never persist corrupted results.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import obs
from repro.fusion.acyclic import acyclic_parallel_retiming
from repro.fusion.cyclic import cyclic_parallel_retiming
from repro.fusion.errors import FusionError, NoParallelRetimingError, require_legal
from repro.fusion.hyperplane import hyperplane_parallel_fusion
from repro.fusion.legal import legal_fusion_retiming
from repro.graph.analysis import is_acyclic
from repro.graph.legality import LegalityReport, is_fusion_legal
from repro.graph.mldg import MLDG
from repro.perf.memo import (
    canonical_mldg_key,
    fusion_cache,
    memoization_applicable,
    structural_hash,
)
from repro.resilience.budget import Budget
from repro.retiming import ROW_SCHEDULE, Retiming
from repro.retiming.verify import RetimingVerification, verify_retiming
from repro.store import CompileStore, active_store, current_fingerprint
from repro.vectors import IVec

__all__ = ["Strategy", "Parallelism", "FusionResult", "fuse"]


class Strategy(enum.Enum):
    """Which algorithm produced (or should produce) the fusion."""

    AUTO = "auto"
    DIRECT = "direct"  # no retiming; Theorem 3.1 check only
    LEGAL_ONLY = "legal-only"  # Algorithm 2 (LLOFRA)
    ACYCLIC = "acyclic"  # Algorithm 3
    CYCLIC = "cyclic"  # Algorithm 4
    HYPERPLANE = "hyperplane"  # Algorithm 5


class Parallelism(enum.Enum):
    """Parallelism of the fused innermost loop."""

    DOALL = "doall"  # all iterations of a row in parallel
    HYPERPLANE = "hyperplane"  # all iterations on a wavefront in parallel
    SERIAL = "serial"  # fused loop carries dependencies


@dataclass
class FusionResult:
    """Everything the caller needs to apply and report a fusion."""

    strategy: Strategy
    parallelism: Parallelism
    retiming: Retiming
    original: MLDG
    retimed: MLDG
    schedule: IVec
    hyperplane: Optional[IVec]
    verification: RetimingVerification
    notes: List[str] = field(default_factory=list)

    @property
    def is_doall(self) -> bool:
        return self.parallelism is Parallelism.DOALL

    def summary(self) -> str:
        lines = [
            f"strategy     : {self.strategy.value}",
            f"parallelism  : {self.parallelism.value}",
            f"retiming     : {self.retiming.describe()}",
            f"schedule s   : {self.schedule}",
        ]
        if self.hyperplane is not None:
            lines.append(f"hyperplane h : {self.hyperplane}")
        for e in self.retimed.edges():
            lines.append(f"  retimed {e}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _result(
    g: MLDG,
    r: Retiming,
    strategy: Strategy,
    *,
    schedule: IVec,
    hyperplane: Optional[IVec],
    notes: Optional[List[str]] = None,
    retimed: Optional[MLDG] = None,
) -> FusionResult:
    gr = retimed if retimed is not None else r.apply(g)
    verification = verify_retiming(g, r, retimed=gr)
    if not verification.ok_for_legal_fusion:
        raise FusionError(
            f"internal error: {strategy.value} produced an invalid retiming: "
            + "; ".join(verification.problems)
        )
    if verification.doall:
        parallelism = Parallelism.DOALL
    elif hyperplane is not None:
        parallelism = Parallelism.HYPERPLANE
    else:
        parallelism = Parallelism.SERIAL
    return FusionResult(
        strategy=strategy,
        parallelism=parallelism,
        retiming=r,
        original=g,
        retimed=gr,
        schedule=schedule,
        hyperplane=hyperplane,
        verification=verification,
        notes=list(notes or []),
    )


def _rehydrate(g: MLDG, payload: tuple) -> FusionResult:
    """Rebuild a :class:`FusionResult` for ``g`` from a name-free cache entry.

    The retiming shifts are rebound to ``g``'s node names positionally
    (canonical keys quotient by exactly that renaming) and the full
    verification gate re-runs inside :func:`_result` -- the cache removes
    solver work, never checking.
    """
    strategy_value, shifts, schedule, hyperplane, notes = payload
    r = Retiming(
        {name: IVec(*shift) for name, shift in zip(g.nodes, shifts)}, dim=g.dim
    )
    return _result(
        g,
        r,
        Strategy(strategy_value),
        schedule=IVec(*schedule),
        hyperplane=IVec(*hyperplane) if hyperplane is not None else None,
        notes=list(notes),
    )


def _dehydrate(result: FusionResult) -> tuple:
    """The name-free, immutable view of ``result`` stored in the fusion cache."""
    g = result.original
    return (
        result.strategy.value,
        tuple(tuple(result.retiming[name]) for name in g.nodes),
        tuple(result.schedule),
        tuple(result.hyperplane) if result.hyperplane is not None else None,
        tuple(result.notes),
    )


def _payload_from_store(raw: object, g: MLDG) -> Optional[tuple]:
    """Shape-check a JSON row from the L2 store into a ``_rehydrate`` payload.

    Disk rows crossed a process (and possibly a version) boundary, so
    unlike L1 entries they are untrusted: anything that does not decode to
    exactly the dehydrated shape for *this* graph -- right node count,
    right dimension, integer shifts -- is rejected (``None``), which the
    caller turns into an eviction and a cold compile.
    """
    try:
        strategy_value, shifts, schedule, hyperplane, notes = raw  # type: ignore[misc]
        if not isinstance(strategy_value, str):
            return None
        Strategy(strategy_value)
        if len(shifts) != g.num_nodes:
            return None
        shifts_t = tuple(tuple(int(x) for x in shift) for shift in shifts)
        if any(len(shift) != g.dim for shift in shifts_t):
            return None
        schedule_t = tuple(int(x) for x in schedule)
        if len(schedule_t) != g.dim:
            return None
        hyperplane_t = (
            tuple(int(x) for x in hyperplane) if hyperplane is not None else None
        )
        if hyperplane_t is not None and len(hyperplane_t) != g.dim:
            return None
        notes_t = tuple(str(n) for n in notes)
    except (TypeError, ValueError):
        return None
    return (strategy_value, shifts_t, schedule_t, hyperplane_t, notes_t)


def fuse(
    g: MLDG,
    strategy: Strategy | str = Strategy.AUTO,
    *,
    budget: Optional[Budget] = None,
    legality: Optional[LegalityReport] = None,
) -> FusionResult:
    """Fuse the loop nest modelled by ``g``, maximising parallelism.

    ``strategy`` forces a specific algorithm; the default ``AUTO`` picks:
    Algorithm 3 for DAGs, else Algorithm 4, else Algorithm 5.  Raises
    :class:`~repro.fusion.errors.FusionError` subclasses on illegal inputs
    or when a forced strategy does not apply.

    ``budget`` bounds the run: node/edge caps are checked up front and the
    relaxation/deadline limits are enforced inside the solvers, raising
    :class:`~repro.resilience.budget.BudgetExceededError` on exhaustion
    (callers wanting degradation instead of an error should use
    :func:`repro.resilience.fuse_resilient`).

    Successful results are memoized by canonical structure and requested
    strategy: a repeat (or isomorphic relabelling) of a previous query
    skips the solvers and re-verifies a rehydrated retiming.  Queries
    under a limiting budget or an active fault injector bypass the cache
    (see :func:`repro.perf.memo.memoization_applicable`); set
    ``REPRO_FUSE_MEMO=0`` to disable memoization entirely.

    ``legality`` is :func:`~repro.graph.legality.check_legal`'s report on
    ``g`` when the caller already has it; a cold compile then skips that
    solve.  Its LLOFRA solution also stands in for the solve of
    ``legal-only`` and ``hyperplane`` (the ``auto`` fallback included)
    exactly when a cache hit could stand in for solver work: under a
    work-limiting budget or an active fault injector they solve again,
    under the budget.
    """
    if isinstance(strategy, str):
        strategy = Strategy(strategy)
    if budget is not None:
        budget.start()
        budget.check_graph(g.num_nodes, g.num_edges, "fuse entry")

    reg = obs.default_registry()
    reg.counter("fusion.fuse.calls").inc()
    with obs.trace_span(
        "fusion.fuse",
        strategy=strategy.value,
        nodes=g.num_nodes,
        edges=g.num_edges,
    ) as sp:
        # one predicate gates both tiers: if memoization is inapplicable
        # (limiting budget, fault injector, REPRO_FUSE_MEMO=0) neither the
        # in-memory cache nor the disk store is read *or* written
        memo_ok = memoization_applicable(budget)
        store = active_store() if memo_ok else None
        if memo_ok:
            key = (strategy.value, canonical_mldg_key(g))
            cached = fusion_cache().get(key)
            if cached is not None:
                reg.counter("fusion.cache.hits").inc()
                sp.set(cache="hit")
                result = _rehydrate(g, cached)
                reg.counter(f"fusion.strategy.{result.strategy.value}").inc()
                sp.set(strategy_used=result.strategy.value)
                return result
            reg.counter("fusion.cache.misses").inc()
            sp.set(cache="miss")
            if store is not None:
                skey = f"fuse:{strategy.value}:{structural_hash(g)}"
                fingerprint = current_fingerprint()
                result = _fuse_from_store(g, store, skey, fingerprint)
                if result is not None:
                    fusion_cache().put(key, _dehydrate(result))  # promote to L1
                    sp.set(cache="hit-l2")
                    reg.counter(f"fusion.strategy.{result.strategy.value}").inc()
                    sp.set(strategy_used=result.strategy.value)
                    return result
        else:
            reg.counter("fusion.cache.bypassed").inc()
            reg.counter("store.bypassed").inc()
            sp.set(cache="bypassed")

        result = _fuse_uncached(
            g, strategy, budget, legality, reuse_llofra=memo_ok
        )
        if memo_ok:
            payload = _dehydrate(result)
            fusion_cache().put(key, payload)
            if store is not None:
                store.put(skey, fingerprint, payload)
        reg.counter(f"fusion.strategy.{result.strategy.value}").inc()
        sp.set(strategy_used=result.strategy.value)
        return result


def _fuse_from_store(
    g: MLDG, store: "CompileStore", skey: str, fingerprint: str
) -> Optional[FusionResult]:
    """Try the L2 row for ``(skey, fingerprint)``; ``None`` means cold.

    A row that decodes but fails shape checks or the full re-verification
    gate is *demoted*: deleted from the store, counted under
    ``store.verify_fail``, and reported as a miss -- never raised.
    """
    raw = store.get(skey, fingerprint)
    if raw is None:
        return None
    payload = _payload_from_store(raw, g)
    if payload is None:
        store.demote(skey, fingerprint)
        return None
    try:
        # _rehydrate re-runs verify_retiming (and re-derives parallelism
        # and diagnostics) -- the store removes solver work, not checking
        return _rehydrate(g, payload)
    except FusionError:
        store.demote(skey, fingerprint)
        return None


def _fuse_uncached(
    g: MLDG,
    strategy: Strategy,
    budget: Optional[Budget],
    legality: Optional[LegalityReport],
    *,
    reuse_llofra: bool,
) -> FusionResult:
    """The strategy dispatch behind :func:`fuse` (no memoization).

    Legality is checked here once (or taken from ``legality``).  Its LLOFRA
    solution is Algorithm 2's retiming and Algorithm 5's (Theorem 4.4), so
    with ``reuse_llofra`` those strategies take it instead of solving again.
    ``auto`` tries Algorithm 3 on DAGs, else Algorithm 4, and falls back to
    Algorithm 5 with a note when Theorem 4.2's conditions fail.
    """
    report = require_legal(g, legality)
    llofra = report.solution if reuse_llofra else None
    if strategy is Strategy.AUTO:
        if is_acyclic(g):
            strategy = Strategy.ACYCLIC
        else:
            try:
                return _run_algorithm(g, Strategy.CYCLIC, budget, llofra)
            except NoParallelRetimingError as exc:
                return _run_algorithm(
                    g,
                    Strategy.HYPERPLANE,
                    budget,
                    llofra,
                    notes=[
                        f"Theorem 4.2 conditions failed ({exc.phase} phase); "
                        "fell back to hyperplane parallelism"
                    ],
                )
    return _run_algorithm(g, strategy, budget, llofra)


def _run_algorithm(
    g: MLDG,
    strategy: Strategy,
    budget: Optional[Budget],
    llofra: Optional[Dict[str, IVec]],
    *,
    notes: Optional[List[str]] = None,
) -> FusionResult:
    """Run one forced strategy on a legal ``g``; every exit is verified by
    :func:`_result`."""
    if strategy is Strategy.HYPERPLANE:
        hp = hyperplane_parallel_fusion(
            g, check=False, budget=budget, solution=llofra
        )
        return _result(
            g,
            hp.retiming,
            strategy,
            schedule=hp.schedule,
            hyperplane=hp.hyperplane,
            notes=notes,
            retimed=hp.retimed,
        )
    if strategy is Strategy.DIRECT:
        if not is_fusion_legal(g):
            from repro.lint.engine import LintContext
            from repro.lint.registry import get_rule

            diags = list(get_rule("LF201").run(LintContext(mldg=g)))
            raise FusionError(
                "direct fusion is illegal: fusion-preventing dependencies exist "
                "(use LLOFRA or a parallel strategy)",
                diagnostics=diags,
            )
        return _result(
            g,
            Retiming.zero(dim=g.dim),
            strategy,
            schedule=ROW_SCHEDULE,
            hyperplane=None,
            notes=["no retiming applied"],
        )
    if strategy is Strategy.LEGAL_ONLY:
        r = legal_fusion_retiming(g, check=False, budget=budget, solution=llofra)
    elif strategy is Strategy.ACYCLIC:
        r = acyclic_parallel_retiming(g, check=False, budget=budget)
    else:
        r = cyclic_parallel_retiming(g, check=False, budget=budget)
    return _result(g, r, strategy, schedule=ROW_SCHEDULE, hyperplane=None)
