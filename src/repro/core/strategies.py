"""The fusion strategies as first-class, registered passes.

Each algorithm of the paper (Algorithms 2-5 plus the no-retiming direct
check) is wrapped in a :class:`StrategyPass`: a small object with a name,
an applicability predicate and a ``run`` method.  The fusion driver
(:func:`repro.fusion.fuse`) dispatches through :func:`run_strategy`
instead of a hard-coded ``if`` chain, so strategies are reorderable and
individually testable, and the AUTO policy (:data:`AUTO_SEQUENCE`) is an
explicit, inspectable sequence rather than control flow.

The driver stays the owner of result construction and verification: every
pass returns through the ``make_result`` callback it is handed, which runs
:func:`repro.retiming.verify.verify_retiming` before anything escapes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.fusion.acyclic import acyclic_parallel_retiming
from repro.fusion.cyclic import cyclic_parallel_retiming
from repro.fusion.errors import FusionError, NoParallelRetimingError
from repro.fusion.hyperplane import hyperplane_parallel_fusion
from repro.fusion.legal import legal_fusion_retiming
from repro.graph.analysis import is_acyclic
from repro.graph.legality import is_fusion_legal
from repro.graph.mldg import MLDG
from repro.resilience.budget import Budget
from repro.retiming import ROW_SCHEDULE, Retiming

__all__ = [
    "StrategyPass",
    "STRATEGY_PASSES",
    "AUTO_SEQUENCE",
    "strategy_pass",
    "run_strategy",
]

#: ``make_result(g, retiming, strategy_name, schedule=..., hyperplane=...,
#: notes=..., retimed=...)`` -- supplied by the driver; verifies and wraps
#: the retiming (``retimed``: ``G_r`` when the strategy already built it).
MakeResult = Callable[..., object]


class StrategyPass:
    """One fusion algorithm as a registered, reorderable unit."""

    #: Matches :class:`repro.fusion.Strategy` values.
    name: str = "?"

    def applies(self, g: MLDG) -> bool:
        """Cheap structural applicability check (used by AUTO)."""
        return True

    def run(
        self, g: MLDG, make_result: MakeResult, *, budget: Optional[Budget] = None
    ) -> object:
        raise NotImplementedError


class DirectPass(StrategyPass):
    """No retiming; Theorem 3.1 feasibility check only."""

    name = "direct"

    def applies(self, g: MLDG) -> bool:
        return is_fusion_legal(g)

    def run(
        self, g: MLDG, make_result: MakeResult, *, budget: Optional[Budget] = None
    ) -> object:
        if not is_fusion_legal(g):
            from repro.lint.engine import LintContext
            from repro.lint.registry import get_rule

            diags = list(get_rule("LF201").run(LintContext(mldg=g)))
            raise FusionError(
                "direct fusion is illegal: fusion-preventing dependencies exist "
                "(use LLOFRA or a parallel strategy)",
                diagnostics=diags,
            )
        return make_result(
            g,
            Retiming.zero(dim=g.dim),
            self.name,
            schedule=ROW_SCHEDULE,
            hyperplane=None,
            notes=["no retiming applied"],
        )


class LegalOnlyPass(StrategyPass):
    """Algorithm 2 (LLOFRA): legal fusion, serial fused loop."""

    name = "legal-only"

    def run(
        self, g: MLDG, make_result: MakeResult, *, budget: Optional[Budget] = None
    ) -> object:
        r = legal_fusion_retiming(g, check=False, budget=budget)
        return make_result(g, r, self.name, schedule=ROW_SCHEDULE, hyperplane=None)


class AcyclicPass(StrategyPass):
    """Algorithm 3: DOALL fusion of an acyclic MLDG (Theorem 4.1)."""

    name = "acyclic"

    def applies(self, g: MLDG) -> bool:
        return is_acyclic(g)

    def run(
        self, g: MLDG, make_result: MakeResult, *, budget: Optional[Budget] = None
    ) -> object:
        r = acyclic_parallel_retiming(g, check=False, budget=budget)
        return make_result(g, r, self.name, schedule=ROW_SCHEDULE, hyperplane=None)


class CyclicPass(StrategyPass):
    """Algorithm 4: DOALL fusion of a cyclic MLDG (Theorem 4.2)."""

    name = "cyclic"

    def run(
        self, g: MLDG, make_result: MakeResult, *, budget: Optional[Budget] = None
    ) -> object:
        r = cyclic_parallel_retiming(g, check=False, budget=budget)
        return make_result(g, r, self.name, schedule=ROW_SCHEDULE, hyperplane=None)


class HyperplanePass(StrategyPass):
    """Algorithm 5: wavefront parallelism for any legal MLDG (Theorem 4.4)."""

    name = "hyperplane"

    def run(
        self,
        g: MLDG,
        make_result: MakeResult,
        *,
        budget: Optional[Budget] = None,
        notes: Optional[List[str]] = None,
    ) -> object:
        hp = hyperplane_parallel_fusion(g, check=False, budget=budget)
        return make_result(
            g,
            hp.retiming,
            self.name,
            schedule=hp.schedule,
            hyperplane=hp.hyperplane,
            notes=notes,
            retimed=hp.retimed,
        )


STRATEGY_PASSES: Dict[str, StrategyPass] = {
    p.name: p
    for p in (
        DirectPass(),
        LegalOnlyPass(),
        AcyclicPass(),
        CyclicPass(),
        HyperplanePass(),
    )
}

#: The AUTO policy: first applicable DOALL pass, then the Theorem 4.2
#: attempt, then the always-applicable hyperplane fallback.
AUTO_SEQUENCE: Tuple[str, ...] = ("acyclic", "cyclic", "hyperplane")


def strategy_pass(name: str) -> StrategyPass:
    """Look up a registered strategy pass by its :class:`Strategy` value."""
    try:
        return STRATEGY_PASSES[name]
    except KeyError:
        raise KeyError(
            f"no strategy pass named {name!r}; known: {sorted(STRATEGY_PASSES)}"
        ) from None


def run_strategy(
    g: MLDG,
    name: str,
    make_result: MakeResult,
    *,
    budget: Optional[Budget] = None,
) -> object:
    """Dispatch one fusion query through the registered strategy passes.

    ``name`` is a :class:`repro.fusion.Strategy` value; ``"auto"`` walks
    :data:`AUTO_SEQUENCE` exactly as the original driver did: Algorithm 3
    for DAGs, else Algorithm 4, else (on a Theorem 4.2 failure) Algorithm 5
    with an explanatory note.
    """
    if name != "auto":
        return strategy_pass(name).run(g, make_result, budget=budget)

    if strategy_pass("acyclic").applies(g):
        return strategy_pass("acyclic").run(g, make_result, budget=budget)
    try:
        return strategy_pass("cyclic").run(g, make_result, budget=budget)
    except NoParallelRetimingError as exc:
        hp: HyperplanePass = STRATEGY_PASSES["hyperplane"]  # type: ignore[assignment]
        return hp.run(
            g,
            make_result,
            budget=budget,
            notes=[
                f"Theorem 4.2 conditions failed ({exc.phase} phase); "
                "fell back to hyperplane parallelism"
            ],
        )
