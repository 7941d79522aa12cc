"""repro.plan -- the execution planner.

Decides which backend runs a fused program under the precedence
**explicit > session > rule**, where the rule maps the fusion kind and
the staged-lowering stage mix to ``compiled`` or ``numpy``.  See
docs/PLANNING.md.
"""

from repro.plan.planner import (
    ExecutionPlan,
    Planner,
    choose_backend,
    default_planner,
    plan_snapshot,
)
from repro.plan.profile import DecisionMemo, memory_profiles

__all__ = [
    "DecisionMemo",
    "ExecutionPlan",
    "Planner",
    "choose_backend",
    "default_planner",
    "memory_profiles",
    "plan_snapshot",
]
