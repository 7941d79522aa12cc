"""The ambient-session mechanism.

A :class:`~repro.core.session.Session` is *activated* for a dynamic scope
(:meth:`Session.activate`); while active, the cross-cutting services that
used to be module globals -- the fusion/retiming memo caches, the compiled
kernel cache -- resolve through the session first and fall back to the
process-wide defaults.  The low-level consumers (:mod:`repro.perf.memo`,
:mod:`repro.codegen.pycompile`, :mod:`repro.resilience.ladder`) import only
this module, which depends on nothing else in :mod:`repro`, so there are no
import cycles.

The scope is a :class:`contextvars.ContextVar`: nested activations restore
correctly and threads start *clean* (a fresh thread sees no active session
until it activates one), so sessions used from different threads never see
each other.

:func:`budget_scope` is the same mechanism for deadlines: one shared
session can compile many programs, each under its *own*
:class:`~repro.resilience.budget.Budget` (``repro-fuse batch --jobs 1
--timeout-ms``), without mutating the session.  Consumers read
:attr:`Session.effective_budget`, which prefers the context override.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.session import Session
    from repro.resilience.budget import Budget

__all__ = [
    "budget_scope",
    "current_budget_override",
    "current_session",
    "session_scope",
]

_CURRENT: ContextVar[Optional["Session"]] = ContextVar(
    "repro_current_session", default=None
)

_BUDGET: ContextVar[Optional["Budget"]] = ContextVar(
    "repro_budget_override", default=None
)


def current_session() -> Optional["Session"]:
    """The :class:`Session` active in this context, or ``None``."""
    return _CURRENT.get()


@contextmanager
def session_scope(session: "Session") -> Iterator["Session"]:
    """Make ``session`` the ambient session for the block (re-entrant)."""
    token = _CURRENT.set(session)
    try:
        yield session
    finally:
        _CURRENT.reset(token)


def current_budget_override() -> Optional["Budget"]:
    """The per-context :class:`Budget` override, or ``None``."""
    return _BUDGET.get()


@contextmanager
def budget_scope(budget: Optional["Budget"]) -> Iterator[Optional["Budget"]]:
    """Make ``budget`` the context's budget for the block.

    The override wins over the session's own budget wherever
    :attr:`Session.effective_budget` is consulted, and is context-local:
    threads can each run a program under a different deadline against one
    shared session.
    """
    token = _BUDGET.set(budget)
    try:
        yield budget
    finally:
        _BUDGET.reset(token)
