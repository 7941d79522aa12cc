"""Exception types for the fusion algorithms.

Exceptions raised on *input* problems (rather than internal errors) carry
the full structured diagnostic story: :class:`FusionError.diagnostics` holds
:class:`repro.lint.Diagnostic` records, so callers -- the CLI, the pipeline,
CI tooling -- can render codes, severities and spans instead of parsing
truncated exception text.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.graph.legality import LegalityReport, check_legal
from repro.graph.mldg import MLDG

if TYPE_CHECKING:  # pragma: no cover - avoid an import cycle at runtime
    from repro.lint.diagnostics import Diagnostic

__all__ = [
    "FusionError",
    "IllegalMLDGError",
    "NotAcyclicError",
    "NoParallelRetimingError",
    "require_legal",
]


class FusionError(Exception):
    """Base class for fusion failures.

    ``diagnostics`` carries the structured findings behind the failure (empty
    for internal errors); the exception *message* may summarise, but nothing
    is lost.
    """

    def __init__(
        self, message: str, diagnostics: Optional[Sequence["Diagnostic"]] = None
    ) -> None:
        super().__init__(message)
        self.diagnostics: List["Diagnostic"] = list(diagnostics or [])

    def __str__(self) -> str:
        base = super().__str__()
        codes = sorted({d.code for d in self.diagnostics})
        if codes:
            return f"{base} [{', '.join(codes)}]"
        return base


class IllegalMLDGError(FusionError):
    """The input MLDG does not model an executable nested loop.

    The message stays short (at most five violations quoted), but the *full*
    lists survive on the exception: ``violations`` has every violation as
    text and ``diagnostics`` the same findings as structured records.
    """

    def __init__(
        self,
        violations: List[str],
        diagnostics: Optional[Sequence["Diagnostic"]] = None,
    ) -> None:
        detail = "; ".join(violations[:5])
        more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
        super().__init__(f"illegal MLDG: {detail}{more}", diagnostics)
        self.violations = violations


class NotAcyclicError(FusionError):
    """Algorithm 3 was invoked on a cyclic MLDG."""

    def __init__(self, cycle: Optional[List[str]] = None) -> None:
        extra = f" (cycle: {' -> '.join(cycle)})" if cycle else ""
        super().__init__(f"Algorithm 3 requires an acyclic MLDG{extra}")
        self.cycle = cycle


class NoParallelRetimingError(FusionError):
    """Algorithm 4's Theorem-4.2 conditions fail: no DOALL retiming exists.

    ``phase`` names the failing constraint graph (``"x"`` or ``"y"``) and
    ``cycle`` is the negative-cycle certificate.  Callers should fall back to
    Algorithm 5 (hyperplane parallelism), which always succeeds.
    """

    def __init__(self, phase: str, cycle: List[str]) -> None:
        super().__init__(
            f"no fully-parallel fusion exists: negative cycle in the {phase} "
            f"constraint graph ({' -> '.join(map(str, cycle))})"
        )
        self.phase = phase
        self.cycle = cycle


def require_legal(g: MLDG, report: Optional[LegalityReport] = None) -> LegalityReport:
    """The legality gate: ``report`` (or a fresh :func:`check_legal` of ``g``)
    when ``g`` is legal, else :class:`IllegalMLDGError` with diagnostics."""
    if report is None:
        report = check_legal(g)
    if not report.legal:
        # structured diagnostics ride along so callers see codes and spans
        from repro.lint.engine import diagnostics_from_legality

        raise IllegalMLDGError(
            report.violations, diagnostics=diagnostics_from_legality(report)
        )
    return report
