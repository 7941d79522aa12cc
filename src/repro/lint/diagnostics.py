"""Diagnostic records produced by the static analyzer.

A :class:`Diagnostic` is one finding: a stable code (``LF101``), a severity,
a human-readable message, an optional source span and an optional fix-it
hint.  :class:`LintResult` bundles the diagnostics of one lint run with the
exit-code policy of the CLI (0 = clean, 1 = warnings only, 2 = errors).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.loopir.ast_nodes import SourceSpan

__all__ = ["Severity", "Diagnostic", "LintResult"]


class Severity(enum.Enum):
    """Diagnostic severity, ordered ``INFO < WARNING < ERROR``."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return {"info": 0, "warning": 1, "error": 2}[self.value]

    @property
    def sarif_level(self) -> str:
        """The SARIF 2.1.0 ``level`` value for this severity."""
        return {"info": "note", "warning": "warning", "error": "error"}[self.value]

    def __lt__(self, other: "Severity") -> bool:
        if not isinstance(other, Severity):
            return NotImplemented
        return self.rank < other.rank


@dataclass(frozen=True)
class Diagnostic:
    """One structured analyzer finding."""

    code: str  # stable rule code, e.g. "LF201"
    severity: Severity
    message: str
    span: Optional[SourceSpan] = None
    hint: Optional[str] = None  # fix-it suggestion

    def format(self, path: str = "<input>") -> str:
        """The classic compiler one-liner, plus an indented hint line."""
        loc = f"{path}:{self.span.line}:{self.span.col}" if self.span else path
        text = f"{loc}: {self.severity.value}[{self.code}]: {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
        }
        if self.span is not None:
            d["line"] = self.span.line
            d["column"] = self.span.col
            if self.span.end_line is not None:
                d["endLine"] = self.span.end_line
            if self.span.end_col is not None:
                d["endColumn"] = self.span.end_col
        if self.hint:
            d["hint"] = self.hint
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Diagnostic":
        """Inverse of :meth:`to_dict` (``repro-serve/1`` wire round-trips)."""
        span = None
        if "line" in d:
            span = SourceSpan(
                line=int(d["line"]),
                col=int(d.get("column", 1)),
                end_line=d.get("endLine"),
                end_col=d.get("endColumn"),
            )
        return cls(
            code=str(d["code"]),
            severity=Severity(d.get("severity", "warning")),
            message=str(d.get("message", "")),
            span=span,
            hint=d.get("hint"),
        )


@dataclass
class LintResult:
    """The diagnostics of one lint run over one program or MLDG."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    path: str = "<input>"

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def infos(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.INFO]

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    @property
    def codes(self) -> List[str]:
        """Distinct diagnostic codes present, sorted."""
        return sorted({d.code for d in self.diagnostics})

    @property
    def exit_code(self) -> int:
        """CLI convention: 0 = clean (infos allowed), 1 = warnings, 2 = errors."""
        if self.has_errors:
            return 2
        if self.warnings:
            return 1
        return 0

    def summary(self) -> str:
        n_err, n_warn, n_info = len(self.errors), len(self.warnings), len(self.infos)
        if not self.diagnostics:
            return "clean: no diagnostics"
        parts = []
        if n_err:
            parts.append(f"{n_err} error{'s' if n_err != 1 else ''}")
        if n_warn:
            parts.append(f"{n_warn} warning{'s' if n_warn != 1 else ''}")
        if n_info:
            parts.append(f"{n_info} note{'s' if n_info != 1 else ''}")
        return ", ".join(parts)

    def render_text(self) -> str:
        lines = [d.format(self.path) for d in self.diagnostics]
        lines.append(self.summary())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "notes": len(self.infos),
                "exitCode": self.exit_code,
            },
        }
