"""Shared CLI output-format plumbing.

Every ``repro-fuse`` subcommand that renders in more than one format
resolves its ``--format`` through this one helper instead of a private
``choices=`` list, so the format vocabulary stays consistent across
``lint`` (text|json|sarif), ``analyze`` (text|json|dot|sarif),
``run``/``stats`` (text|json) and the trace exporters
(text|json|chrome).
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

__all__ = [
    "TEXT",
    "JSON",
    "SARIF",
    "DOT",
    "CHROME",
    "add_format_argument",
]

TEXT = "text"
JSON = "json"
SARIF = "sarif"
DOT = "dot"
CHROME = "chrome"

_KNOWN = (TEXT, JSON, SARIF, DOT, CHROME)


def add_format_argument(
    parser: argparse.ArgumentParser,
    formats: Sequence[str],
    *,
    default: Optional[str] = TEXT,
    flag: str = "--format",
    dest: Optional[str] = None,
    help_suffix: str = "",
) -> None:
    """Add a format-selection option with a consistent help string.

    ``formats`` must come from the shared vocabulary (:data:`TEXT`,
    :data:`JSON`, :data:`SARIF`, :data:`DOT`, :data:`CHROME`); ``default``
    may be ``None`` for subcommands that infer the format from legacy
    flags.  ``argparse`` rejects values outside ``formats`` as usage
    errors (exit code 2), exactly like the per-subcommand lists it
    replaces.
    """
    unknown = [f for f in formats if f not in _KNOWN]
    if unknown:
        raise ValueError(f"unknown output formats {unknown}; known: {_KNOWN}")
    if default is not None and default not in formats:
        raise ValueError(f"default {default!r} not among formats {tuple(formats)}")
    help_text = (
        f"output format (default: {default})" if default is not None
        else "output format (default: text)"
    )
    if help_suffix:
        help_text += f"; {help_suffix}"
    kwargs = {"dest": dest} if dest is not None else {}
    parser.add_argument(
        flag, choices=list(formats), default=default, help=help_text, **kwargs
    )
