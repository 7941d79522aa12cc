"""Programmatic construction of loop nests.

A fluent alternative to writing DSL text::

    nest = (
        LoopNestBuilder()
        .loop("A").assign("a", (0, 0), "e[i-2][j-1]")
        .loop("B").assign("b", (0, 0), "a[i-1][j-1] + a[i-2][j-1]")
        .build()
    )

Right-hand sides are parsed with the DSL expression grammar, so the builder
and the parser accept the same expression language.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

from repro.loopir.ast_nodes import ArrayRef, Assignment, InnerLoop, LoopNest
from repro.loopir.parser import _Parser, _tokenize
from repro.vectors import IVec

__all__ = ["LoopNestBuilder"]


def _parse_expr_text(text: str, index_names: Tuple[str, str]):
    tokens, _ = _tokenize(text)
    parser = _Parser(tokens, {})
    expr = parser.parse_expr(*index_names)
    if parser.cur.kind != "eof":
        raise ValueError(f"trailing input in expression {text!r}")
    return expr


class LoopNestBuilder:
    """Accumulates DOALL loops and their statements, then builds a LoopNest."""

    def __init__(
        self,
        *,
        outer_bound: str = "n",
        inner_bound: str = "m",
        index_names: Tuple[str, str] = ("i", "j"),
    ) -> None:
        self._outer_bound = outer_bound
        self._inner_bound = inner_bound
        self._index_names = index_names
        self._loops: List[Tuple[str, List[Assignment]]] = []

    def loop(self, label: str) -> "LoopNestBuilder":
        """Start a new DOALL loop with the given label."""
        if any(lbl == label for lbl, _ in self._loops):
            raise ValueError(f"duplicate loop label {label!r}")
        self._loops.append((label, []))
        return self

    def assign(
        self,
        array: str,
        offset: Union[IVec, Sequence[int]],
        rhs: str,
    ) -> "LoopNestBuilder":
        """Add ``array[i+offset0][j+offset1] = rhs`` to the current loop."""
        if not self._loops:
            raise ValueError("call .loop(label) before .assign(...)")
        off = offset if isinstance(offset, IVec) else IVec(tuple(offset))
        expr = _parse_expr_text(rhs, self._index_names)
        stmt = Assignment(target=ArrayRef(array, off), expr=expr)
        self._loops[-1][1].append(stmt)
        return self

    def build(self, *, validate: bool = True) -> LoopNest:
        """Construct the nest; with ``validate`` (default) run the model checks."""
        loops = tuple(
            InnerLoop(label=lbl, statements=tuple(stmts)) for lbl, stmts in self._loops
        )
        nest = LoopNest(
            loops=loops,
            outer_bound=self._outer_bound,
            inner_bound=self._inner_bound,
            index_names=self._index_names,
        )
        if validate:
            from repro.loopir.validate import validate_program

            validate_program(nest)
        return nest
