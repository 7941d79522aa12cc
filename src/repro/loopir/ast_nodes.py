"""AST for the Figure-1 program model.

The shapes are deliberately narrow: the paper's model is an outermost
sequential loop over ``i`` containing a sequence of DOALL loops over ``j``,
with uniform (constant-offset) array accesses ``a[i+c1][j+c2]``.  Everything
is immutable; transformations build new trees.

Expression nodes: :class:`Const`, :class:`ArrayRef`, :class:`UnaryOp`,
:class:`BinOp`.  Statement node: :class:`Assignment`.  Structure nodes:
:class:`InnerLoop` (one DOALL loop = one MLDG node) and :class:`LoopNest`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.vectors import IVec

__all__ = [
    "SourceSpan",
    "Expr",
    "Const",
    "ArrayRef",
    "UnaryOp",
    "BinOp",
    "Assignment",
    "InnerLoop",
    "LoopNest",
]


@dataclass(frozen=True)
class SourceSpan:
    """A region of DSL source text: 1-based line/column, inclusive end.

    Spans are carried by AST nodes built by the parser so diagnostics can
    point at the offending text; programmatically built trees have no spans.
    Spans never participate in node equality or hashing.
    """

    line: int
    col: int
    end_line: Optional[int] = None
    end_col: Optional[int] = None

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class Expr:
    """Marker base class for expressions."""

    __slots__ = ()

    def array_refs(self) -> Iterator["ArrayRef"]:
        """All array references in the expression, left to right."""
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    """A numeric literal."""

    value: float

    def array_refs(self) -> Iterator["ArrayRef"]:
        return iter(())

    def __str__(self) -> str:
        if isinstance(self.value, int) or self.value.is_integer():
            return str(int(self.value))
        return repr(self.value)


@dataclass(frozen=True)
class ArrayRef(Expr):
    """A uniform access ``array[i + offset[0]][j + offset[1]]``.

    ``offset`` has the dimension of the loop nest (2 for the paper's model).
    """

    array: str
    offset: IVec
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)

    def array_refs(self) -> Iterator["ArrayRef"]:
        yield self

    def shifted(self, by: IVec) -> "ArrayRef":
        """The reference with every index offset shifted by ``by``.

        Retiming node ``u`` by ``r(u)`` rewrites each of its statements'
        references from ``a[i+c][j+d]`` to ``a[i+c+r0][j+d+r1]``.
        """
        return ArrayRef(self.array, self.offset + by, span=self.span)

    def index_text(self, index_names: Tuple[str, ...]) -> str:
        parts = []
        for name, off in zip(index_names, self.offset):
            if off == 0:
                parts.append(f"[{name}]")
            elif off > 0:
                parts.append(f"[{name}+{off}]")
            else:
                parts.append(f"[{name}{off}]")
        return "".join(parts)

    def __str__(self) -> str:
        return self.array + self.index_text(("i", "j"))


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary minus (the only unary operator in the DSL)."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op != "-":
            raise ValueError(f"unsupported unary operator {self.op!r}")

    def array_refs(self) -> Iterator[ArrayRef]:
        return self.operand.array_refs()

    def __str__(self) -> str:
        return f"-{self.operand}"


_BINOPS = ("+", "-", "*", "/")


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary arithmetic operation."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _BINOPS:
            raise ValueError(f"unsupported binary operator {self.op!r}")

    def array_refs(self) -> Iterator[ArrayRef]:
        yield from self.left.array_refs()
        yield from self.right.array_refs()

    def __str__(self) -> str:
        def wrap(e: Expr) -> str:
            if isinstance(e, BinOp) and self.op in ("*", "/") and e.op in ("+", "-"):
                return f"({e})"
            return str(e)

        return f"{wrap(self.left)} {self.op} {wrap(self.right)}"


@dataclass(frozen=True)
class Assignment:
    """``target = expr`` where the target is an array reference."""

    target: ArrayRef
    expr: Expr
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)

    def reads(self) -> Tuple[ArrayRef, ...]:
        """The array references the expression reads, left to right."""
        return self._reads

    @cached_property
    def _reads(self) -> Tuple[ArrayRef, ...]:
        # walked once per node: not a field, so equality and hashing ignore it
        return tuple(self.expr.array_refs())

    def shifted(self, by: IVec) -> "Assignment":
        """The statement with all references shifted (retiming application)."""

        def shift_expr(e: Expr) -> Expr:
            if isinstance(e, ArrayRef):
                return e.shifted(by)
            if isinstance(e, UnaryOp):
                return UnaryOp(e.op, shift_expr(e.operand))
            if isinstance(e, BinOp):
                return BinOp(e.op, shift_expr(e.left), shift_expr(e.right))
            return e

        return Assignment(self.target.shifted(by), shift_expr(self.expr), span=self.span)

    def __str__(self) -> str:
        return f"{self.target} = {self.expr}"


@dataclass(frozen=True)
class InnerLoop:
    """One DOALL innermost loop: an MLDG node.

    ``label`` names the loop (the paper's A, B, C, ...); statements execute
    in order for each iteration ``j``.
    """

    label: str
    statements: Tuple[Assignment, ...]
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("inner loop needs a label")
        if not self.statements:
            raise ValueError(f"inner loop {self.label!r} has no statements")

    def written_arrays(self) -> Set[str]:
        return {s.target.array for s in self.statements}

    def read_arrays(self) -> Set[str]:
        return {r.array for s in self.statements for r in s.reads()}

    def __str__(self) -> str:
        body = "\n".join(f"  {s}" for s in self.statements)
        return f"{self.label}:\n{body}"


@dataclass(frozen=True)
class LoopNest:
    """The whole Figure-1 nest.

    ``outer_bound`` and ``inner_bound`` are the symbolic upper bounds (the
    paper's ``n`` and ``m``); lower bounds are 0.  ``index_names`` are the
    control indices (``i`` outermost).
    """

    loops: Tuple[InnerLoop, ...]
    outer_bound: str = "n"
    inner_bound: str = "m"
    index_names: Tuple[str, ...] = ("i", "j")

    def __post_init__(self) -> None:
        if not self.loops:
            raise ValueError("a loop nest needs at least one inner loop")
        labels = [lp.label for lp in self.loops]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate loop labels in {labels}")
        if len(self.index_names) != 2:
            raise ValueError("the program model is two-level (two indices)")

    @property
    def dim(self) -> int:
        return len(self.index_names)

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(lp.label for lp in self.loops)

    def loop(self, label: str) -> InnerLoop:
        for lp in self.loops:
            if lp.label == label:
                return lp
        raise KeyError(f"no loop labelled {label!r}")

    def writers(self) -> Dict[str, Tuple[str, Assignment]]:
        """Map array -> (loop label, writing statement).

        Raises ``ValueError`` on multiple writers (the validator gives a
        friendlier diagnosis; this is the structural accessor).
        """
        out: Dict[str, Tuple[str, Assignment]] = {}
        for lp in self.loops:
            for stmt in lp.statements:
                arr = stmt.target.array
                if arr in out:
                    raise ValueError(f"array {arr!r} written by more than one statement")
                out[arr] = (lp.label, stmt)
        return out

    def input_arrays(self) -> Set[str]:
        """Arrays read but never written (external inputs)."""
        written = {s.target.array for lp in self.loops for s in lp.statements}
        read = {r.array for lp in self.loops for s in lp.statements for r in s.reads()}
        return read - written

    def all_arrays(self) -> Set[str]:
        written = {s.target.array for lp in self.loops for s in lp.statements}
        read = {r.array for lp in self.loops for s in lp.statements for r in s.reads()}
        return written | read

    def statement_count(self) -> int:
        return sum(len(lp.statements) for lp in self.loops)
