"""Parser for the loop DSL.

The concrete syntax mirrors the paper's Fortran-style figures::

    do i = 0, n
      doall j = 0, m        ! loop A
        a[i][j] = e[i-2][j-1]
      end
      B: doall j = 0, m
        b[i][j] = a[i-1][j-1] + a[i-2][j-1]
      end
    end

* One outermost ``do`` over the first index, DOALL loops over the second.
* Loop labels come from either a ``LABEL:`` prefix or a ``! loop LABEL``
  comment on the ``doall`` line; unlabeled loops get ``L1``, ``L2``, ...
* Statements assign an array element; subscripts are the loop index plus a
  constant (uniform accesses): ``a[i-2][j+1]``.
* ``!`` (or ``#``) starts a comment.  Expressions use ``+ - * /``,
  parentheses, unary minus and numeric literals.
* ``! lint: disable=LF101,LF201`` comments suppress lint diagnostics (see
  :mod:`repro.lint`): on a code line they silence the listed codes for that
  line, on a comment-only line for the whole file.
"""

from __future__ import annotations

import re
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.loopir.ast_nodes import (
    ArrayRef,
    Assignment,
    BinOp,
    Const,
    Expr,
    InnerLoop,
    LoopNest,
    SourceSpan,
    UnaryOp,
)
from repro.vectors import IVec

__all__ = ["parse_program", "ParseError", "collect_lint_suppressions", "FILE_WIDE"]


class ParseError(Exception):
    """Syntax or model error in DSL source, with a line number."""

    def __init__(self, message: str, line: int, col: int = 1) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.col = col


_LOOP_COMMENT_RE = re.compile(r"[!#]\s*loop\s+(\w+)", re.IGNORECASE)

_SUPPRESS_RE = re.compile(r"[!#]\s*lint:\s*disable=([A-Za-z0-9_,\s]+)")

#: Key used in :func:`collect_lint_suppressions` for file-wide suppressions.
FILE_WIDE = 0


def _comment_start(line: str) -> int:
    """Index of the first comment character (``!`` or ``#``), or -1."""
    candidates = [k for k in (line.find("!"), line.find("#")) if k >= 0]
    return min(candidates) if candidates else -1


def collect_lint_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> lint codes disabled there by comment directives.

    A ``lint: disable=LF101,LF301`` directive inside a ``!``/``#`` comment on
    a line that also holds code suppresses those codes for diagnostics on
    that line; on a comment-only (or blank-code) line, the codes are
    suppressed file-wide, recorded under the key :data:`FILE_WIDE`.
    """
    suppressions: Dict[int, Set[str]] = {}
    for lineno, raw in enumerate(source.splitlines(), start=1):
        bang = _comment_start(raw)
        if bang < 0:
            continue
        m = _SUPPRESS_RE.search(raw, bang)
        if m is None:
            continue
        codes = {c.strip().upper() for c in m.group(1).split(",") if c.strip()}
        if not codes:
            continue
        key = lineno if raw[:bang].strip() else FILE_WIDE
        suppressions.setdefault(key, set()).update(codes)
    return suppressions


class _Token(NamedTuple):
    kind: str  # "number" | "name" | "op" | "eof"
    text: str
    line: int
    col: int
    end_col: int
    #: For a whole ``name[idx+k][idx-k]`` reference scanned as one token:
    #: ``(source text, (index, offset), (index, offset))``.  The token's
    #: kind, text and position are those of the array name, so anything
    #: but :meth:`_Parser.parse_array_ref` sees the name token it starts with.
    ref: Optional[Tuple[str, Tuple[str, int], Tuple[str, int]]] = None


#: The line boundaries of :meth:`str.splitlines`, so line numbers match it.
_BREAKS = r"\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _subscript(k: int) -> str:
    """One subscript of a well-formed reference: ``idx``, ``idx+c`` or ``idx-c``."""
    return rf"\[(?P<idx{k}>[A-Za-z_]\w*)(?P<off{k}>[+-]\d+)?\]"


#: One scan over the whole source.  Each match skips the whitespace inside
#: a line, then takes one line break, one comment (to the end of its line),
#: one token, or any other single character (an error).  A two-subscript
#: array reference without whitespace is one token; any other reference is
#: scanned token by token.  Whitespace at the very end would match nothing,
#: and trying each of its positions in turn takes time quadratic in its
#: length, so :func:`_tokenize` scans the source with its trailing
#: whitespace stripped.
_SCAN_RE = re.compile(
    rf"""
    [^\S{_BREAKS}]*
    (?:
      (?P<nl>\r\n|[{_BREAKS}])
    | (?P<comment>[!#][^{_BREAKS}]*)
    | (?P<ref>(?P<array>[A-Za-z_]\w*){_subscript(0)}{_subscript(1)})
    | (?P<number>\d+\.\d+|\d+)
    | (?P<name>[A-Za-z_]\w*)
    | (?P<op>[+\-*/=(),:\[\]])
    | (?P<bad>\S)
    )
    """,
    re.VERBOSE,
)


def _tokenize(source: str) -> Tuple[List[_Token], Dict[int, str]]:
    """Tokens plus a map of line number -> label from ``! loop X`` comments."""
    tokens: List[_Token] = []
    comment_labels: Dict[int, str] = {}
    lineno, line_start = 1, 0
    for m in _SCAN_RE.finditer(source.rstrip()):
        kind = m.lastgroup
        if kind == "nl":
            lineno += 1
            line_start = m.end()
        elif kind == "comment":
            label = _LOOP_COMMENT_RE.search(m.group(kind))
            if label:
                comment_labels[lineno] = label.group(1)
        elif kind == "bad":
            raise ParseError(
                f"unexpected character {m.group(kind)!r}",
                lineno,
                m.start(kind) - line_start + 1,
            )
        elif kind == "ref":
            text, array, idx0, off0, idx1, off1 = m.group(
                "ref", "array", "idx0", "off0", "idx1", "off1"
            )
            col = m.start(kind) - line_start + 1
            ref = (text, (idx0, int(off0 or 0)), (idx1, int(off1 or 0)))
            tokens.append(
                _Token("name", array, lineno, col, col + len(text) - 1, ref)
            )
        else:
            text = m.group(kind)
            col = m.start(kind) - line_start + 1
            tokens.append(_Token(kind, text, lineno, col, col + max(len(text) - 1, 0)))
    tokens.append(_Token("eof", "", len(source.splitlines()) + 1, 1, 1))
    return tokens, comment_labels


#: The tokens inside a reference token's text (which holds no whitespace).
_PIECE_RE = re.compile(r"(?P<number>\d+)|(?P<name>[A-Za-z_]\w*)|(?P<op>[-+\[\]])")


def _split_ref(tok: _Token) -> List[_Token]:
    """The tokens :data:`_SCAN_RE` would give a reference token's text one by one."""
    assert tok.ref is not None
    return [
        _Token(m.lastgroup, m.group(), tok.line, tok.col + m.start(), tok.col + m.end() - 1)
        for m in _PIECE_RE.finditer(tok.ref[0])
    ]


class _Parser:
    def __init__(self, tokens: List[_Token], comment_labels: Dict[int, str]) -> None:
        self.tokens = tokens
        self.comment_labels = comment_labels
        self.pos = 0
        self.index_names: Tuple[str, str] = ("i", "j")
        self.outer_bound = "n"
        self.inner_bound = "m"
        self._auto_label = 0

    # -------------------------------------------------------------- #
    # token helpers
    # -------------------------------------------------------------- #

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.cur
        if tok.ref is not None:
            # a reference token consumed as a plain name: its other tokens follow
            self.tokens[self.pos : self.pos + 1] = _split_ref(tok)
            tok = self.cur
        self.pos += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        tok = self.cur
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.text!r}", tok.line)
        return self.advance()

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[_Token]:
        tok = self.cur
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        return None

    def at_keyword(self, word: str) -> bool:
        return self.cur.kind == "name" and self.cur.text.lower() == word

    def span_from(self, start: _Token) -> SourceSpan:
        """Span from ``start`` through the most recently consumed token."""
        last = self.tokens[self.pos - 1] if self.pos > 0 else start
        return SourceSpan(
            line=start.line,
            col=start.col,
            end_line=last.line,
            end_col=last.end_col,
        )

    # -------------------------------------------------------------- #
    # grammar
    # -------------------------------------------------------------- #

    def parse(self) -> LoopNest:
        nest = self.parse_outer()
        if self.cur.kind != "eof":
            raise ParseError(f"trailing input {self.cur.text!r}", self.cur.line)
        return nest

    def _parse_range(self) -> Tuple[str, str]:
        """``IDENT = 0, BOUND`` -> (index name, bound symbol/number text)."""
        idx = self.expect("name")
        self.expect("op", "=")
        lo = self.expect("number")
        if lo.text != "0":
            raise ParseError("the program model requires lower bound 0", lo.line)
        self.expect("op", ",")
        if self.cur.kind in ("name", "number"):
            bound = self.advance()
        else:
            raise ParseError("expected loop upper bound", self.cur.line)
        return idx.text, bound.text

    def parse_outer(self) -> LoopNest:
        if not self.at_keyword("do"):
            raise ParseError("program must start with 'do'", self.cur.line)
        self.advance()
        outer_idx, outer_bound = self._parse_range()
        loops: List[InnerLoop] = []
        inner_idx: Optional[str] = None
        inner_bound: Optional[str] = None
        while not self.at_keyword("end"):
            label, loop_inner_idx, loop_bound, loop = self.parse_inner(outer_idx)
            if inner_idx is None:
                inner_idx, inner_bound = loop_inner_idx, loop_bound
            elif (loop_inner_idx, loop_bound) != (inner_idx, inner_bound):
                raise ParseError(
                    "all DOALL loops must share the same control index and range "
                    f"(saw '{loop_inner_idx} = 0, {loop_bound}', expected "
                    f"'{inner_idx} = 0, {inner_bound}')",
                    self.cur.line,
                )
            loops.append(loop)
        self.expect("name")  # 'end'
        if not loops:
            raise ParseError("outer loop contains no DOALL loops", self.cur.line)
        assert inner_idx is not None and inner_bound is not None
        self.index_names = (outer_idx, inner_idx)
        return LoopNest(
            loops=tuple(loops),
            outer_bound=outer_bound,
            inner_bound=inner_bound,
            index_names=(outer_idx, inner_idx),
        )

    def parse_inner(self, outer_idx: str) -> Tuple[str, str, str, InnerLoop]:
        label: Optional[str] = None
        # optional 'LABEL :' prefix
        if (
            self.cur.kind == "name"
            and self.cur.ref is None
            and self.cur.text.lower() != "doall"
            and self.tokens[self.pos + 1].kind == "op"
            and self.tokens[self.pos + 1].text == ":"
        ):
            label = self.advance().text
            self.advance()  # ':'
        if not self.at_keyword("doall"):
            raise ParseError(
                f"expected 'doall' (or 'end'), found {self.cur.text!r}",
                self.cur.line,
                self.cur.col,
            )
        doall_tok = self.cur
        doall_line = self.cur.line
        self.advance()
        inner_idx, bound = self._parse_range()
        if inner_idx == outer_idx:
            raise ParseError("inner index must differ from the outer index", doall_line)
        if label is None:
            label = self.comment_labels.get(doall_line)
        if label is None:
            self._auto_label += 1
            label = f"L{self._auto_label}"

        statements: List[Assignment] = []
        while not self.at_keyword("end"):
            statements.append(self.parse_statement(outer_idx, inner_idx))
        self.expect("name")  # 'end'
        if not statements:
            raise ParseError(f"DOALL loop {label} has no statements", doall_line)
        loop = InnerLoop(
            label=label,
            statements=tuple(statements),
            span=SourceSpan(
                line=doall_tok.line,
                col=doall_tok.col,
                end_line=doall_tok.line,
                end_col=doall_tok.end_col,
            ),
        )
        return label, inner_idx, bound, loop

    def parse_statement(self, outer_idx: str, inner_idx: str) -> Assignment:
        start = self.cur
        target = self.parse_array_ref(outer_idx, inner_idx)
        self.expect("op", "=")
        expr = self.parse_expr(outer_idx, inner_idx)
        return Assignment(target=target, expr=expr, span=self.span_from(start))

    def parse_array_ref(self, outer_idx: str, inner_idx: str) -> ArrayRef:
        tok = self.cur
        if tok.ref is not None:
            _, (idx0, off0), (idx1, off1) = tok.ref
            if idx0 == outer_idx and idx1 == inner_idx:
                self.pos += 1
                return ArrayRef(
                    array=tok.text,
                    offset=IVec(off0, off1),
                    span=SourceSpan(tok.line, tok.col, tok.line, tok.end_col),
                )
        # token by token, which also reports a subscript on the wrong index
        name_tok = self.expect("name")
        offsets: List[int] = []
        for expected_idx in (outer_idx, inner_idx):
            self.expect("op", "[")
            offsets.append(self.parse_index(expected_idx))
            self.expect("op", "]")
        return ArrayRef(
            array=name_tok.text,
            offset=IVec(offsets),
            span=self.span_from(name_tok),
        )

    def parse_index(self, expected_idx: str) -> int:
        tok = self.expect("name")
        if tok.text != expected_idx:
            raise ParseError(
                f"subscript must use loop index {expected_idx!r}, found {tok.text!r}",
                tok.line,
            )
        if self.accept("op", "+"):
            return self.parse_offset()
        if self.accept("op", "-"):
            return -self.parse_offset()
        return 0

    def parse_offset(self) -> int:
        tok = self.expect("number")
        if "." in tok.text:
            raise ParseError(
                f"subscript offset must be an integer, found {tok.text!r}",
                tok.line,
                tok.col,
            )
        return int(tok.text)

    # expression grammar: expr -> term (('+'|'-') term)*
    # (operator tokens are never reference tokens, so skipping one is a
    # plain step of ``pos``)
    def parse_expr(self, outer_idx: str, inner_idx: str) -> Expr:
        node = self.parse_term(outer_idx, inner_idx)
        tok = self.tokens[self.pos]
        while tok.kind == "op" and tok.text in ("+", "-"):
            self.pos += 1
            node = BinOp(tok.text, node, self.parse_term(outer_idx, inner_idx))
            tok = self.tokens[self.pos]
        return node

    def parse_term(self, outer_idx: str, inner_idx: str) -> Expr:
        node = self.parse_factor(outer_idx, inner_idx)
        tok = self.tokens[self.pos]
        while tok.kind == "op" and tok.text in ("*", "/"):
            self.pos += 1
            node = BinOp(tok.text, node, self.parse_factor(outer_idx, inner_idx))
            tok = self.tokens[self.pos]
        return node

    def parse_factor(self, outer_idx: str, inner_idx: str) -> Expr:
        tok = self.tokens[self.pos]
        if tok.kind == "op" and tok.text == "-":
            self.pos += 1
            return UnaryOp("-", self.parse_factor(outer_idx, inner_idx))
        if tok.kind == "op" and tok.text == "(":
            self.pos += 1
            node = self.parse_expr(outer_idx, inner_idx)
            self.expect("op", ")")
            return node
        if tok.kind == "number":
            self.pos += 1
            return Const(float(tok.text))
        if tok.kind == "name":
            return self.parse_array_ref(outer_idx, inner_idx)
        raise ParseError(f"unexpected token {tok.text!r}", tok.line)

def parse_program(source: str) -> LoopNest:
    """Parse DSL source into a :class:`~repro.loopir.ast_nodes.LoopNest`.

    Raises :class:`ParseError` with a line number on malformed input.  The
    result is *syntactically* valid; run
    :func:`repro.loopir.validate.validate_program` for model-level checks.
    """
    tokens, comment_labels = _tokenize(source)
    return _Parser(tokens, comment_labels).parse()
