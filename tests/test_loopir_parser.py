"""Unit tests for the loop DSL parser and printer."""

import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.loopir import (
    ArrayRef,
    ParseError,
    format_program,
    parse_program,
)
from repro.loopir.ast_nodes import SourceSpan
from repro.loopir.parser import _Parser, _split_ref, _tokenize
from repro.vectors import IVec

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.loop"))

SIMPLE = """
do i = 0, n
  doall j = 0, m
    a[i][j] = b[i-1][j+2] + 1
  end
end
"""


class TestBasicParsing:
    def test_structure(self):
        nest = parse_program(SIMPLE)
        assert nest.labels == ("L1",)
        assert nest.outer_bound == "n"
        assert nest.inner_bound == "m"
        assert nest.index_names == ("i", "j")

    def test_statement_offsets(self):
        nest = parse_program(SIMPLE)
        stmt = nest.loops[0].statements[0]
        assert stmt.target == ArrayRef("a", IVec(0, 0))
        reads = list(stmt.reads())
        assert reads == [ArrayRef("b", IVec(-1, 2))]

    def test_label_prefix_syntax(self):
        src = "do i = 0, n\n  A: doall j = 0, m\n    a[i][j] = 1\n  end\nend"
        nest = parse_program(src)
        assert nest.labels == ("A",)

    def test_label_comment_syntax(self):
        src = "do i = 0, n\n  doall j = 0, m   ! loop Zed\n    a[i][j] = 1\n  end\nend"
        nest = parse_program(src)
        assert nest.labels == ("Zed",)

    def test_auto_labels(self):
        src = (
            "do i = 0, n\n"
            "  doall j = 0, m\n    a[i][j] = 1\n  end\n"
            "  doall j = 0, m\n    b[i][j] = 2\n  end\n"
            "end"
        )
        assert parse_program(src).labels == ("L1", "L2")

    def test_comments_stripped(self):
        src = "do i = 0, n  ! outer\n  doall j = 0, m\n    a[i][j] = 1 ! one\n  end\nend"
        nest = parse_program(src)
        assert nest.loops[0].statements[0].target.array == "a"

    def test_custom_index_names(self):
        src = "do t = 0, T\n  doall x = 0, X\n    a[t][x] = a[t-1][x+1]\n  end\nend"
        nest = parse_program(src)
        assert nest.index_names == ("t", "x")
        assert nest.outer_bound == "T"

    def test_expression_precedence(self):
        src = "do i = 0, n\n  doall j = 0, m\n    a[i][j] = 1 + 2 * 3\n  end\nend"
        nest = parse_program(src)
        expr = nest.loops[0].statements[0].expr
        assert expr.op == "+"

    def test_parentheses_and_unary(self):
        src = "do i = 0, n\n  doall j = 0, m\n    a[i][j] = -(1 + 2) * 3\n  end\nend"
        nest = parse_program(src)
        assert nest.loops[0].statements[0].expr.op == "*"


class TestParseErrors:
    def test_nonzero_lower_bound(self):
        with pytest.raises(ParseError, match="lower bound 0"):
            parse_program("do i = 1, n\n  doall j = 0, m\n    a[i][j] = 1\n  end\nend")

    def test_wrong_subscript_variable(self):
        with pytest.raises(ParseError, match="subscript"):
            parse_program("do i = 0, n\n  doall j = 0, m\n    a[j][i] = 1\n  end\nend")

    def test_mismatched_inner_ranges(self):
        src = (
            "do i = 0, n\n"
            "  doall j = 0, m\n    a[i][j] = 1\n  end\n"
            "  doall j = 0, k\n    b[i][j] = 2\n  end\n"
            "end"
        )
        with pytest.raises(ParseError, match="same control index and range"):
            parse_program(src)

    def test_missing_do(self):
        with pytest.raises(ParseError):
            parse_program("doall j = 0, m\n  a[i][j] = 1\nend")

    def test_empty_loop(self):
        with pytest.raises(ParseError):
            parse_program("do i = 0, n\n  doall j = 0, m\n  end\nend")

    def test_no_inner_loops(self):
        with pytest.raises(ParseError):
            parse_program("do i = 0, n\nend")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_program(SIMPLE + "\nextra")

    def test_unknown_character(self):
        with pytest.raises(ParseError):
            parse_program("do i = 0, n @")

    def test_inner_equals_outer_index(self):
        with pytest.raises(ParseError, match="differ"):
            parse_program("do i = 0, n\n  doall i = 0, m\n    a[i][i] = 1\n  end\nend")

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_program("do i = 0, n\n  doall j = 0, m\n    a[q][j] = 1\n  end\nend")
        assert err.value.line == 3


def _span_text(lines, span):
    assert span.line == span.end_line  # every example statement is one line
    return lines[span.line - 1][span.col - 1 : span.end_col]


def _body(statement: str) -> str:
    """A one-loop program around ``statement`` (which sits on line 3)."""
    return f"do i = 0, n\n  doall j = 0, m\n    {statement}\n  end\nend"


def _outcome(parse):
    """What a parse gives: the program with every span, or the error."""
    try:
        nest = parse()
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.col)
    except ValueError as exc:
        return ("value-error", str(exc))
    spans = [
        (stmt.span, [(str(r), r.span) for r in (stmt.target, *stmt.reads())])
        for lp in nest.loops
        for stmt in lp.statements
    ]
    return ("ok", format_program(nest), [lp.span for lp in nest.loops], spans)


def _token_by_token(source: str):
    """Parse with every one-token reference split back into its tokens."""
    tokens, labels = _tokenize(source)
    split = [t for tok in tokens for t in (_split_ref(tok) if tok.ref else [tok])]
    assert all(tok.ref is None for tok in split)
    return _Parser(split, labels).parse()


_OFFSET = st.sampled_from(["", "+1", "-2", "+0", "-13", "+07", "", "+", "-1.5"])
_GAP = st.sampled_from(["", "", "", " ", "\n"])


@st.composite
def _references(draw):
    """Array references, mostly well formed, with or without whitespace."""
    parts = [draw(st.sampled_from(["a", "b", "x_1", "a", "b", "do", "end", "doall"]))]
    for k in range(draw(st.sampled_from([2, 2, 2, 2, 1, 3]))):
        index = "ij"[k] if k < 2 and draw(st.integers(0, 9)) else draw(
            st.sampled_from(["i", "j", "k", "I", "J", "i2"])
        )
        parts += ["[", index, draw(_OFFSET), "]"]
    if draw(st.booleans()):
        return "".join(parts)
    return "".join(part + draw(_GAP) for part in parts)


@st.composite
def _programs(draw):
    refs = draw(st.lists(_references(), min_size=2, max_size=5))
    ops = draw(st.lists(st.sampled_from([" + ", " * ", "-", " ", ":"]), min_size=len(refs),
                        max_size=len(refs)))
    expr = refs[1] + "".join(op + ref for op, ref in zip(ops, refs[2:]))
    header = draw(st.sampled_from(["", "B: ", refs[-1] + ": ", "a[i][j]: "]))
    return f"do i = 0, n\n  {header}doall j = 0, m\n    {refs[0]} = {expr}\n  end\nend"


class TestOneTokenReferences:
    """A well-formed reference scanned as one token parses exactly as its
    tokens would, one by one: the same tree, spans and errors."""

    @given(_programs())
    @settings(deadline=None)
    def test_same_outcome_as_token_by_token(self, source):
        assert _outcome(lambda: parse_program(source)) == _outcome(
            lambda: _token_by_token(source)
        )

    @pytest.mark.parametrize("path", EXAMPLES, ids=[p.name for p in EXAMPLES])
    def test_examples_parse_as_token_by_token(self, path):
        source = path.read_text()
        assert _outcome(lambda: parse_program(source)) == _outcome(
            lambda: _token_by_token(source)
        )


class TestSpans:
    """Spans and error positions are pinned to the source text."""

    @pytest.mark.parametrize("path", EXAMPLES, ids=[p.name for p in EXAMPLES])
    def test_example_spans_cover_their_text(self, path):
        source = path.read_text()
        lines = source.splitlines()
        nest = parse_program(source)
        for loop in nest.loops:
            assert _span_text(lines, loop.span) == "doall"
            for stmt in loop.statements:
                code = lines[stmt.span.line - 1].split("!")[0].rstrip()
                assert _span_text(lines, stmt.span) == code.lstrip()
                assert stmt.span.col == stmt.target.span.col
                for ref in (stmt.target, *stmt.reads()):
                    assert _span_text(lines, ref.span).replace(" ", "") == str(ref)

    def test_fig2_spans(self):
        nest = parse_program(Path(EXAMPLES[0].parent, "fig2.loop").read_text())
        loop_a = nest.loops[0]
        assert loop_a.label == "A"
        assert loop_a.span == SourceSpan(line=11, col=3, end_line=11, end_col=7)
        stmt = loop_a.statements[0]
        assert stmt.span == SourceSpan(line=12, col=5, end_line=12, end_col=25)
        (read,) = stmt.reads()
        assert read.span == SourceSpan(line=12, col=15, end_line=12, end_col=25)

    @pytest.mark.parametrize(
        "source, line, col, message",
        [
            # CRLF line endings count as one line break
            (
                "do i = 0, n\r\n  doall j = 0, m\r\n    a[i][j] = b[i][j] @ 1\r\n"
                "  end\r\nend\r\n",
                3, 23, "unexpected character '@'",
            ),
            # a form feed breaks the line, as str.splitlines does; tabs are
            # one column and a comment ends at its line break
            (
                "do i = 0, n\x0c  doall j = 0, m ! loop Q\n\ta[i][j] = b[i-1][j] $\nend end",
                3, 22, "unexpected character '$'",
            ),
            ("do i = 0, n\n  doall j = 0, m\n    a[q][j] = 1\n  end\nend", 3, 1,
             "subscript must use loop index 'i', found 'q'"),
            # a reference is one token only when it is well formed; every
            # other shape reports what the token-by-token parse reports
            (_body("a[i][j] = b[ j - 2 ][i]"), 3, 1,
             "subscript must use loop index 'i', found 'j'"),
            (_body("a[i][j] = b[j][i]"), 3, 1,
             "subscript must use loop index 'i', found 'j'"),
            (_body("a[j][i] = 1"), 3, 1, "subscript must use loop index 'i', found 'j'"),
            (_body("a[i][j] = b[i+][j]"), 3, 1, "expected 'number', found ']'"),
            (_body("a[i][j] = b[i]"), 4, 1, "expected '[', found 'end'"),
            (_body("a[i][j] = b[i][j][k]"), 3, 1, "expected 'name', found '['"),
            (_body("a[i][j] = b[I][j-1]"), 3, 1,
             "subscript must use loop index 'i', found 'I'"),
            (_body("a[i][j] = b[i][J]"), 3, 1, "subscript must use loop index 'j', found 'J'"),
            (_body("a[i][j] = b[i]\n[j] + b[i][\nk]"), 5, 1,
             "subscript must use loop index 'j', found 'k'"),
            (_body("x[i][j]: doall j = 0, m"), 3, 1, "expected '=', found ':'"),
            ("do i = 0, n\n  x[i][j]: doall j = 0, m\n    a[i][j] = 1\n  end\nend", 2, 3,
             "expected 'doall' (or 'end'), found 'x'"),
        ],
    )
    def test_malformed_input_positions(self, source, line, col, message):
        with pytest.raises(ParseError) as err:
            parse_program(source)
        assert (err.value.line, err.value.col) == (line, col)
        assert str(err.value) == f"line {line}: {message}"

    def test_fractional_offset_escapes_as_a_value_error(self):
        # not a ParseError yet: int() of the number token raises before the
        # parser can attach a position; pinned so the output stays as it was
        with pytest.raises(ValueError, match="invalid literal for int"):
            parse_program(_body("a[i][j] = b[i-1.5][j]"))

    @pytest.mark.parametrize(
        "statement, spans",
        [
            ("a[i+1][j-3] = b[i-12][j+0]", [(3, 5, 3, 15), (3, 19, 3, 30)]),
            # whitespace or a line break inside a reference: token by token
            ("a[i][j] = b[ i - 2 ][j]", [(3, 5, 3, 11), (3, 15, 3, 27)]),
            ("a[i][j] = b[i-1\n][j+2] + c[i][j]",
             [(3, 5, 3, 11), (3, 15, 4, 6), (4, 10, 4, 16)]),
        ],
    )
    def test_reference_spans(self, statement, spans):
        (stmt,) = parse_program(_body(statement)).loops[0].statements
        got = [(r.span.line, r.span.col, r.span.end_line, r.span.end_col)
               for r in (stmt.target, *stmt.reads())]
        assert got == spans

    def test_comment_label_and_eof_line(self):
        source = "do i = 0, n\n  doall j = 0, m  # note ! loop Q\n    a[i][j] = 1\n  end\nend\n"
        nest = parse_program(source)
        assert nest.loops[0].label == "Q"
        with pytest.raises(ParseError) as err:
            parse_program("do i = 0, n\n  doall j = 0, m\n    a[i][j] = 1\n  end\n")
        assert err.value.line == 5  # the end of input, one past the last line

    def test_trailing_whitespace_is_linear(self):
        # A long whitespace tail must tokenize in time linear in its length.
        source = EXAMPLES[0].read_text()
        start = time.perf_counter()
        padded = parse_program(source + " " * 200_000)
        assert time.perf_counter() - start < 2.0
        assert format_program(padded) == format_program(parse_program(source))
        with pytest.raises(ParseError) as err:
            parse_program("do i = 0, n\n  doall j = 0, m\n    a[i][j] = 1\n  end\n \t\n  ")
        assert err.value.line == 7  # still one past the last line


class TestRoundTrip:
    @pytest.mark.parametrize(
        "source_fn",
        ["figure2_code"],
    )
    def test_paper_code_roundtrip(self, source_fn):
        from repro.gallery import paper

        src = getattr(paper, source_fn)()
        nest = parse_program(src)
        assert parse_program(format_program(nest)) == nest

    def test_gallery_iir_roundtrip(self):
        from repro.gallery.common import iir2d_code

        nest = parse_program(iir2d_code())
        assert parse_program(format_program(nest)) == nest

    def test_float_constants_roundtrip(self):
        src = "do i = 0, n\n  doall j = 0, m\n    a[i][j] = 0.25 * b[i-1][j]\n  end\nend"
        nest = parse_program(src)
        assert parse_program(format_program(nest)) == nest
