"""The regex lexer and the indexed comment attachment against the
per-character originals kept in oracles.py.

Token streams (kind, text, line, start, end), comment streams, ParseError
line and message, and attachments must be identical on every Java source in
the test fixtures and on generated token soups and programs.  The soups
include the originals' behaviour on invalid Java: digits that str.isdigit
accepts but the regex \\d does not (lexed as numbers), and the error for an
unterminated comment or literal.

One difference is deliberate.  The originals do not count a newline inside
a literal (a backslash-newline in a string) as a line, so every later line
number is one too low.
The lexer counts every newline.  Where the original's token stream holds a
literal with a newline, everything but line numbers is compared, and the
lexer's line numbers are checked against a count of the newlines before
each token and comment instead.

Attachments differ on purpose in one case: a comment inside a method body
belongs to that body, where the original attached it to a declaration that
starts within two lines below it.  Attachments are compared with every
method's inline comments read, through without_body_comments_attached_below,
which drops each such comment and counts it; the fixtures hold one.
"""

from __future__ import annotations

import ast
from dataclasses import astuple
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from condenser.javafacts import (
    _IDENT_START,
    _MULTI_PUNCT,
    _TOKEN_TEXT_RE,
    CommentFacts,
    MethodFacts,
    ParseError,
    SourceFacts,
    _decode,
    _lex,
    merge_inline_comments,
    parse_java,
)
from corpusdata import COMMITS
from oracles import lex_oracle, resolve_attachments_oracle
from typefixtures import ALL_TYPE_FIXTURES


def _fixture_sources() -> list[str]:
    sources = [
        text
        for commit in COMMITS
        for pair in commit["files"]
        for text in (pair["content_old"], pair["content_new"])
        if text
    ]
    sources += [text for _kind, old, new in ALL_TYPE_FIXTURES for text in (old, new)]
    # every string constant in the parser tests: inline sources and snippets
    tree = ast.parse((Path(__file__).parent / "test_javafacts.py").read_text(encoding="utf-8"))
    sources += [
        node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    return list(dict.fromkeys(sources))


FIXTURE_SOURCES = _fixture_sources()


def _lexed(lex, source: str, lines: bool = True):
    """Tokens, comments or the error of one lexer; line numbers are None
    unless lines."""
    try:
        tokens, comments = lex(source)
    except ParseError as exc:
        return ("error", exc.line if lines else None, exc.message)
    return (
        [(kind, text, line if lines else None, start, end) for kind, text, line, start, end in tokens],
        [
            (c.kind, c.text, c.start_line if lines else None, c.end_line if lines else None, c.start, c.end)
            for c in comments
        ],
    )


def _oracle_rows(source: str):
    """The original lexer's tokens as (kind, text, line, start, end) rows, as _lex gives them."""
    tokens, comments = lex_oracle(source)
    return [astuple(t) for t in tokens], comments


def has_multiline_literal(source: str) -> bool:
    """Whether the original lexer (lenient, so it reads to the end) yields a
    string or char literal that holds a newline."""
    tokens, _comments = lex_oracle(source, lenient=True)
    return any(t.kind in ("string", "char") and "\n" in t.text for t in tokens)


def _line_of(source: str, offset: int) -> int:
    return source.count("\n", 0, offset) + 1


def _assert_lexes_like_oracle(source: str) -> None:
    lines = not has_multiline_literal(source)
    assert _lexed(_lex, source, lines) == _lexed(_oracle_rows, source, lines), source
    if not lines:
        try:
            tokens, comments = _lex(source)
        except ParseError:
            return
        assert [t[2] for t in tokens] == [_line_of(source, t[3]) for t in tokens], source
        assert [(c.start_line, c.end_line) for c in comments] == [
            (_line_of(source, c.start), _line_of(source, c.start) + source.count("\n", c.start, c.end)) for c in comments
        ], source


def method_spans(facts: SourceFacts) -> list[tuple[int, MethodFacts, int, int]]:
    """Each method entry of facts.decls, (start, label, body start, end),
    with its label replaced by the method it places: the k-th 'method:C.m'
    entry is the k-th method m of class C.  The body start is the end
    without a body."""
    by_label: dict[str, list[MethodFacts]] = {}
    for qname, cls in facts.all_classes():
        for m in cls.methods:
            by_label.setdefault(f"method:{qname}.{m.name}", []).append(m)
    taken = {label: iter(methods) for label, methods in by_label.items()}
    return [(start, next(taken[label]), body, end) for start, label, body, end in facts.decls if label[0] == "m"]


def all_comments(source: str) -> list[CommentFacts]:
    """Every comment of parseable Java source in source order: the parser's
    comments with every method's inline comments merged in."""
    facts = parse_java(source)
    return merge_inline_comments(facts, [m for _q, cls in facts.all_classes() for m in cls.methods])


def without_body_comments_attached_below(
    source: str, facts: SourceFacts, got: list[CommentFacts], expected: list[CommentFacts]
) -> tuple[list[CommentFacts], list[CommentFacts], int]:
    """The one deliberate attachment change, filtered out and counted.

    got and expected are the same source's comments in source order, as the
    package and the previous resolver attach them.  A comment inside a
    method body belongs to that body now; the previous resolver attached it
    to a declaration starting within two lines below it instead.  Each such
    comment, inline in got, is dropped from both lists; returns the filtered
    lists and how many were dropped.
    """
    bodies = [(body, end) for _start, m, body, end in method_spans(facts) if m.body_text]
    raw_comments = _lex(source)[1]
    assert len(raw_comments) == len(got) == len(expected), source
    drop = {
        k
        for k, (raw, old) in enumerate(zip(raw_comments, expected))
        if not old.attachment.startswith("inline:") and any(b0 < raw.start and raw.end <= b1 for b0, b1 in bodies)
    }
    assert all(got[k].attachment.startswith("inline:") for k in drop), source
    kept = [k for k in range(len(got)) if k not in drop]
    return [got[k] for k in kept], [expected[k] for k in kept], len(drop)


def oracle_decl_index(source: str, facts: SourceFacts) -> list[tuple[str, str, int, int, tuple[int, int]]]:
    """The attachment oracles' declaration index, a (kind, qname, line,
    start, body span) entry per declaration, from SourceFacts.decls."""
    return [
        (*label.split(":", 1), source.count("\n", 0, start) + 1, start, (body_start, body_end))
        for start, label, body_start, body_end in facts.decls
    ]


def _assert_attaches_like_oracle(source: str) -> int | None:
    """Compare attachments on a source that parses, every method's inline
    comments read; None when it does not parse, else how many comments the
    filter dropped."""
    try:
        facts = parse_java(source)
    except ParseError:
        return None
    expected = resolve_attachments_oracle(_lex(source)[1], oracle_decl_index(source, facts))[0]
    got, expected, dropped = without_body_comments_attached_below(source, facts, all_comments(source), expected)
    assert got == expected, source
    return dropped


def test_fixture_token_streams_match_oracle():
    assert len(FIXTURE_SOURCES) > 100
    for source in FIXTURE_SOURCES:
        _assert_lexes_like_oracle(source)


def test_fixture_attachments_match_oracle():
    dropped = [n for source in FIXTURE_SOURCES if (n := _assert_attaches_like_oracle(source)) is not None]
    assert len(dropped) > 50
    # one body comment ends two lines above a declaration: '// last' in
    # test_javafacts' test_body_comments_are_built_on_first_read_with_their_lines
    assert sum(dropped) == 1


@pytest.mark.parametrize(
    "source",
    [
        'x = "ab\\\ncd" + y;\nz',  # backslash-newline inside a string
        "c = '\\\n'; d\ne",  # ... and inside a char literal
        "n = ² + 3³;",  # isdigit but not \d
        'open "abc   \n\nnext',  # unterminated string
        "'x",
        '"',
        '"\\',
        '"abc\\"',
        "/* unterminated\n comment ",
        "/** unterminated javadoc",
        "/**/ /***/ /*/ */ /** d */",
        "a >>>= b >>= c >>> d ... -> :: \\ # ` é \x00 \x1c",
        "1e+5 0x1FL 1.5f .5 3.e-2 1_000 ٣",
        "x // tail\r\n y",
        "",
        "  \n\t\f\v\r\n ",
    ],
)
def test_edge_cases_match_oracle(source):
    _assert_lexes_like_oracle(source)


# --- token soups --------------------------------------------------------------------

_IDENT = st.from_regex(r"[A-Za-z_$][A-Za-z0-9_$]{0,6}", fullmatch=True)
_NUMBER = st.from_regex(r"[0-9](?:[0-9a-fA-FxXlL_.]|[eEpP][+-]){0,6}", fullmatch=True)
_OPERATOR = st.sampled_from(list(_MULTI_PUNCT) + list("!#%&()*+,-./:;<=>?@[\\]^`{|}~"))
_LITERAL_CHAR = st.sampled_from(list("ab $'\"\t") + ["\\n", '\\"', "\\'", "\\\\", "\\u0041", "\\\n", "é"])
_STRING = st.builds("".join, st.lists(_LITERAL_CHAR, max_size=6)).map(lambda s: f'"{s}"')
_CHAR = st.builds("".join, st.lists(_LITERAL_CHAR, max_size=2)).map(lambda s: f"'{s}'")
_COMMENT_TEXT = st.text(alphabet="ab */\n\t@", max_size=12)
_COMMENT = st.one_of(
    _COMMENT_TEXT.map(lambda s: "//" + s.replace("\n", " ")),
    _COMMENT_TEXT.map(lambda s: "/*" + s + "*/"),
    _COMMENT_TEXT.map(lambda s: "/**" + s + "*/"),
)
_WHITESPACE = st.text(alphabet=" \t\r\f\v\n", min_size=1, max_size=4)
_ODD = st.sampled_from(["\"", "'", "\\", "/*", "²", "é", "٣", "\x00", " ", " "])
_PIECE = st.one_of(_IDENT, _NUMBER, _OPERATOR, _STRING, _CHAR, _COMMENT, _WHITESPACE, _ODD)


@settings(max_examples=600, deadline=None)
@given(st.lists(_PIECE, max_size=30).map("".join))
def test_token_soups_match_oracle(source):
    _assert_lexes_like_oracle(source)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_IDENT, _NUMBER, _OPERATOR, _STRING, _CHAR, _WHITESPACE, _ODD), max_size=30).map("".join))
def test_token_texts_of_comment_free_soups_match_the_decoder(source):
    # the statement builder's flat path tokenizes with _TOKEN_TEXT_RE.findall
    # and tells an ident by its first character
    try:
        kinds, texts, _starts, _ends, comments = _decode(source, 0, len(source))
    except ParseError:
        assume(False)  # an open comment or literal
    assume(not comments)
    assert _TOKEN_TEXT_RE.findall(source) == texts
    assert [kind == "ident" for kind in kinds] == [text[0] in _IDENT_START for text in texts]


# --- generated programs: attachment -------------------------------------------------

# method body pieces: braces, comment openers and quotes inside literals, and
# nested blocks, which the parser must step over without lexing them
_BODY_PIECES = [
    "x();", "// in\n", "/* in */", "\n", "if (y) { z(); }", "/** d */",
    's = "}";', "c = '{';", 'u = "//";', 'v = "/*";', "c = '}';", 'w = "{" + "\\"}";',
    "{ { w(); } }", "while (a) { if (b) { c(); } else { d(); } }",
    "r = () -> { return 1; };", "int[] a = { 1, 2 };", "new Object() { void f() { } };",
]
_GAP = st.sampled_from(["", "\n", "\n\n", "\n\n\n", " "])
_DECL_COMMENT = st.sampled_from(["", "// note\n", "/* block */", "/** doc */", "/** two\n lines */", "/* a */ // b\n"])


@st.composite
def _class_source(draw, name: str, depth: int) -> str:
    parts = [draw(_DECL_COMMENT), draw(_GAP), draw(st.sampled_from(["", "@Deprecated ", "public "]))]
    parts.append(f"class {name} {{")
    for k in range(draw(st.integers(0, 4))):
        parts += [draw(_GAP), draw(_DECL_COMMENT), draw(_GAP)]
        member = draw(st.sampled_from(["field", "method", "abstract", "inner"] if depth < 3 else ["field", "method"]))
        if member == "field":
            parts.append(f"int f{k} = 1; {draw(_DECL_COMMENT)}")
        elif member == "abstract":
            parts.append(f"abstract void a{k}();")
        elif member == "inner":
            parts.append(draw(_class_source(f"{name}I{k}", depth + 1)))
        else:
            body = draw(st.lists(st.sampled_from(_BODY_PIECES), max_size=4))
            parts.append(f"void m{k}() {{ {' '.join(body)} }}")
    parts += [draw(_GAP), draw(_DECL_COMMENT), draw(_GAP), "}"]
    return "".join(parts)  # an empty gap puts a comment right against a declaration


@st.composite
def _program_source(draw) -> str:
    head = [draw(_DECL_COMMENT), draw(_GAP), "package p;", draw(_GAP), draw(_DECL_COMMENT), draw(_GAP)]
    classes = [draw(_class_source(f"T{k}", 0)) for k in range(draw(st.integers(1, 2)))]
    return "\n".join(head + classes + [draw(_DECL_COMMENT)])


@settings(max_examples=300, deadline=None)
@given(_program_source())
def test_program_attachments_match_oracle(source):
    _assert_lexes_like_oracle(source)
    assert _assert_attaches_like_oracle(source) is not None
