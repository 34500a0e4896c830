"""The declaration parser, which steps over method bodies and builds their
statements on first read, against the eager original kept in oracles.py.

With every body_statements read, SourceFacts must equal the original's, and
a ParseError must carry the same line and message, on every Java source in
the test fixtures, on generated programs whose bodies hold braces, quotes
and comment openers inside literals, on the benchmark's generated files and
on both sides of its Java 16+ commits.  As in test_lexer_oracle, line
numbers are left out where a literal holds a newline, since the original
does not count that newline.

The original attaches every comment, those in method bodies included, in
SourceFacts.comments; the parser's comments are compared with every
method's inline comments merged back in, through test_lexer_oracle's filter
for the one deliberate attachment change.

The rest checks the laziness itself: parsing builds no statements and no
body comments, a one-statement edit builds the statements of the edited
method's two versions only and the inline comments of its name only, and
the statements the benchmark reads from each inline change are the
original's.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import javagen
import workloads
from condenser import javafacts
from condenser.changeset import diff_facts
from condenser.corpus import condense_commit
from condenser.diffing import CommitInput, FilePair
from condenser.javafacts import ParseError, SourceFacts, _lex, merge_inline_comments, parse_java
from corpusdata import COMMITS
from oracles import parse_java_oracle
from test_lexer_oracle import (
    _PIECE,
    FIXTURE_SOURCES,
    _program_source,
    has_multiline_literal,
    method_spans,
    without_body_comments_attached_below,
)

_METHOD_FIELDS = (
    "name", "return_type", "parameters", "modifiers", "annotations",
    "thrown_exceptions", "body_statements",
)


def _plain(value):
    """Facts as nested tuples of every compared field, with every
    body_statements read."""
    if isinstance(value, (tuple, list)):
        return tuple(_plain(v) for v in value)
    if not dataclasses.is_dataclass(value):
        return value
    if hasattr(value, "body_statements"):
        kind, names = "method", _METHOD_FIELDS
    else:
        # the position fields no equality compares are the package's own, and the oracle leaves them empty
        kind, names = type(value).__name__, [f.name for f in dataclasses.fields(value) if f.compare]
    return kind, tuple((name, _plain(getattr(value, name))) for name in names)


def _parsed(parse, source: str, path: str) -> SourceFacts | ParseError:
    try:
        return parse(source, path)
    except ParseError as exc:
        return exc


def _assert_parses_like_oracle(source: str, path: str = "<memory>") -> bool:
    """True when the source parses.  The package's comments are compared
    with every method's inline comments merged in, and through the filter
    of test_lexer_oracle; its method positions, from SourceFacts.decls,
    with the original's byte ranges."""
    lines = not has_multiline_literal(source)
    got, expected = _parsed(parse_java, source, path), _parsed(parse_java_oracle, source, path)
    if isinstance(got, SourceFacts) and isinstance(expected, SourceFacts):
        methods = [m for _q, cls in got.all_classes() for m in cls.methods]
        comments, oracle_comments, _dropped = without_body_comments_attached_below(
            source, got, merge_inline_comments(got, methods), list(expected.comments)
        )
        assert [(start, end) for start, _m, _body, end in method_spans(got)] == sorted(
            m.byte_range for _q, cls in expected.all_classes() for m in cls.methods
        ), source
        got = dataclasses.replace(got, comments=tuple(comments))
        expected = dataclasses.replace(expected, comments=tuple(oracle_comments))
    assert _plain_outcome(got, lines) == _plain_outcome(expected, lines), source
    return isinstance(got, SourceFacts)


def _plain_outcome(outcome: SourceFacts | ParseError, lines: bool):
    if isinstance(outcome, ParseError):
        return ("error", outcome.line if lines else None, outcome.message)
    return _plain(outcome)


def test_fixture_sources_parse_like_oracle():
    parsed = [source for source in FIXTURE_SOURCES if _assert_parses_like_oracle(source)]
    assert len(parsed) > 50


@settings(max_examples=300, deadline=None)
@given(_program_source())
def test_program_sources_parse_like_oracle(source):
    assert _assert_parses_like_oracle(source)


_SOUP = st.lists(_PIECE, max_size=30).map("".join)


@settings(max_examples=600, deadline=None)
@given(_SOUP)
def test_token_soups_fail_like_oracle(source):
    _assert_parses_like_oracle(source)


@settings(max_examples=600, deadline=None)
@given(_SOUP)
def test_token_soups_in_a_body_parse_like_oracle(source):
    # whatever the body holds, the coarse scan must find the '}' the fine
    # lexer finds, and the statements built from the body text must match
    _assert_parses_like_oracle("class A {\n  void m() {\n" + source + "\n  }\n  int f;\n}\n")


def _deletable_tokens(source: str) -> list[tuple[int, int]]:
    """The (start, end) span of each non-brace code token of a source that
    parses; none for one that does not."""
    try:
        parse_java(source)
    except ParseError:
        return []
    return [(start, end) for _kind, text, _line, start, end in _lex(source)[0] if text not in ("{", "}")]


_DELETABLE = [(source, spans) for source in FIXTURE_SOURCES if (spans := _deletable_tokens(source))]


@settings(max_examples=1500, deadline=None)
@given(st.data())
def test_deleting_a_token_parses_like_oracle(data):
    # with one token gone the declaration parser raises its own errors, in
    # chunks lexed around the bodies it steps over
    source, spans = data.draw(st.sampled_from(_DELETABLE))
    start, end = data.draw(st.sampled_from(spans))
    _assert_parses_like_oracle(source[:start] + source[end:])


def _generated_files(seed: int) -> list[javagen.JFile]:
    gen = javagen.JavaGen(random.Random(seed))
    files = [javagen.sized_file(gen, lines) for lines in (20, 150, 600)]
    files.append(javagen.edit_file(gen, files[1], 4)[0])
    rewrite = javagen.rewrite_file(gen, 300)
    largest = javagen.rewrite_file(gen, 2000)  # the largest rewrite the benchmark runs
    return files + [rewrite.old, rewrite.new, largest.old, largest.new]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_files_parse_like_oracle(seed):
    for jfile in _generated_files(seed):
        assert _assert_parses_like_oracle(javagen.render(jfile))


def _roadmap_source() -> str:
    return javagen.render(javagen.roadmap_file(javagen.JavaGen(random.Random(1))))


def test_roadmap_file_parses_like_oracle():
    assert _assert_parses_like_oracle(_roadmap_source())


@pytest.mark.parametrize(
    "commit, message",
    [
        (workloads.JAVA16_COMMITS[0], "line 4: expected type declaration, found 'sealed'"),
        (workloads.JAVA16_COMMITS[1], "line 5: unterminated string literal"),
    ],
)
def test_java16_commits_fail_like_oracle(commit, message):
    for source in (commit["old"], commit["new"]):
        assert not _assert_parses_like_oracle(source, commit["path"])
        with pytest.raises(ParseError) as exc:
            parse_java(source, commit["path"])
        assert str(exc.value) == message


# Pieces for every rule of the body scanner: control headers and their
# misuses ('else (', 'finally ('), switch labels, simple keywords, labels,
# declarations, assignments and calls, and loose words, inside balanced
# '(...)' and '{...}'.
_SCANNER_PIECE = st.sampled_from([
    "if (a)", "else if (b)", "else", "else (a)", "while (a)", "for (int i = 0; i < n; i++)", "do",
    "do (a)", "try", "try (R r = a())", "catch (E e)", "finally", "finally (a)", "switch (a)",
    "synchronized (a)", "case 1:", "case A.B:", "default:", "default ->", "case (1) ->",
    "return a;", "throw new E();", "break out;", "continue;", "assert a : b;", "yield 1;",
    "out: for", "out: try", "out: x();", "final List<Map<A, B>> m = c;", "int[] a = { 1, 2 };",
    "a.b(c);", "a = b;", "a += 1;", "a++;", "new A() { };", "this.a = b;", "super.f();",
    "if", "else", "do", "case", "default", "new", "final", "a", "b", "(", ")", "[", "]",
    ";", ":", ",", "=", ".", "<", ">", ">>", "->", "1", '"s;"', "'c'", "/* c */", "// c\n", "\n",
])
_SCANNER_BODY = st.recursive(
    st.lists(_SCANNER_PIECE, max_size=8).map(" ".join),
    lambda inner: st.lists(
        st.one_of(inner, inner.map(lambda s: f"({s})"), inner.map(lambda s: f"{{ {s} }}")), max_size=4
    ).map(" ".join),
    max_leaves=16,
)


@settings(max_examples=400, deadline=None)
@given(_SCANNER_BODY)
def test_scanner_rule_bodies_parse_like_oracle(body):
    assert _assert_parses_like_oracle("class A {\n  void m() {\n" + body + "\n  }\n}\n")


# Statement heads after a multi-line block comment, after a label, and a
# 'case' after a statement that spans three lines: a statement starts at its
# first token, whatever lies between it and the previous head.
_HEADS_SOURCE = """\
class Heads {
  int run(int k) {
    /* a block comment
       over three
       lines */ int a = 1;
    /*
     * another
     */
    outer:
    for (int i = 0; i < k; i++) {
      switch (i) {
        case 0:
          a = a
            + i
            + 1;
        case 1: return a;
        default:
          break outer;
      }
    }
    return a;
  }
}
"""


def test_statement_lines_at_heads_match_oracle():
    assert not has_multiline_literal(_HEADS_SOURCE)
    assert _assert_parses_like_oracle(_HEADS_SOURCE)
    statements = parse_java(_HEADS_SOURCE).classes[0].methods[0].body_statements
    assert [(s.kind, s.text) for s in statements] == [
        ("declaration", "int a = 1;"),
        ("loop", "for (int i = 0; i < k; i++)"),
        ("branch", "switch (i)"),
        ("branch", "case 0:"),
        ("assignment", "a = a + i + 1;"),
        ("branch", "case 1:"),
        ("return", "return a;"),
        ("branch", "default:"),
        ("other", "break outer;"),
        ("return", "return a;"),
    ]


# --- laziness ------------------------------------------------------------------


@pytest.fixture
def built(monkeypatch) -> list[str]:
    """Body texts the statement builders are called with, in order; a pair
    built together gives its old and then its new text."""
    calls: list[str] = []
    build, build_pair = javafacts._body_statements, javafacts._paired_statements

    def spy(body_text):
        calls.append(body_text)
        return build(body_text)

    def spy_pair(old_text, new_text):
        calls.extend((old_text, new_text))
        return build_pair(old_text, new_text)

    monkeypatch.setattr(javafacts, "_body_statements", spy)
    monkeypatch.setattr(javafacts, "_paired_statements", spy_pair)
    return calls


def test_parsing_builds_no_statements(built):
    facts = parse_java(_roadmap_source())
    assert len(facts.classes[0].methods) > 200 and built == []
    method = facts.classes[0].methods[7]
    assert method.body_statements and method.body_statements is method.body_statements
    assert built == [method.body_text]


def test_one_statement_edit_builds_only_the_edited_method(built, monkeypatch):
    gen = javagen.JavaGen(random.Random(1))
    old = javagen.roadmap_file(gen)
    new = copy.deepcopy(old)
    new.classes[0].methods[10].body[3] = gen.simple_stmt()
    old_src, new_src = javagen.render(old), javagen.render(new)
    path = "src/main/java/LargeGeneratedService.java"
    commit = CommitInput("acme/large", "0123456789ab", (FilePair(path, path, old_src, new_src),))

    result = condense_commit(commit)
    name = old.classes[0].methods[10].name
    edited = [m.body_text for src in (old_src, new_src) for m in parse_java(src).classes[0].methods if m.name == name]
    assert built == edited
    assert result.rule == "small_change"

    monkeypatch.setattr("condenser.corpus.parse_java", parse_java_oracle)
    expected = condense_commit(commit)
    assert (result.template, result.change_type, result.rule) == (expected.template, expected.change_type, expected.rule)


@pytest.fixture
def built_comments(monkeypatch) -> list[str]:
    """Attachments of the comment facts built, in order."""
    calls: list[str] = []
    build = javafacts._comment_facts

    def spy(kind, text, attachment):
        calls.append(attachment)
        return build(kind, text, attachment)

    monkeypatch.setattr(javafacts, "_comment_facts", spy)
    return calls


def test_parsing_builds_no_body_comments(built_comments):
    facts = parse_java(_roadmap_source())
    methods = facts.classes[0].methods
    assert sum(len(m.body_comments) for m in methods) > 1000
    assert built_comments == [c.attachment for c in facts.comments]
    assert not any(a.startswith("inline:") for a in built_comments)
    method = next(m for m in methods if m.body_comments)
    built_comments.clear()
    assert len(method.inline_comments) == len(method.body_comments)
    assert method.inline_comments is method.inline_comments
    assert built_comments == [f"inline:{facts.classes[0].name}.{method.name}"] * len(method.body_comments)


def test_one_statement_edit_builds_only_the_edited_methods_comments(built_comments):
    gen = javagen.JavaGen(random.Random(1))
    old = javagen.roadmap_file(gen)
    new = copy.deepcopy(old)
    new.classes[0].methods[10].body[3] = gen.simple_stmt()
    path = "src/main/java/LargeGeneratedService.java"
    commit = CommitInput("acme/large", "0123456789ab", (FilePair(path, path, javagen.render(old), javagen.render(new)),))
    condense_commit(commit)
    inline = {a for a in built_comments if a.startswith("inline:")}
    assert inline == {f"inline:{old.classes[0].name}.{old.classes[0].methods[10].name}"}


def test_fixture_inline_change_statements_match_oracle():
    checked = 0
    for commit in COMMITS:
        for pair in commit["files"]:
            old_src, new_src = pair["content_old"], pair["content_new"]
            if not (old_src and new_src and (pair["path_new"] or "").endswith(".java")):
                continue
            try:
                old, new = parse_java(old_src), parse_java(new_src)
            except ParseError:
                continue
            oracle = {}  # id of a method of old or new -> the original's method at its start
            for facts, src in ((old, old_src), (new, new_src)):
                by_start = {m.byte_range[0]: m for _q, c in parse_java_oracle(src).all_classes() for m in c.methods}
                oracle.update((id(m), by_start[start]) for start, m, _body, _end in method_spans(facts))
            for ic in diff_facts(old, new).files[0].inline_changes:
                assert ic.old.body_statements == oracle[id(ic.old)].body_statements
                assert ic.new.body_statements == oracle[id(ic.new)].body_statements
                checked += 1
    assert checked >= 10


# --- statements built in pairs -------------------------------------------------
#
# A matched method's two bodies are built together, segment by segment, each
# segment text they hold built once (javafacts._paired_statements).  The
# whole-body scan of each side (javafacts._body_statements) is the reference:
# statements and any ParseError must be the same, old side first.


def _outcome(build):
    try:
        return build()
    except ParseError as exc:
        return ("error", exc.line, exc.message)


def _assert_pair_like_whole_scans(old_body: str, new_body: str) -> None:
    expected = _outcome(lambda: (javafacts._body_statements(old_body), javafacts._body_statements(new_body)))
    got = _outcome(lambda: javafacts._paired_statements(old_body, new_body))
    assert got == expected, (old_body, new_body)


def _assert_diff_pairs_like_whole_scans(old_src: str, new_src: str) -> int:
    """Diff two parsed versions through the real call site; every method
    whose body changed must hold the whole-body statements on each side.
    Returns the number of such methods."""
    fd = diff_facts(parse_java(old_src), parse_java(new_src)).files[0]
    for _cname, old, new in fd.body_changed:
        for method in (old, new):
            whole = javafacts._body_statements(method.body_text) if method.body_text else ()
            assert method.body_statements == whole
    return len(fd.body_changed)


# Each construct sits between statements that are edited, kept and edited
# again, so that its segments are either taken from the other side or built
# anew.  The variants of one construct are paired with each other: the
# second gives a keyword statement its ';' or turns a label into a word, so
# that only one side's statement runs across a cut.
_PAIR_CONSTRUCTS = [
    ("a ) ; ( b ; c ;",),  # a ')' out of turn: no cut after it
    ("a [ ; b ; c ;",),  # an unclosed '['
    ("m ( ] ; n ) ; o ;",),  # a ']' that does not close the '('
    ("{ return ( } ; case ) ; z ( : q ) ;", "{ return ( } ; cash ) ; z ( : q ) ;"),  # a '}' closes a '('
    ("for (;;) { k++; }",),
    ('String s = "};{"; char c = \';\'; // ; { }\n /* ; } { */ t();',),
    ("Runnable r = () -> { a(); b(); }; r.run();",),
    ("Object o = new Object() { void f() { g(); } }; use(o);",),
    ("int y = switch (x) { case 1 -> 2; default -> { yield 3; } }; use(y);",),
    ("case 1: one(); default: two();",),  # a 'case' label starting a segment
    ("if (a) x(); else y(); do x(); while (c);",),
    ("out: for (;;) { break out; } done();",),
    ("if (a) { return x } ; y ;", "if (a) { return x ; } ; y ;"),  # a keyword statement without its ';'
    ("if (a) { return new A() { } } ; y ;", "if (a) { return new A() { } ; } ; y ;"),
    ("{ throw e } ; y ;", "{ throw e ; } ; y ;"),
    # heads of segments that may or may not be one statement alone
    ("out: while (c) i++;",),  # a label before a control keyword
    ("lbl: x++;",),  # a label before anything else is part of the statement
    ("; ;",),
    ("yield v;",),
    ('assert a : "m";',),
    ("f = y -> y + 1;",),
    ("Map<K, V> m = f();",),
    ("café = 1;",),  # 'é' is a token of its own
    ('s = "{ // }";',),  # a brace and a comment opener inside a literal
    ("if (a) return;",),
]


@pytest.mark.parametrize("variants", _PAIR_CONSTRUCTS, ids=lambda variants: variants[0])
def test_fixed_pairs_build_like_whole_scans(variants):
    bodies = []
    for construct in variants:
        for head, tail in (("a();", "z();"), ("b();", "z();"), ("a();", "w();")):
            bodies.append(f"{{\n    {head}\n    {construct}\n    k();\n    {tail}\n  }}")
            bodies.append(f"{{ {head} {construct} k(); {tail} }}")
    for old in bodies:
        for new in bodies:
            _assert_pair_like_whole_scans(old, new)


@pytest.mark.parametrize("tail", ["", "\n  ", "\x1c", "\u00a0\n", "if (a) { b(); }", "return x", "a ) ; b ;"])
def test_last_segments_build_like_whole_scans(tail):
    # the segment after the last cut runs to the '}'; only ' \t\r\f\v\n'
    # is whitespace to the lexer, so a '\x1c' or a no-break space is a token
    for old, new in (("a();", "b();"), ("a();", "a();")):
        _assert_pair_like_whole_scans(f"{{ {old} k(); {tail}}}", f"{{ {new} k(); {tail}}}")


@st.composite
def _edited_scanner_bodies(draw) -> tuple[str, str]:
    """Two bodies made of the same _SCANNER_BODY parts, some of them
    inserted, deleted or replaced in the second."""
    parts = draw(st.lists(_SCANNER_BODY, min_size=1, max_size=6))
    edited = list(parts)
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(edited)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op == "insert" or not edited:
            edited.insert(k, draw(_SCANNER_BODY))
        elif op == "delete":
            del edited[min(k, len(edited) - 1)]
        else:
            edited[min(k, len(edited) - 1)] = draw(_SCANNER_BODY)
    sep = draw(st.sampled_from([";\n", "\n", " ; ", " "]))
    return "{\n" + sep.join(parts) + "\n}", "{\n" + sep.join(edited) + "\n}"


@settings(max_examples=400, deadline=None)
@given(_edited_scanner_bodies())
def test_edited_scanner_rule_bodies_build_like_whole_scans(bodies):
    old, new = bodies
    _assert_pair_like_whole_scans(old, new)
    _assert_pair_like_whole_scans(new, old)


@settings(max_examples=300, deadline=None)
@given(_SCANNER_BODY, st.data())
def test_bodies_with_a_span_deleted_build_like_whole_scans(body, data):
    # a deletion may leave brackets unbalanced or a literal open
    old = "{\n" + body + "\n}"
    start = data.draw(st.integers(1, len(old) - 1))
    end = data.draw(st.integers(start, len(old) - 1))
    new = old[:start] + old[end:]
    _assert_pair_like_whole_scans(old, new)
    _assert_pair_like_whole_scans(new, old)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["corpus-typical", "rewrite-heavy"])
def test_benchmark_pairs_build_like_whole_scans(workload, seed, benchmark_input):
    checked = 0
    for line in (benchmark_input(workload, seed)["dir"] / "corpus.jsonl").read_text(encoding="utf-8").splitlines():
        for pair in json.loads(line)["files"]:
            old_src, new_src = pair["content_old"], pair["content_new"]
            if not (old_src and new_src and pair["path_new"].endswith(".java")):
                continue
            try:
                checked += _assert_diff_pairs_like_whole_scans(old_src, new_src)
            except ParseError:
                continue  # the Java 16+ commits
    assert checked >= (4 if workload == "rewrite-heavy" else 20)


def test_a_long_body_decodes_only_its_non_flat_segments(monkeypatch):
    flat = [f"    v{k} = combine(v{k - 1}, {k});" for k in range(1, 301)]
    block = "    { reset(); }\n    tick();"  # one segment: the ';' in the braces is no cut
    loop = "    for (int i = 0; i < 3; i++) { v1 += i; }"  # the last segment, which runs to the '}'
    nested = flat[:100] + [block] + flat[100:200] + [block] + flat[200:] + [loop]
    for lines, non_flat in ((flat, []), (nested, ["\n" + block, "\n" + loop + "\n  "])):
        old_src = "class Long {\n  void run() {\n" + "\n".join(lines) + "\n  }\n}\n"
        new_src = old_src.replace(flat[150], flat[150].replace(");", ") + 1;"))
        old, new = parse_java(old_src), parse_java(new_src)
        decoded: list[str] = []
        decode = javafacts._decode

        def spy(text, pos, endpos):
            decoded.append(text[pos:endpos])
            return decode(text, pos, endpos)

        monkeypatch.setattr(javafacts, "_decode", spy)
        (change,) = diff_facts(old, new).files[0].inline_changes
        # a flat segment is tokenized without _decode; each other segment
        # text the two bodies hold is decoded once
        assert decoded == non_flat
        assert [(o.text, n.text) for o, n in change.stmt_modified] == [
            ("v151 = combine(v150, 151);", "v151 = combine(v150, 151) + 1;")
        ]
        monkeypatch.undo()
        for method in (change.old, change.new):
            assert method.body_statements == javafacts._body_statements(method.body_text)
