"""The new version of a file parsed against its old version, against the
new version parsed alone, which is the oracle.

parse_java(new, path, (old, old_facts)) steps over the text the edit left
whole and takes its facts from the old facts instead of parsing it again.
Every fact must be what parse_java(new, path) gives, including the fields no
equality compares (a method's owner and body comments, and the positions a
class and a file record), with every body_statements and inline_comments
read, and SourceFacts.comments; a
ParseError must carry the same line and message.  This is checked on every
fixture pair, on the benchmark's corpus-typical and rewrite-heavy pairs of
seeds 1-3, and on generated edits of fixture and generated sources: a member
inserted, deleted or moved within its class, a field edited, inserted or
deleted, the first or last method edited, an enum constant edited, an edit
inside an inner class, a class header or the package and imports edited, a
comment put just before a member or kept inside text the edit left whole, a
block comment or a string opened so that it closes in the text after the
edit, a member that duplicates a later one, an unbalanced brace, random
pieces of Java spliced in anywhere, and no edit at all.

On the pairs that parse, the pair parse itself must succeed, not fall back
to a parse of the new version alone; on the benchmark's 256 KB file it must
parse no more methods than the edit's window holds, and for a one-method
edit it must lex nothing outside the edited member and the class headers.
"""

from __future__ import annotations

import dataclasses
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condenser import javafacts
from condenser.javafacts import MethodFacts, ParseError, parse_java
from corpusdata import COMMITS
from test_lexer_oracle import _PIECE, FIXTURE_SOURCES, _program_source, method_spans
from typefixtures import ALL_TYPE_FIXTURES


def _plain(value):
    """Facts as nested tuples of every field, with each method's
    statements and inline comments read."""
    if isinstance(value, (tuple, list)):
        return tuple(_plain(v) for v in value)
    if dataclasses.is_dataclass(value):
        plain = (type(value).__name__,) + tuple(_plain(getattr(value, f.name)) for f in dataclasses.fields(value))
        if isinstance(value, MethodFacts):
            plain += (_plain(value.body_statements), _plain(value.inline_comments))
        return plain
    return value


def _outcome(parse):
    try:
        return _plain(parse())
    except ParseError as exc:
        return ("error", exc.line, exc.message)


def _assert_pair_parses_like_alone(old: str, new: str, path: str = "<memory>", direct: bool = False) -> bool:
    """Compare the pair parse of new with the parse of new alone; False
    when old does not parse.  With direct, the pair parse must not fall
    back to the parse alone where that succeeds."""
    try:
        old_facts = parse_java(old, path)
    except ParseError:
        return False
    expected = _outcome(lambda: parse_java(new, path))
    assert _outcome(lambda: parse_java(new, path, (old, old_facts))) == expected, (old, new)
    if direct and expected[0] != "error":
        assert _outcome(lambda: javafacts._parse_java(new, path, (old, old_facts))) == expected, (old, new)
    return True


def _java_pairs(records) -> list[tuple[str, str, str]]:
    return [
        (f["content_old"], f["content_new"], f["path_new"])
        for record in records
        for f in record["files"]
        if f["content_old"] and f["content_new"] and f["path_new"].endswith(".java")
    ]


def test_fixture_pairs_parse_like_alone():
    pairs = _java_pairs(COMMITS) + [(old, new, "<memory>") for _kind, old, new in ALL_TYPE_FIXTURES]
    checked = sum(
        _assert_pair_parses_like_alone(a, b, path, direct=True) for old, new, path in pairs for a, b in ((old, new), (new, old))
    )
    assert checked > 40


def test_a_class_body_whose_text_was_an_old_method_body_parses_directly():
    # only members are stepped over, so B's body, the text of the old m's
    # body, is scanned and parsed like any new text
    old = "class A {\n  void m() { class L { void g() { x(); } } }\n}\n"
    new = "class A {\n  void m() { }\n  class B { class L { void g() { x(); } } }\n}\n"
    assert _assert_pair_parses_like_alone(old, new, direct=True)
    assert [c.name for c in parse_java(new, "<memory>", (old, parse_java(old))).classes[0].inner_classes] == ["B"]


def test_text_whose_braces_pair_with_text_outside_its_member_is_not_stepped_over():
    # b's '{' pairs with the '}' of A in the coarse scan, and c's '}' with the
    # '{' of B; once c is edited the braces no longer balance
    old = "class A { int b = {); } class B { int c = (}; }\n"
    new = "class A { int b = {); } class B { int c = 1; }\n"
    assert [c.members for c in parse_java(old).classes] == [(), ()]
    assert _assert_pair_parses_like_alone(old, new)
    with pytest.raises(ParseError, match="unbalanced"):
        javafacts._parse_java(new, "<memory>", (old, parse_java(old)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_pairs_parse_like_alone(seed, benchmark_input):
    pairs = []
    for workload in ("corpus-typical", "rewrite-heavy"):
        with open(benchmark_input(workload, seed)["dir"] / "corpus.jsonl", encoding="utf-8") as fh:
            pairs += _java_pairs(json.loads(line) for line in fh)
    assert sum(_assert_pair_parses_like_alone(old, new, path, direct=True) for old, new, path in pairs) > 45


# --- generated edits ------------------------------------------------------------


def _parsed_with_methods(source: str) -> bool:
    try:
        return any(c.methods for _q, c in parse_java(source).all_classes())
    except ParseError:
        return False


_EDITABLE = [source for source in FIXTURE_SOURCES if _parsed_with_methods(source)]

_MEMBER = st.sampled_from([
    "void added() { x(); }\n    ",
    "int added;\n    ",
    "/** Doc. */\n    public String added(int k) throws E { return k; }\n    ",
    "static { y(); }\n    ",
    "class Added { void z() { } }\n    ",
    "enum AddedKind { P, Q(1) { void r() { } }; int s; }\n    ",
])

_KINDS = (
    "insert", "delete", "edit_first", "edit_last", "class_header", "package", "imports", "comment_before",
    "open_comment", "open_string", "duplicate", "brace", "splice",
    "field", "move", "enum_constant", "inner", "comment_in_run", "identical",
)


def _class_starts(facts) -> dict[str, int]:
    """The offset of each class's first token, by qualified name; a class's
    member offsets count from it."""
    return {label[6:]: start for start, label, _b0, _b1 in facts.decls if label.startswith("class:")}


def _member_spans(facts) -> list[tuple[str, str, int, int]]:
    """(class qname, what, start, end) of each member of each class body,
    what being 'field', 'method', 'class' or 'other' (an enum's constants,
    an initializer or a ';')."""
    out = []
    class_starts = _class_starts(facts)
    for qname, cls in facts.all_classes():
        s = class_starts[qname]
        for (start, end, f, m, i), after in zip(cls.members, cls.members[1:]):
            what = "field" if after[2] > f else "method" if after[3] > m else "class" if after[4] > i else "other"
            out.append((qname, what, start + s, end + s))
    return out


@st.composite
def _edited_pair(draw, kind: str) -> tuple[str, str]:
    source = draw(st.one_of(st.sampled_from(_EDITABLE), _program_source().filter(_parsed_with_methods)))
    facts = parse_java(source)
    methods = method_spans(facts)
    k = draw(st.integers(0, len(methods) - 1))
    start, _m, _body, end = methods[k]

    def insert(at: int, text: str) -> str:
        return source[:at] + text + source[at:]

    def into_body(span: tuple[int, MethodFacts, int, int], text: str) -> str:
        start, m, body, _end = span
        return insert(body + 1 if m.body_text else start, text)

    if kind == "insert":
        new = insert(draw(st.sampled_from([start, end])), draw(_MEMBER))
    elif kind == "delete":
        new = source[:start] + source[end:]
    elif kind == "edit_first":
        new = into_body(methods[0], " edited(); ")
    elif kind == "edit_last":
        new = into_body(methods[-1], " edited(); ")
    elif kind == "class_header":
        name = facts.classes[0].name
        new = source.replace(f" {name} ", f" {name}Renamed ", 1) if draw(st.booleans()) else source.replace(
            f" {name} ", f" {name} implements Edited ", 1
        )
    elif kind == "package":
        new = source.replace("package ", "package moved.", 1) if "package " in source else "package moved;\n" + source
    elif kind == "imports":
        new = insert(source.find("\n", source.find("package ")) + 1 if "package " in source else 0, "import a.B;\n")
    elif kind == "comment_before":
        new = insert(start, draw(st.sampled_from(["/** Doc. */\n    ", "// note\n    ", "/* a */ "])))
    elif kind == "open_comment":
        new = insert(draw(st.integers(0, start)), "/*")
    elif kind == "open_string":
        new = insert(draw(st.integers(0, start)), draw(st.sampled_from(['"', "'", 'String s = "'])))
    elif kind == "duplicate":
        later = methods[draw(st.integers(k, len(methods) - 1))]
        new = insert(start, source[later[0] : later[3]] + "\n    ")
    elif kind == "brace":
        new = insert(draw(st.sampled_from([start, end])), draw(st.sampled_from(["{", "}", "{ }"])))
    elif kind == "field":
        fields = [(a, b) for _q, what, a, b in _member_spans(facts) if what == "field"]
        op = draw(st.sampled_from(["edit", "delete", "insert"])) if fields else "insert"
        if op == "insert":
            new = insert(draw(st.sampled_from([start, end])), "int addedField = 3;\n    ")
        else:
            a, b = draw(st.sampled_from(fields))
            new = source[:a] + source[b:] if op == "delete" else insert(b - 1, "Edited")
    elif kind == "move":
        spans = _member_spans(facts)
        qname, _what, a, b = draw(st.sampled_from(spans))
        targets = [x for q, _w, x, _y in spans if q == qname and x not in range(a, b + 1)]
        if not targets:
            return source, source[:a] + source[b:]
        to = draw(st.sampled_from(targets))
        moved = source[:a] + source[b:]
        to = to - (b - a) if to > a else to
        new = moved[:to] + source[a:b] + "\n    " + moved[to:]
    elif kind == "enum_constant":
        class_starts = _class_starts(facts)
        sections = [
            (q, *c.members[0][:2])
            for q, c in facts.all_classes()
            if c.kind == "enum" and c.members and c.members[0][1] > c.members[0][0]
        ]
        if not sections:
            new = insert(start, "enum AddedKind { P, Q; }\n    ")
        else:
            q, a, b = draw(st.sampled_from(sections))
            a, b = a + class_starts[q], b + class_starts[q]
            name = re.match(r"[A-Za-z_$][\w$]*", source[a:b])
            new = insert(a + name.end(), "Edited") if name else insert(a, "EDITED, ")
    elif kind == "inner":
        inner = [span for span in methods if "." in span[1].owner and span[1].body_text]
        new = into_body(draw(st.sampled_from(inner)), " edited(); ") if inner else insert(
            start, "class Inner { void v() { w(); } int u; }\n    "
        )
    elif kind == "comment_in_run":
        # a comment in both versions, before an edit to the last method
        edited = into_body(methods[-1], " edited(); ")
        at = draw(st.sampled_from([a for _q, _w, a, _b in _member_spans(facts) if a < methods[-1][0]] or [0]))
        comment = draw(st.sampled_from(["/** Kept. */\n    ", "// kept\n    ", "/* kept */ "]))
        return source[:at] + comment + source[at:], edited[:at] + comment + edited[at:]
    elif kind == "identical":
        new = source
    else:
        new = insert(draw(st.integers(0, len(source))), "".join(draw(st.lists(_PIECE, min_size=1, max_size=4))))
    return source, new


# each kind draws its own examples, so that a rare edit runs on every run
@pytest.mark.parametrize("kind", _KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_edited_sources_parse_like_alone(kind, data):
    old, new = data.draw(_edited_pair(kind))
    assert _assert_pair_parses_like_alone(old, new, direct=True)
    assert _assert_pair_parses_like_alone(new, old, direct=True) in (True, False)


# --- how much is parsed -----------------------------------------------------------


def test_a_one_method_edit_decodes_only_the_edited_member(monkeypatch):
    source = max((s for s in _EDITABLE if sum(len(c.methods) for _q, c in parse_java(s).all_classes()) >= 3), key=len)
    facts = parse_java(source)
    methods = [span for span in method_spans(facts) if span[1].body_text]
    edited_start, _m, body, _end = methods[len(methods) // 2]
    new = source[: body + 1] + " edited(); " + source[body + 1 :]
    decoded: list[tuple[int, int]] = []
    decode = javafacts._decode

    def spy(*args, **kwargs):
        columns = decode(*args, **kwargs)
        if columns[2]:
            decoded.append((columns[2][0], columns[3][-1]))
        return columns

    monkeypatch.setattr(javafacts, "_decode", spy)
    got = javafacts._parse_java(new, "<memory>", (source, facts))
    monkeypatch.undo()
    assert _plain(got) == _plain(parse_java(new))
    # class headers, each from its first token through its body's '{', are
    # lexed again; of the members, at most the edited one is
    [edited] = [(a, b) for a, _m, _body, b in method_spans(got) if a == edited_start]
    allowed = [edited] + [(start, body + 1) for start, label, body, _end in got.decls if label.startswith("class:")]
    assert all(any(s <= a and b <= e for s, e in allowed) for a, b in decoded), (decoded, allowed)


@pytest.mark.parametrize(
    "header", ["<T> void m(T t)", "<T> /* c */ T m(T t)", "public <T> void m(T t)", "<T extends A<T>> void m(T t)"]
)
def test_a_body_edit_to_a_generic_method_parses_no_method(header, monkeypatch):
    # without modifiers, the method's declaration starts at its return type,
    # after the member's first token '<'
    old = f"class A {{\n  int f;\n  {header} {{\n    a(t);\n  }}\n  int n() {{ return 1; }}\n}}\n"
    new = old.replace("a(t);", "b(t);")
    old_facts = parse_java(old)
    parsed: list[int] = []
    parse_method_rest = javafacts._Parser.parse_method_rest

    def counting(self, *args):
        parsed.append(self.starts[args[0]])
        return parse_method_rest(self, *args)

    monkeypatch.setattr(javafacts._Parser, "parse_method_rest", counting)
    got = javafacts._parse_java(new, "<memory>", (old, old_facts))
    assert parsed == []
    monkeypatch.undo()
    assert _plain(got) == _plain(parse_java(new))


def test_large_file_parses_only_the_methods_in_the_window(benchmark_input, monkeypatch):
    with open(benchmark_input("corpus-typical", 1)["dir"] / "corpus.jsonl", encoding="utf-8") as fh:
        [(old, new, path)] = [p for p in _java_pairs(json.loads(line) for line in fh) if len(p[1]) > 200_000]
    parsed: list[int] = []
    parse_method_rest = javafacts._Parser.parse_method_rest

    def counting(self, *args):
        parsed.append(self.starts[args[0]])
        return parse_method_rest(self, *args)

    old_facts = parse_java(old, path)
    monkeypatch.setattr(javafacts._Parser, "parse_method_rest", counting)
    facts = javafacts._parse_java(new, path, (old, old_facts))
    methods = [m for _q, c in facts.all_classes() for m in c.methods]
    # the window: what lies between the text the two versions start with and end with
    prefix = next(k for k, (a, b) in enumerate(zip(old, new)) if a != b)
    suffix = next(k for k, (a, b) in enumerate(zip(reversed(old), reversed(new))) if a != b or k == len(new) - prefix)
    window = [a for a, _m, _body, b in method_spans(facts) if b > prefix and a < len(new) - suffix]
    assert len(methods) > 200 and len(parsed) <= len(window) < 5
