"""The new version of a file parsed against its old version, against the
new version parsed alone, which is the oracle.

parse_java(new, path, (old, old_facts)) takes each method the edit left
whole from the old facts instead of parsing it again.  Every fact must be
what parse_java(new, path) gives, including the fields no equality compares
(a method's owner, body comments and count of comments before its body),
with every body_statements and inline_comments read, and
SourceFacts.comments; a ParseError must carry the same line and message.
This is checked on every fixture pair, on the benchmark's corpus-typical and
rewrite-heavy pairs of seeds 1-3, and on generated edits of fixture and
generated sources: a member inserted or deleted, the first or last member
edited, a class header or the package and imports edited, a comment put
just before a member, a block comment or a string opened so that it closes
in the text after the edit, a member that duplicates a later one, an
unbalanced brace, and random pieces of Java spliced in anywhere.

On the pairs that parse, the pair parse itself must succeed, not fall back
to a parse of the new version alone, and on the benchmark's 256 KB file it
must parse no more methods than the edit's window holds.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import workloads
from condenser import javafacts
from condenser.javafacts import MethodFacts, ParseError, parse_java
from corpusdata import COMMITS
from test_lexer_oracle import _PIECE, FIXTURE_SOURCES, _program_source
from typefixtures import ALL_TYPE_FIXTURES


def _plain(value):
    """Facts as nested tuples of every field, with each method's
    statements and inline comments read."""
    if isinstance(value, (tuple, list)):
        return tuple(_plain(v) for v in value)
    if isinstance(value, MethodFacts):
        return (
            "method", _plain(value.decl), value.byte_range, value.body_line, value.comments_before,
            _plain(value.body_statements), _plain(value.inline_comments),
        )
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(_plain(getattr(value, f.name)) for f in dataclasses.fields(value))
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


def test_a_class_body_whose_text_was_a_method_body_falls_back():
    # the coarse scan steps over B's body, the text of the old m's body, and
    # leaves the braces inside it out of its map; g's body is one of them
    old = "class A {\n  void m() { class L { void g() { x(); } } }\n}\n"
    new = "class A {\n  void m() { }\n  class B { class L { void g() { x(); } } }\n}\n"
    with pytest.raises(ParseError, match="brace not in the layout"):
        javafacts._parse_java(new, "<memory>", (old, parse_java(old)))
    assert _assert_pair_parses_like_alone(old, new)
    assert [c.name for c in parse_java(new, "<memory>", (old, parse_java(old))).classes[0].inner_classes] == ["B"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_pairs_parse_like_alone(seed, tmp_path):
    pairs = []
    for workload in ("corpus-typical", "rewrite-heavy"):
        built = workloads.build(workload, seed, "full", tmp_path / workload)
        corpus = built["argv"][built["argv"].index("--corpus") + 1]
        with open(corpus, encoding="utf-8") as fh:
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
])

_KINDS = (
    "insert", "delete", "edit_first", "edit_last", "class_header", "package", "imports", "comment_before",
    "open_comment", "open_string", "duplicate", "brace", "splice",
)


@st.composite
def _edited_pair(draw) -> tuple[str, str]:
    source = draw(st.one_of(st.sampled_from(_EDITABLE), _program_source().filter(_parsed_with_methods)))
    facts = parse_java(source)
    methods = sorted((m for _q, c in facts.all_classes() for m in c.methods), key=lambda m: m.byte_range)
    kind = draw(st.sampled_from(_KINDS))
    k = draw(st.integers(0, len(methods) - 1))
    start, end = methods[k].byte_range

    def insert(at: int, text: str) -> str:
        return source[:at] + text + source[at:]

    def into_body(m: MethodFacts, text: str) -> str:
        if not m.body_text:
            return insert(m.byte_range[0], text)
        return insert(m.byte_range[1] - len(m.body_text) + 1, text)

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
        new = insert(start, source[slice(*later.byte_range)] + "\n    ")
    elif kind == "brace":
        new = insert(draw(st.sampled_from([start, end])), draw(st.sampled_from(["{", "}", "{ }"])))
    else:
        new = insert(draw(st.integers(0, len(source))), "".join(draw(st.lists(_PIECE, min_size=1, max_size=4))))
    return source, new


@settings(max_examples=500, deadline=None)
@given(_edited_pair())
def test_edited_sources_parse_like_alone(pair):
    old, new = pair
    assert _assert_pair_parses_like_alone(old, new)
    assert _assert_pair_parses_like_alone(new, old) in (True, False)


# --- how much is parsed -----------------------------------------------------------


def test_large_file_parses_only_the_methods_in_the_window(tmp_path, monkeypatch):
    built = workloads.build("corpus-typical", 1, "full", tmp_path)
    with open(built["argv"][built["argv"].index("--corpus") + 1], encoding="utf-8") as fh:
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
    window = [m for m in methods if m.byte_range[1] > prefix and m.byte_range[0] < len(new) - suffix]
    assert len(methods) > 200 and len(parsed) <= len(window) < 5
