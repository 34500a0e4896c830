"""Comment elicitation through the structural diff against the whole-file
original kept in oracles.py.

The original attached every comment of both versions and set-differenced
them all by (normalized text, attachment).  elicit_comments reads a method's
inline comments only where the diff adds, removes or re-bodies a method of
that name, and maps old attachments through the diff's class renames.  Its
output must equal the original's, every method's inline comments read or
none, on every Java file pair of the fixture corpus, of the benchmark's
generated corpora for seeds 1-3, and on generated programs.

Two behaviours differ on purpose, and a pair that shows either is left out
by _differs_on_purpose, which names the reason; the tests count what it
leaves out.  A comment inside a method body belongs to that body, where the
original attached it to a declaration starting within two lines below it;
and a renamed class's unchanged comments are no longer added and removed.
Both are pinned by tests in test_comments.py.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import given, settings

from condenser.changeset import FileDiff, diff_facts
from condenser.comments import elicit_comments
from condenser.javafacts import (
    ParseError,
    SourceFacts,
    _lex,
    merge_inline_comments,
    parse_java,
)
from corpusdata import COMMITS
from oracles import elicit_comments_oracle, sweep_attachments_oracle
from test_lexer_oracle import _program_source, oracle_decl_index, without_body_comments_attached_below
from typefixtures import ALL_TYPE_FIXTURES


def _parsed(source: str | None) -> SourceFacts | None:
    if not source:
        return SourceFacts.empty()
    try:
        return parse_java(source)
    except ParseError:
        return None


def _methods(facts: SourceFacts):
    return [m for _q, cls in facts.all_classes() for m in cls.methods]


def _oracle_facts(source: str | None, facts: SourceFacts) -> tuple[SourceFacts, int]:
    """The facts with every comment attached by the original resolver, and
    how many body comments it attached to a declaration below them."""
    if not source:
        return facts, 0
    expected = sweep_attachments_oracle(_lex(source)[1], oracle_decl_index(source, facts))[0]
    merged = merge_inline_comments(facts, _methods(facts))
    _got, _expected, dropped = without_body_comments_attached_below(source, facts, merged, expected)
    return SourceFacts(None, (), (), tuple(expected)), dropped


def _differs_on_purpose(fd: FileDiff, body_comments_below: int) -> str | None:
    """Why the original's output may differ on this pair, or None."""
    if body_comments_below:
        return "body comment attached below"
    if fd.class_renamed:
        return "class renamed"
    return None


def _compare(old_src: str | None, new_src: str | None, left_out: Counter) -> bool:
    """Compare one file pair, with and without every inline comment read;
    False when a side does not parse."""
    old, new = _parsed(old_src), _parsed(new_src)
    if old is None or new is None:
        return False
    diff = diff_facts(old, new, "F.java", "F.java")
    got = elicit_comments(old, new, diff)
    old_oracle, old_below = _oracle_facts(old_src, old)
    new_oracle, new_below = _oracle_facts(new_src, new)
    reason = _differs_on_purpose(diff.files[0], old_below + new_below)
    if reason is not None:
        left_out[reason] += 1
        return True
    left_out["compared"] += 1
    expected = elicit_comments_oracle(old_oracle, new_oracle, diff)
    assert got == expected, (old_src, new_src)
    for m in _methods(old) + _methods(new):
        m.inline_comments
    assert elicit_comments(old, new, diff) == expected, (old_src, new_src)
    return True


def _java_pairs(records) -> list[tuple[str | None, str | None]]:
    return [
        (f["content_old"], f["content_new"])
        for record in records
        for f in record["files"]
        if (f["path_new"] or f["path_old"]).endswith(".java")
    ]


FIXTURE_PAIRS = _java_pairs(COMMITS) + [(old, new) for _kind, old, new in ALL_TYPE_FIXTURES]


def test_fixture_commits_elicit_like_oracle():
    left_out: Counter = Counter()
    compared = [pair for pair in FIXTURE_PAIRS if _compare(*pair, left_out)]
    assert len(compared) > 15
    assert left_out == Counter({"compared": len(compared)})


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_corpora_elicit_like_oracle(seed, benchmark_input):
    pairs = []
    for workload in ("corpus-typical", "rewrite-heavy"):
        corpus = benchmark_input(workload, seed)["dir"] / "corpus.jsonl"
        records = [json.loads(line) for line in corpus.read_text(encoding="utf-8").splitlines()]
        pairs += _java_pairs(records)
    left_out: Counter = Counter()
    compared = [pair for pair in pairs if _compare(*pair, left_out)]
    assert len(compared) >= 50
    assert left_out == Counter({"compared": len(compared)})


@settings(max_examples=200, deadline=None)
@given(_program_source(), _program_source())
def test_program_pairs_elicit_like_oracle(old_src, new_src):
    left_out: Counter = Counter()
    assert _compare(old_src, new_src, left_out)
    assert _compare(old_src, old_src, left_out)


# --- symmetry -----------------------------------------------------------------


def _elicited(old: SourceFacts, new: SourceFacts) -> tuple[list, list, FileDiff]:
    diff = diff_facts(old, new, "F.java", "F.java")
    fd = diff.files[0]
    comments = elicit_comments(old, new, diff)
    # a renamed class's attachments name the new class, which differs by direction
    keep = (lambda c: (c.category, c.text)) if fd.class_renamed else (lambda c: (c.category, c.text, c.attachment))
    return (
        [keep(c) for c in comments if c.origin == "added"],
        [keep(c) for c in comments if c.origin == "removed"],
        fd,
    )


def test_swapping_versions_swaps_added_and_removed():
    checked = 0
    for old_src, new_src in FIXTURE_PAIRS:
        old, new = _parsed(old_src), _parsed(new_src)
        if old is None or new is None:
            continue
        added, removed, _fd = _elicited(old, new)
        back_added, back_removed, _fd = _elicited(new, old)
        assert (added, removed) == (back_removed, back_added), (old_src, new_src)
        for same in (old, new):
            assert elicit_comments(same, same, diff_facts(same, same, "F.java", "F.java")) == []
        checked += 1
    assert checked > 15

