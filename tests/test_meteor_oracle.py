"""The METEOR chunk search and its greedy initial alignment against the
exhaustive enumeration and the recursive originals kept in oracles.py.

Vocabularies of two to four words make duplicates common, which is where
the chunk search has choices to make and where the original hit its node
cap.  Where the original stopped at its cap its chunk count is only an upper
bound, so there the search may find fewer chunks but never more.  Forced
pairs, where every shared word occurs once on each side, are scored from the
search's lower bound alone; they are checked apart, up to 128 tokens.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import workloads
from condenser import metrics
from condenser.metrics import _greedy_chunks, _meteor_search, tokenize_message
from oracles import greedy_chunks_oracle, meteor_alignment_oracle, meteor_search_oracle

_WORDS = ("a", "b", "c", "d")


def _pairs(min_size: int, max_size: int, vocab_sizes: tuple[int, int] = (2, 4)):
    def over(vocab: int):
        tokens = st.lists(st.sampled_from(_WORDS[:vocab]), min_size=min_size, max_size=max_size).map(tuple)
        return st.tuples(tokens, tokens)

    return st.integers(*vocab_sizes).flatmap(over)


@settings(max_examples=300, deadline=None)
@given(_pairs(1, 8))
def test_alignment_matches_exhaustive_enumeration(pair):
    candidate, reference = pair
    assert _meteor_search(candidate, reference)[:2] == meteor_alignment_oracle(candidate, reference)


@settings(max_examples=40, deadline=None)
@given(_pairs(10, 24))
def test_search_matches_the_original_wherever_it_finished(pair):
    candidate, reference = pair
    matches, chunks, _ = _meteor_search(candidate, reference)
    old_matches, old_chunks, old_capped = meteor_search_oracle(candidate, reference)
    assert matches == old_matches
    if old_capped:
        assert chunks <= old_chunks
    else:
        assert chunks == old_chunks


def _assert_greedy_matches_the_original(candidate: tuple[str, ...], reference: tuple[str, ...]) -> None:
    ref_positions: dict[str, list[int]] = {}
    for j, token in enumerate(reference):
        ref_positions.setdefault(token, []).append(j)
    ref_counts = Counter(reference)
    target = sum(min(count, ref_counts[token]) for token, count in Counter(candidate).items())
    assert _greedy_chunks(candidate, reference, ref_positions, target) == greedy_chunks_oracle(
        candidate, reference, target
    )


# run-cutting only matters once several long runs cross, so sides go up to
# 120 tokens
@settings(max_examples=500, deadline=None)
@given(_pairs(0, 120, (1, 4)))
def test_greedy_chunks_match_the_original(pair):
    _assert_greedy_matches_the_original(*pair)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_greedy_chunks_match_the_original_on_benchmark_pairs(seed, tmp_path):
    """Every non-forced eval-messages pair.  The golden digests do not pin
    the greedy: an uncapped search reaches the same optimum from any valid
    bound."""
    built = workloads.build("eval-messages", seed, "full", tmp_path)
    checked = 0
    for c, r in built["pairs"]:
        candidate, reference = tokenize_message(c).tokens, tokenize_message(r).tokens
        shared = set(candidate) & set(reference)
        if all(candidate.count(t) == 1 == reference.count(t) for t in shared):
            continue  # forced: scored without the greedy
        _assert_greedy_matches_the_original(candidate, reference)
        checked += 1
    assert checked > 200


class _GreedyRan(Exception):
    pass


def _refuse_greedy(*args):
    raise _GreedyRan(args)


@st.composite
def _forced_pairs(draw):
    """Two orders of the same distinct words, each side with repeatable
    words of its own inserted, at most 128 tokens a side."""
    shared = [f"w{i}" for i in range(draw(st.integers(0, 100)))]
    sides = []
    for own in (("x", "y"), ("p", "q")):
        tokens = list(draw(st.permutations(shared)))
        inserts = draw(st.lists(st.tuples(st.integers(0, 128), st.sampled_from(own)), max_size=128 - len(tokens)))
        for position, word in inserts:
            tokens.insert(position % (len(tokens) + 1), word)
        sides.append(tuple(tokens))
    return tuple(sides)


@settings(max_examples=200, deadline=None)
@given(_forced_pairs())
def test_forced_pairs_match_the_original_without_a_search(pair):
    candidate, reference = pair
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "_greedy_chunks", _refuse_greedy)
        result = _meteor_search(candidate, reference)
    assert result == meteor_search_oracle(candidate, reference)
    assert not result[2]


@pytest.mark.parametrize(
    "candidate,reference",
    [
        (("a", "b", "a"), ("a", "a", "b")),
        # repeated in the reference only: both candidate bigrams occur there,
        # yet no alignment makes one chunk
        (("a", "b", "c"), ("a", "b", "b", "c")),
    ],
)
def test_a_repeated_shared_token_still_runs_the_search(candidate, reference, monkeypatch):
    assert _meteor_search(candidate, reference) == meteor_search_oracle(candidate, reference)
    monkeypatch.setattr(metrics, "_greedy_chunks", _refuse_greedy)
    with pytest.raises(_GreedyRan):
        _meteor_search(candidate, reference)
