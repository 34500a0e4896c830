"""The METEOR chunk search and its greedy initial alignment against the
exhaustive enumeration and the recursive originals kept in oracles.py.

Vocabularies of two to four words make duplicates common, which is where
the chunk search has choices to make and where the original hit its node
cap.  Where the original stopped at its cap its chunk count is only an upper
bound, so there the search may find fewer chunks but never more.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from condenser.metrics import _greedy_chunks, _meteor_search, meteor_alignment
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
    assert meteor_alignment(candidate, reference) == meteor_alignment_oracle(candidate, reference)


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


@settings(max_examples=500, deadline=None)
@given(_pairs(0, 30, (1, 4)))
def test_greedy_chunks_match_the_original(pair):
    candidate, reference = pair
    ref_counts = Counter(reference)
    target = sum(min(count, ref_counts[token]) for token, count in Counter(candidate).items())
    assert _greedy_chunks(candidate, reference, target) == greedy_chunks_oracle(candidate, reference, target)

