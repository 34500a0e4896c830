"""bleu_norm against the Counter-based original kept in oracles.py.

The one-table rewrite must keep every float bit for bit, so scores compare
with ==.  Vocabularies of one to four words make repeated n-grams common,
which is where clipping decides the match count; the benchmark's
eval-messages pairs are the messages the scores are reported on.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import workloads
from condenser.metrics import TokenSeq, bleu_norm, score_corpus, tokenize_message
from oracles import bleu_counter_oracle

_WORDS = ("a", "b", "c", "d")


def _pairs():
    def over(vocab: int):
        def tokens(min_size: int):
            return st.lists(st.sampled_from(_WORDS[:vocab]), min_size=min_size, max_size=40).map(
                lambda t: TokenSeq(tuple(t))
            )

        return st.tuples(tokens(0), tokens(1))

    return st.integers(1, 4).flatmap(over)


@settings(max_examples=600, deadline=None)
@given(_pairs())
def test_bleu_equals_the_counter_original_bit_for_bit(pair):
    candidate, reference = pair
    assert bleu_norm(candidate, reference) == bleu_counter_oracle(candidate, reference)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_pairs_score_like_the_counter_original(seed, tmp_path, monkeypatch):
    built = workloads.build("eval-messages", seed, "full", tmp_path)
    pairs = [(tokenize_message(c), tokenize_message(r)) for c, r in built["pairs"]]
    for candidate, reference in pairs:
        assert bleu_norm(candidate, reference) == bleu_counter_oracle(candidate, reference)
    report = score_corpus(pairs)
    # score_corpus reads bleu_norm through the module global
    monkeypatch.setattr("condenser.metrics.bleu_norm", bleu_counter_oracle)
    assert score_corpus(pairs).as_dict() == report.as_dict()
    assert score_corpus(pairs) == report  # unrounded too
