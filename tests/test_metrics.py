"""Metric tests: oracle agreement, golden values, range and edge properties."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condenser.metrics import (
    EmptyCorpus,
    EmptyInput,
    EmptyReference,
    MetricReport,
    TokenSeq,
    _meteor_search,
    bleu_norm,
    meteor,
    rouge_l,
    score_corpus,
    tokenize_message,
)
from oracles import (
    bleu_oracle,
    lcs_oracle,
    meteor_alignment_oracle,
    meteor_oracle,
    rouge_l_oracle,
    tokenize_message_oracle,
    TokenSeqOracle,
)


def seq(*tokens: str) -> TokenSeq:
    return TokenSeq(tokens=tokens)


# --- tokenize_message ---------------------------------------------------------


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize_message("Add LoggingListener.").tokens == ("add", "logginglistener", ".")


def test_tokenize_empty():
    assert tokenize_message("").tokens == ()


def test_tokenize_collapses_whitespace():
    assert tokenize_message("fix   the\t bug ").tokens == ("fix", "the", "bug")


# characters whose case mapping or class is unusual: U+0130 lowers to two
# characters, capital sigma lowers by context, '²' is a word character that
# does not lower, U+001C is ASCII whitespace that is no space or tab, and
# U+0000 is the separator of TokenSeq's joined check
_ODD = "İΣσςß²\x1c\x00 \t\n.,;-_'"
_TEXT = st.one_of(
    st.text(st.characters(max_codepoint=127)),
    st.text(st.sampled_from("aZ09 .(" + _ODD)),
    st.text(st.one_of(st.characters(), st.sampled_from(_ODD))),
)


@settings(max_examples=300, deadline=None)
@given(_TEXT)
def test_tokenize_matches_the_per_token_original(text):
    assert tokenize_message(text).tokens == tokenize_message_oracle(text).tokens


def _check_outcome(make, tokens):
    try:
        make(tokens=tokens)
    except ValueError as exc:
        return str(exc)
    return None


_TOKEN = st.one_of(st.text(st.sampled_from("az9_.σς²\x00")), st.text(st.sampled_from("aZ9." + _ODD)), st.text())


@settings(max_examples=300, deadline=None)
@given(st.lists(_TOKEN, max_size=5).map(tuple))
def test_token_check_matches_the_per_token_original(tokens):
    assert _check_outcome(TokenSeq, tokens) == _check_outcome(TokenSeqOracle, tokens)


def test_tokenize_keeps_long_messages_whole():
    text = " ".join(f"w{i}" for i in range(200))
    assert len(tokenize_message(text)) == 200  # truncation happens at export only


# --- BLEU-Norm ----------------------------------------------------------------


def test_bleu_identical_four_plus_tokens_is_100():
    s = seq("add", "a", "new", "test", "case")
    assert bleu_norm(s, s) == pytest.approx(100.0, abs=1e-9)


def test_bleu_zero_unigram_overlap_is_0():
    assert bleu_norm(seq("x", "y"), seq("a", "b")) == 0.0


def test_bleu_empty_candidate_is_0():
    assert bleu_norm(TokenSeq(()), seq("a")) == 0.0


def test_bleu_empty_reference_raises():
    with pytest.raises(EmptyReference):
        bleu_norm(seq("a"), TokenSeq(()))


def test_bleu_matches_independent_formula_implementation():
    c = tokenize_message("add new test").tokens
    r = tokenize_message("add a new test").tokens
    assert bleu_norm(TokenSeq(c), TokenSeq(r)) == pytest.approx(bleu_oracle(c, r), abs=1e-9)


# --- ROUGE-L --------------------------------------------------------------------


def test_rouge_identical_is_100():
    s = seq("fix", "the", "bug")
    assert rouge_l(s, s) == pytest.approx(100.0, abs=1e-9)


def test_rouge_disjoint_is_0():
    assert rouge_l(seq("a", "b"), seq("c", "d")) == 0.0


def test_rouge_empty_raises():
    with pytest.raises(EmptyInput):
        rouge_l(TokenSeq(()), seq("a"))
    with pytest.raises(EmptyInput):
        rouge_l(seq("a"), TokenSeq(()))


def test_rouge_lcs_matches_exhaustive_oracle_on_short_pairs():
    random.seed(11)
    alphabet = "abcde"
    for _ in range(300):
        c = tuple(random.choice(alphabet) for _ in range(random.randint(1, 8)))
        r = tuple(random.choice(alphabet) for _ in range(random.randint(1, 8)))
        assert rouge_l(TokenSeq(c), TokenSeq(r)) == pytest.approx(rouge_l_oracle(c, r), abs=1e-9)


def test_rouge_lcs_monotone_under_shared_append():
    random.seed(5)
    for _ in range(100):
        c = tuple(random.choice("abc") for _ in range(random.randint(1, 6)))
        r = tuple(random.choice("abc") for _ in range(random.randint(1, 6)))
        before = lcs_oracle(c, r)
        after = lcs_oracle(c + ("z",), r + ("z",))
        assert after >= before + 1  # the shared token always extends the LCS


def test_rouge_permutation_sensitivity():
    ordered = seq("a", "b", "c", "d")
    shuffled = seq("d", "c", "b", "a")
    assert rouge_l(ordered, ordered) == pytest.approx(100.0)
    assert rouge_l(shuffled, ordered) < 100.0


# --- METEOR ---------------------------------------------------------------------


def test_meteor_identical_penalty_formula():
    # one chunk over m matches: score = (1 - 0.5 * (1/m)^3) * 100
    for m in (1, 2, 5, 7):
        s = TokenSeq(tuple(f"t{i}" for i in range(m)))
        expected = (1 - 0.5 * (1 / m) ** 3) * 100.0
        assert meteor(s, s) == pytest.approx(expected, abs=1e-9)


def test_meteor_zero_matches_is_0():
    assert meteor(seq("a", "b"), seq("c", "d")) == 0.0


def test_meteor_empty_raises():
    with pytest.raises(EmptyInput):
        meteor(TokenSeq(()), seq("a"))


def test_meteor_alignment_matches_exhaustive_oracle_on_6_token_pairs():
    random.seed(13)
    for _ in range(150):
        c = tuple(random.choice("abc") for _ in range(6))
        r = tuple(random.choice("abc") for _ in range(6))
        assert _meteor_search(c, r)[:2] == meteor_alignment_oracle(c, r)


def test_meteor_crossing_alignment_counts_two_chunks():
    # "b a" vs "a b": both tokens match but no adjacency survives
    matches, chunks, _ = _meteor_search(("b", "a"), ("a", "b"))
    assert (matches, chunks) == (2, 2)


@pytest.mark.parametrize("length,position", [(5000, 4950), (1100, 1050)])
def test_meteor_alignment_of_long_near_copy(length, position):
    # one substituted token splits the copy into two chunks; a search that
    # recursed once per candidate position overflowed the stack here
    reference = tuple(f"w{k % 300}" for k in range(length))
    candidate = reference[:position] + ("x",) + reference[position + 1 :]
    assert _meteor_search(candidate, reference)[:2] == (length - 1, 2)


# --- frozen golden suite ---------------------------------------------------------

# Expected scores computed by the brute-force oracles in tests/oracles.py
# (exhaustive subsequence and alignment enumeration, literal BLEU formula)
# and frozen here. Order: candidate, reference, bleu, meteor, rouge_l.
GOLDEN_PAIRS = [
    ("Add LoggingListener to lucene tests", "Add LoggingListener to lucene tests", 100.0, 99.6, 100.0),
    ("fix race condition in scheduler", "fix race in the scheduler", 40.41031009353247, 63.125000000000014, 80.00000000000001),
    ("add new test", "add a new test", 54.44460596606694, 65.52706552706553, 83.56164383561644),
    ("remove unused import", "remove unused imports", 68.65890479690393, 62.49999999999999, 66.66666666666667),
    ("Update readme.", "Update readme.", 100.0, 98.14814814814815, 100.0),
    ("handle callers without callerid", "handle callers without callerid so they display as unknown", 28.650479686019008, 46.69117647058823, 57.54716981132076),
    ("rename field trackstream", "rename trackstream field", 63.89431042462724, 50.0, 66.66666666666667),
    ("fix NPE in parser", "fix null pointer in parser", 38.94003915357025, 52.15419501133786, 65.35714285714285),
    ("add getter for name", "add setter for name", 50.0, 63.88888888888889, 75.0),
    ("bump version to 1.2", "bump version to 1.3", 80.34284189446518, 83.00000000000001, 83.33333333333334),
    ("initial commit", "first commit", 70.71067811865476, 25.0, 50.0),
    ("refactor constructor arguments", "use varargs in constructor", 34.78700554542394, 12.820512820512823, 27.85388127853881),
    ("delete dead code", "remove dead code", 68.65890479690393, 62.49999999999999, 66.66666666666667),
    ("support wildcard imports", "wildcard import support added", 41.36895450425725, 25.641025641025646, 27.85388127853881),
    ("log errors to stderr", "errors now logged to stderr", 38.94003915357025, 52.15419501133786, 65.35714285714285),
    ("make stop method public", "make stop public", 50.0, 82.43727598566308, 87.98076923076923),
    ("add equals and hashCode", "implement equals and hashCode", 65.80370064762462, 73.61111111111111, 75.0),
    ("fix typo", "fix typos", 70.71067811865476, 25.0, 50.0),
    ("use StringBuilder in loop", "avoid string concat in loop", 35.18629739981188, 38.265306122448976, 43.57142857142857),
    ("move constants to config", "constants moved to config class", 38.94003915357025, 52.15419501133786, 65.35714285714285),
    ("catch IOException in reader", "handle IOException in reader", 65.80370064762462, 73.61111111111111, 75.0),
    ("simplify branch logic", "simplify the branch logic", 54.44460596606694, 65.52706552706553, 83.56164383561644),
    ("throw on invalid input", "invalid input now throws", 45.18010018049224, 46.875, 50.0),
    ("completely unrelated words here", "nothing shared at all", 0.0, 0.0, 0.0),
    ("sort imports alphabetically", "sort imports", 68.65890479690393, 89.28571428571429, 82.99319727891157),
]


@pytest.mark.parametrize("candidate,reference,exp_bleu,exp_meteor,exp_rouge", GOLDEN_PAIRS)
def test_golden_pair(candidate, reference, exp_bleu, exp_meteor, exp_rouge):
    c = tokenize_message(candidate)
    r = tokenize_message(reference)
    assert bleu_norm(c, r) == pytest.approx(exp_bleu, abs=1e-9)
    assert meteor(c, r) == pytest.approx(exp_meteor, abs=1e-9)
    assert rouge_l(c, r) == pytest.approx(exp_rouge, abs=1e-9)


def test_golden_values_still_match_oracles():
    for candidate, reference, exp_bleu, exp_meteor, exp_rouge in GOLDEN_PAIRS:
        c = tokenize_message(candidate).tokens
        r = tokenize_message(reference).tokens
        assert bleu_oracle(c, r) == pytest.approx(exp_bleu, abs=1e-9)
        assert meteor_oracle(c, r) == pytest.approx(exp_meteor, abs=1e-9)
        assert rouge_l_oracle(c, r) == pytest.approx(exp_rouge, abs=1e-9)


# --- range fuzz and corpus aggregation -------------------------------------------


def test_all_metrics_bounded_on_random_pairs():
    random.seed(99)
    alphabet = ["add", "fix", "a", "the", "test", "bug", ".", ","]
    for _ in range(500):
        c = TokenSeq(tuple(random.choice(alphabet) for _ in range(random.randint(1, 30))))
        r = TokenSeq(tuple(random.choice(alphabet) for _ in range(random.randint(1, 30))))
        for score in (bleu_norm(c, r), rouge_l(c, r), meteor(c, r)):
            assert 0.0 <= score <= 100.0 + 1e-9


def test_score_corpus_mean():
    identical = (tokenize_message("add a new test"), tokenize_message("add a new test"))
    disjoint = (tokenize_message("xyz qqq"), tokenize_message("fix bug"))
    report = score_corpus([identical, disjoint])
    assert report.n == 2
    assert report.rouge_l == pytest.approx(50.0, abs=1e-9)
    assert report.bleu_norm == pytest.approx(50.0, abs=1e-9)


def test_score_corpus_single_identical_pair():
    s = tokenize_message("add a new test")
    report = score_corpus([(s, s)])
    assert report.bleu_norm == pytest.approx(100.0, abs=1e-9)
    assert report.rouge_l == pytest.approx(100.0, abs=1e-9)


def test_score_corpus_matches_per_pair_means():
    random.seed(3)
    words = ["add", "fix", "remove", "test", "parser", "bug"]
    pairs = []
    for _ in range(20):
        c = TokenSeq(tuple(random.choice(words) for _ in range(random.randint(1, 6))))
        r = TokenSeq(tuple(random.choice(words) for _ in range(random.randint(1, 6))))
        pairs.append((c, r))
    report = score_corpus(pairs)
    assert report.bleu_norm == pytest.approx(sum(bleu_norm(c, r) for c, r in pairs) / 20, abs=1e-9)
    assert report.meteor == pytest.approx(sum(meteor(c, r) for c, r in pairs) / 20, abs=1e-9)
    assert report.rouge_l == pytest.approx(sum(rouge_l(c, r) for c, r in pairs) / 20, abs=1e-9)


def test_score_corpus_empty_raises():
    with pytest.raises(EmptyCorpus):
        score_corpus([])


def test_metric_report_validates_range():
    with pytest.raises(ValueError):
        MetricReport(bleu_norm=101.0, meteor=0.0, rouge_l=0.0, n=1)
