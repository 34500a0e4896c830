"""The bit-parallel statement LCS, the prefix-filtered modify pairing, the
index-based method matching and the shared ROUGE-L LCS against the
originals kept in oracles.py.

Residual statement lists are compared by the identity of each
StatementFacts, so an alignment that picks another copy of the same text
fails.
Pairing runs at the fixed thresholds 0, 0.3, 0.6, 0.7 and 1.0, at 0.28,
0.55 and 0.56 (whose products with some sizes overshoot an integer), at
exact fractions o / n where float rounding decides the boundary, and at
drawn floats including NaN and infinities; statement texts may have empty or
shared token sets.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import condenser.changeset as changeset
import oracles
from condenser.changeset import _lcs_align, _match_methods, _min_overlap, _pair_modifications
from condenser.javafacts import MethodFacts, StatementFacts
from condenser.metrics import TokenSeq, rouge_l
from condenser.sequences import lcs_length
from oracles import (
    lcs_align_oracle,
    lcs_length_oracle,
    match_methods_oracle,
    pair_modifications_oracle,
)

_KINDS = ("invocation", "assignment", "return", "other")


def _facts(texts: list[str]) -> tuple[StatementFacts, ...]:
    return tuple(StatementFacts(kind=_KINDS[len(t) % len(_KINDS)], text=t) for t in texts)


def _ids(value):
    """value with each StatementFacts in it replaced by its id."""
    if isinstance(value, (tuple, list)):
        return [_ids(v) for v in value]
    return id(value) if isinstance(value, StatementFacts) else value


# --- statement LCS ----------------------------------------------------------------


@st.composite
def _statement_lists(draw):
    alphabet = [f"s{k}();" for k in range(draw(st.integers(1, 6)))]
    old = draw(st.lists(st.sampled_from(alphabet), max_size=60))
    new = draw(st.lists(st.sampled_from(alphabet), max_size=60))
    return _facts(old), _facts(new)


@settings(max_examples=1500, deadline=None)
@given(_statement_lists())
def test_lcs_align_matches_full_table(pair):
    old, new = pair
    assert _ids(_lcs_align(old, new)) == _ids(lcs_align_oracle(old, new))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["a();", "b();", "c();", "x = 1;"]), max_size=60))
def test_lcs_align_identical_and_disjoint(texts):
    old = _facts(texts)
    same = _facts(texts)
    assert _lcs_align(old, same) == lcs_align_oracle(old, same) == ([], [])
    disjoint = _facts([t.upper() for t in texts])
    assert _ids(_lcs_align(old, disjoint)) == _ids(lcs_align_oracle(old, disjoint)) == _ids((old, disjoint))


def test_lcs_align_long_rewrite():
    old = _facts([f"v{k % 37} = f{k % 11}(x);" for k in range(700)])
    new = _facts([f"v{k % 29} = f{k % 11}(x);" for k in range(650)])
    assert _ids(_lcs_align(old, new)) == _ids(lcs_align_oracle(old, new))


# --- modify pairing ---------------------------------------------------------------

_VOCAB = ["a", "b", "c", "d", "e", "f", "(", ")", ";", "="]

_statement_text = st.one_of(
    st.sampled_from(["", " ", "a", "a b c", "a ( ) ;"]),
    st.lists(st.sampled_from(_VOCAB), max_size=9).map(" ".join),
)


@st.composite
def _fraction(draw):
    n = draw(st.integers(1, 12))
    return draw(st.integers(0, n)) / n


_threshold = st.one_of(
    st.sampled_from([0.0, 0.3, 0.6, 0.7, 1.0, 0.28, 0.55, 0.56]),
    _fraction(),
    st.floats(-0.5, 1.5),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 5e-324]),
)


@settings(max_examples=1500, deadline=None)
@given(
    st.lists(_statement_text, max_size=25),
    st.lists(_statement_text, max_size=25),
    _threshold,
)
def test_pair_modifications_matches_all_pairs(removed_texts, added_texts, threshold):
    removed = list(_facts(removed_texts))
    added = list(_facts(added_texts))
    assert _ids(_pair_modifications(removed, added, threshold)) == _ids(pair_modifications_oracle(
        removed, added, threshold
    ))


@settings(max_examples=100, deadline=None)
@given(st.lists(_statement_text, max_size=12), st.lists(_statement_text, max_size=12), _threshold)
def test_pair_modifications_past_the_cap(removed_texts, added_texts, threshold):
    removed = list(_facts(removed_texts))
    added = list(_facts(added_texts))
    with mock.patch.object(changeset, "_MODIFY_PAIR_CAP", 20), mock.patch.object(oracles, "_MODIFY_PAIR_CAP", 20):
        assert _ids(_pair_modifications(removed, added, threshold)) == _ids(pair_modifications_oracle(
            removed, added, threshold
        ))


def test_pair_at_a_threshold_the_float_product_overshoots():
    # 0.28 * 25 == 7.000000000000001, yet 7 / 25 >= 0.28 holds
    tokens = [f"t{k}" for k in range(25)]
    removed = list(_facts([" ".join(tokens)]))
    added = list(_facts([" ".join(tokens[:7])]))
    assert _min_overlap(25, 0.28) == 7
    modified, _rest_removed, _rest_added = _pair_modifications(removed, added, 0.28)
    assert modified == [(removed[0], added[0])]


@given(st.integers(1, 80), _threshold.filter(lambda t: t > 0))
def test_min_overlap_is_the_smallest_qualifying_overlap(size, threshold):
    expected = next((o for o in range(size + 1) if o / size >= threshold), size + 1)
    assert _min_overlap(size, threshold) == expected


# --- method matching --------------------------------------------------------------


@st.composite
def _methods(draw):
    out = []
    for _ in range(draw(st.integers(0, 7))):
        params = tuple(
            (draw(st.sampled_from(["int", "String", "T"])), f"p{k}") for k in range(draw(st.integers(0, 2)))
        )
        out.append(
            MethodFacts(
                name=draw(st.sampled_from(["f", "g", "h"])),
                return_type="void",
                parameters=params,
                modifiers=frozenset(),
                annotations=(),
                thrown_exceptions=(),
                # a small range of bodies makes value-equal duplicates likely
                body_text=draw(st.sampled_from(["{ }", "{ x(); }", "{ y(); }"])),
            )
        )
    return tuple(out)


@settings(max_examples=1500, deadline=None)
@given(_methods(), _methods())
def test_match_methods_matches_list_removal(old, new):
    assert _match_methods(old, new) == match_methods_oracle(old, new)


# --- ROUGE-L LCS ------------------------------------------------------------------

_message = st.lists(st.sampled_from(["fix", "add", "the", "bug", "in", "parser", "."]), max_size=40).map(tuple)


@settings(max_examples=800, deadline=None)
@given(_message, _message)
def test_lcs_length_matches_full_table(a, b):
    assert lcs_length(a, b) == lcs_length_oracle(a, b)


@settings(max_examples=300, deadline=None)
@given(_message.filter(bool), _message.filter(bool))
def test_rouge_l_unchanged(candidate, reference):
    cand, ref = TokenSeq(candidate), TokenSeq(reference)
    with mock.patch("condenser.metrics.lcs_length", lcs_length_oracle):
        expected = rouge_l(cand, ref)
    assert rouge_l(cand, ref) == expected
