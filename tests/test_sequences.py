"""split_lines against the regular-expression split it replaced.

The alphabet holds the three Java line terminators and the breaks that
str.splitlines() honours but Java does not (form feed, vertical tab,
U+0085), which must stay inside their lines.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condenser.sequences import split_lines


def _split_lines_oracle(text: str) -> list[str]:
    lines = re.split(r"\r\n|\r|\n", text)
    if lines[-1] == "":
        lines.pop()
    return lines


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(["a", "\r", "\n", "\r\n", "\r\r\n", "\f", "\v", "\x85", " "]), max_size=40).map("".join))
def test_split_lines_matches_the_regex_split(text):
    assert split_lines(text) == _split_lines_oracle(text)


@pytest.mark.parametrize(
    "text,lines",
    [
        ("", []),
        ("a\r\r\nb", ["a", "", "b"]),
        ("a\n", ["a"]),
        ("a\r\n\r\n", ["a", ""]),
        ("a\fb\x85c\vd\r", ["a\fb\x85c\vd"]),
    ],
)
def test_split_lines_at_java_terminators_only(text, lines):
    assert split_lines(text) == lines == _split_lines_oracle(text)
