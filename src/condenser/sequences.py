"""Sequence helpers shared by the readers, the diff, the renderer and the
metrics.

One line splitter, one word-or-punctuation tokenizer, and one
longest-common-subsequence kernel: the bit-parallel LCS of Allison & Dix
(1986) in the form of Hyyrö (2004). Each step of the kernel is a few
operations on one Python int whose bits stand for the positions of the
second sequence, so a row of the LCS table costs O(len(b) / word size)
instead of O(len(b)) interpreted steps.
"""

from __future__ import annotations

import re
from collections.abc import Hashable, Iterator, Sequence

__all__ = ["TOKEN_RE", "lcs_length", "lcs_rows", "split_lines"]

# word runs plus standalone punctuation marks
TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def split_lines(text: str) -> list[str]:
    """The lines of text, split at "\\r\\n", "\\r" and "\\n" only, the Java
    line terminators (JLS 3.4): a form feed, U+2028 or any other break that
    str.splitlines() honours stays inside its line. As with splitlines(), no
    empty line follows a final terminator and an empty text has none."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def lcs_rows(a: Sequence[Hashable], b: Sequence[Hashable]) -> Iterator[int]:
    """Bit vectors of the LCS table of a against every prefix of b, one row
    per prefix of a, shortest first.

    Row k describes a[:k]: for every n <= len(b),
    LCS(a[:k], b[:n]) == n - (row_k & ((1 << n) - 1)).bit_count().
    A zero bit at position p means the LCS grows by one when b[p] joins the
    prefix of b.
    """
    match: dict[Hashable, int] = {}
    for p, x in enumerate(b):
        match[x] = match.get(x, 0) | (1 << p)
    full = (1 << len(b)) - 1
    v = full
    yield v
    for x in a:
        u = v & match.get(x, 0)
        v = ((v + u) | (v - u)) & full
        yield v


def lcs_length(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Length of a longest common subsequence of a and b."""
    if not a or not b:
        return 0
    for v in lcs_rows(a, b):
        pass
    return len(b) - v.bit_count()
