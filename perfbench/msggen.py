"""Seeded commit-message pairs: a reference and a candidate derived from it.

References read like commit messages: a verb, function words, code
identifiers and punctuation, so function words and punctuation repeat.  A
candidate comes from its reference by substitution, deletion and
reordering, as a generated message differs from the one a developer wrote.

A pair has a shape (its length and which positions hold equal tokens) and
words.  Every metric's cost depends on the shape alone, because the metrics
only compare tokens for equality.  One random stream draws the shape and a
second one draws the words, as a permutation of each word list, so a caller
can keep the costly long shapes the same across seeds while every seed
still gets its own words.
"""

from __future__ import annotations

import math
import random
from statistics import NormalDist

from javagen import NOUNS, VERBS

DETERMINERS = ("the", "a")
FUNCTION_WORDS = ("to", "of", "in", "for", "and", "when", "with", "on", "is", "not",
                  "from", "that", "it", "be", "by", "as", "if", "so", "at", "or")
PUNCT = (".", ",", "(", ")", ":", "-", "#", "'")
ADJECTIVES = ("new", "old", "empty", "null", "unused", "missing", "default", "stale",
              "broken", "duplicate", "invalid", "optional", "slow", "first", "last")


def stratified_lengths(n: int, median: float, sigma: float, cap: int, floor: int = 2) -> list[int]:
    """n token lengths at the quantiles (k + 0.5) / n of a log-normal; the
    longest is set to `cap`.  The multiset is the same for every seed."""
    normal = NormalDist()
    out = [
        min(cap, max(floor, round(median * math.exp(sigma * normal.inv_cdf((k + 0.5) / n)))))
        for k in range(n)
    ]
    out[-1] = cap
    return out


class MessageGen:
    def __init__(self, words_rng: random.Random, shape_rng: random.Random):
        self.shape = shape_rng
        self.lists = {}
        for name, words in (("noun", NOUNS), ("verb", VERBS), ("fw", FUNCTION_WORDS), ("adj", ADJECTIVES)):
            perm = list(words)
            words_rng.shuffle(perm)
            self.lists[name] = perm

    def pick(self, name: str) -> str:
        words = self.lists[name]
        return words[self.shape.randrange(len(words))]

    def identifier(self) -> str:
        r = self.shape.random()
        if r < 0.4:
            return self.pick("verb") + self.pick("noun").capitalize()
        if r < 0.7:
            return self.pick("noun").capitalize() + self.pick("noun").capitalize()
        return self.pick("noun")

    def clause(self) -> list[str]:
        rng = self.shape
        out = [self.pick("verb")]
        if rng.random() < 0.7:
            out.append(DETERMINERS[rng.randrange(2)])
        if rng.random() < 0.3:
            out.append(self.pick("adj"))
        out.append(self.identifier())
        for _ in range(rng.randint(0, 2)):
            out.append(self.pick("fw"))
            if rng.random() < 0.5:
                out.append(DETERMINERS[rng.randrange(2)])
            out.append(self.identifier() if rng.random() < 0.6 else self.pick("noun"))
        if rng.random() < 0.3:
            out.extend(["(", "#", str(rng.randint(1, 9999)), ")"])
        out.append((".", ".", ",", ":", "-")[rng.randrange(5)])
        return out

    def reference(self, length: int) -> list[str]:
        tokens: list[str] = []
        while len(tokens) < length:
            tokens.extend(self.clause())
        return tokens[:length]

    def candidate(self, reference: list[str]) -> list[str]:
        rng = self.shape
        out: list[str] = []
        for tok in reference:
            r = rng.random()
            if r < 0.10:
                continue  # deletion
            if r < 0.25:  # substitution
                s = rng.random()
                if s < 0.3:
                    out.append(self.pick("fw"))
                elif s < 0.45:
                    out.append(PUNCT[rng.randrange(len(PUNCT))])
                elif s < 0.6:
                    out.append(self.pick("verb"))
                else:
                    out.append(self.identifier())
            else:
                out.append(tok)
        if len(out) >= 6 and rng.random() < 0.5:  # reorder: swap two segments
            a, b = sorted(rng.sample(range(1, len(out)), 2))
            out = out[:a] + out[b:] + out[a:b]
        return out or [reference[0]]


def text(tokens: list[str]) -> str:
    """Space-joined; the program's tokenizer splits it back into `tokens`
    after lowercasing."""
    return " ".join(tokens)
