"""Text-similarity metrics for commit messages.

Sentence-level case-insensitive BLEU-4 with +1 smoothing on n >= 2 n-grams,
ROUGE-L with beta = 1.2, and exact-match METEOR (alpha 0.9, beta 3,
gamma 0.5, no stemming or synonymy). Scores are percentages in [0, 100];
corpus scores are arithmetic means of sentence scores.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from condenser.sequences import TOKEN_RE, lcs_length

__all__ = [
    "EmptyCorpus",
    "EmptyInput",
    "EmptyReference",
    "MetricReport",
    "TokenSeq",
    "bleu_norm",
    "meteor",
    "rouge_l",
    "score_corpus",
    "tokenize_message",
]

ROUGE_BETA = 1.2
METEOR_ALPHA = 0.9
METEOR_BETA = 3.0
METEOR_GAMMA = 0.5

# exact chunk minimization explores at most this many search nodes before
# settling for the best alignment found; short inputs never hit the cap
_METEOR_SEARCH_CAP = 200_000


class EmptyReference(Exception):
    pass


class EmptyInput(Exception):
    pass


class EmptyCorpus(Exception):
    pass


@dataclass(frozen=True)
class TokenSeq:
    tokens: tuple[str, ...]

    def __post_init__(self):
        for t in self.tokens:
            if not t or t != t.lower():
                raise ValueError(f"tokens must be non-empty and lowercase: {t!r}")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class MetricReport:
    bleu_norm: float
    meteor: float
    rouge_l: float
    n: int

    def __post_init__(self):
        for score in (self.bleu_norm, self.meteor, self.rouge_l):
            if not (0.0 <= score <= 100.0):
                raise ValueError(f"score out of range: {score}")
        if self.n < 1:
            raise ValueError("a report covers at least one pair")

    def as_dict(self) -> dict:
        return {
            "bleu_norm": round(self.bleu_norm, 4),
            "meteor": round(self.meteor, 4),
            "rouge_l": round(self.rouge_l, 4),
            "n": self.n,
        }


def tokenize_message(text: str) -> TokenSeq:
    """Lowercase and split into word tokens and standalone punctuation."""
    return TokenSeq(tokens=tuple(t.lower() for t in TOKEN_RE.findall(text)))


def _ngrams(tokens: tuple[str, ...], n: int) -> Counter:
    return Counter(tokens[i : i + n] for i in range(len(tokens) - n + 1))


def bleu_norm(candidate: TokenSeq, reference: TokenSeq) -> float:
    """Case-insensitive sentence BLEU-4.

    Modified n-gram precisions for n=1..4, clipped against the reference;
    numerator and denominator get +1 smoothing for n >= 2 (unigram precision
    stays raw, so zero unigram overlap scores 0). Brevity penalty
    exp(1 - r/c) applies when the candidate is shorter than the reference.
    """
    if len(reference) == 0:
        raise EmptyReference("reference must be non-empty")
    c, r = len(candidate), len(reference)
    if c == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, 5):
        cand_counts = _ngrams(candidate.tokens, n)
        ref_counts = _ngrams(reference.tokens, n)
        matched = sum(min(count, ref_counts[gram]) for gram, count in cand_counts.items())
        total = max(c - n + 1, 0)
        if n == 1:
            if matched == 0:
                return 0.0
            p = matched / total
        else:
            p = (matched + 1) / (total + 1)
        log_sum += 0.25 * math.log(p)
    bp = math.exp(1 - r / c) if c < r else 1.0
    return 100.0 * bp * math.exp(log_sum)


def rouge_l(candidate: TokenSeq, reference: TokenSeq) -> float:
    """F-score over the longest common subsequence, beta = 1.2."""
    if len(candidate) == 0 or len(reference) == 0:
        raise EmptyInput("both sequences must be non-empty")
    lcs = lcs_length(candidate.tokens, reference.tokens)
    if lcs == 0:
        return 0.0
    precision = lcs / len(candidate)
    recall = lcs / len(reference)
    beta_sq = ROUGE_BETA * ROUGE_BETA
    f = (1 + beta_sq) * precision * recall / (recall + beta_sq * precision)
    return 100.0 * f


def _max_matches(candidate: tuple[str, ...], reference: tuple[str, ...]) -> int:
    cc = Counter(candidate)
    rc = Counter(reference)
    return sum(min(count, rc[token]) for token, count in cc.items())


def meteor_alignment(candidate: tuple[str, ...], reference: tuple[str, ...]) -> tuple[int, int]:
    """Exact-match unigram alignment: maximum matches, then minimum chunks.

    A chunk is a maximal run of candidate positions i, i+1, ... aligned to
    consecutive reference positions j, j+1, ... Branch and bound with the
    greedy common-substring alignment as the initial bound; deterministic.
    Returns (matches, chunks); chunks is 0 when there are no matches.
    """
    target = _max_matches(candidate, reference)
    if target == 0:
        return 0, 0

    greedy_chunks = _greedy_chunks(candidate, reference, target)
    best = [greedy_chunks]
    nodes = [0]
    nc, nr = len(candidate), len(reference)
    ref_positions: dict[str, list[int]] = {}
    for j, token in enumerate(reference):
        ref_positions.setdefault(token, []).append(j)

    # remaining_possible[i] = max matches achievable from candidate[i:]
    remaining_possible = [0] * (nc + 1)
    for i in range(nc - 1, -1, -1):
        remaining_possible[i] = _max_matches(candidate[i:], reference)

    def search(i: int, used_ref: int, matches: int, chunks: int, prev_ref: int) -> None:
        # prev_ref: reference index matched at candidate position i-1, else -1
        if nodes[0] >= _METEOR_SEARCH_CAP:
            return
        nodes[0] += 1
        if chunks >= best[0]:  # chunk count only grows along a branch
            return
        if matches + remaining_possible[i] < target:
            return
        if i == nc:
            if matches == target and chunks < best[0]:
                best[0] = chunks
            return
        token = candidate[i]
        # continuing the current run first steers the search to low-chunk
        # solutions early
        order: list[int] = []
        continuation = prev_ref + 1 if prev_ref >= 0 else -1
        if (
            continuation >= 0
            and continuation < nr
            and reference[continuation] == token
            and not (used_ref >> continuation) & 1
        ):
            order.append(continuation)
        for j in ref_positions.get(token, ()):  # then any free occurrence
            if j != continuation and not (used_ref >> j) & 1:
                order.append(j)
        for j in order:
            new_chunks = chunks if j == continuation else chunks + 1
            search(i + 1, used_ref | (1 << j), matches + 1, new_chunks, j)
        # leaving candidate[i] unmatched
        search(i + 1, used_ref, matches, chunks, -1)

    search(0, 0, 0, 0, -1)
    return target, best[0]


def _greedy_chunks(candidate: tuple[str, ...], reference: tuple[str, ...], target: int) -> int:
    """Chunk count of a greedy longest-common-substring-first alignment."""
    cand_free = [True] * len(candidate)
    ref_free = [True] * len(reference)
    matched = 0
    chunks = 0
    while matched < target:
        best_len = 0
        best_pos: tuple[int, int] | None = None
        for i in range(len(candidate)):
            if not cand_free[i]:
                continue
            for j in range(len(reference)):
                if not ref_free[j] or reference[j] != candidate[i]:
                    continue
                length = 0
                while (
                    i + length < len(candidate)
                    and j + length < len(reference)
                    and cand_free[i + length]
                    and ref_free[j + length]
                    and candidate[i + length] == reference[j + length]
                ):
                    length += 1
                if length > best_len:
                    best_len = length
                    best_pos = (i, j)
        if best_pos is None:
            break
        i, j = best_pos
        for k in range(best_len):
            cand_free[i + k] = False
            ref_free[j + k] = False
        matched += best_len
        chunks += 1
    return chunks if matched >= target else chunks + (target - matched)


def meteor(candidate: TokenSeq, reference: TokenSeq) -> float:
    """Exact-match METEOR: harmonic mean weighted toward recall with a
    fragmentation penalty gamma * (chunks/matches)^beta."""
    if len(candidate) == 0 or len(reference) == 0:
        raise EmptyInput("both sequences must be non-empty")
    matches, chunks = meteor_alignment(candidate.tokens, reference.tokens)
    if matches == 0:
        return 0.0
    precision = matches / len(candidate)
    recall = matches / len(reference)
    fmean = precision * recall / (METEOR_ALPHA * precision + (1 - METEOR_ALPHA) * recall)
    penalty = METEOR_GAMMA * (chunks / matches) ** METEOR_BETA
    return 100.0 * fmean * (1 - penalty)


def score_corpus(pairs: list[tuple[TokenSeq, TokenSeq]]) -> MetricReport:
    """Arithmetic mean of per-pair scores. An empty candidate contributes
    zero to every metric rather than failing the whole corpus."""
    if not pairs:
        raise EmptyCorpus("no candidate/reference pairs to score")
    total_b = total_m = total_r = 0.0
    for candidate, reference in pairs:
        if len(reference) == 0:
            raise EmptyReference("reference must be non-empty")
        if len(candidate) == 0:
            continue  # zero contribution
        total_b += bleu_norm(candidate, reference)
        total_m += meteor(candidate, reference)
        total_r += rouge_l(candidate, reference)
    n = len(pairs)
    return MetricReport(bleu_norm=total_b / n, meteor=total_m / n, rouge_l=total_r / n, n=n)
