"""Text-similarity metrics for commit messages.

Sentence-level case-insensitive BLEU-4 with +1 smoothing on n >= 2 n-grams,
ROUGE-L with beta = 1.2, and exact-match METEOR (alpha 0.9, beta 3,
gamma 0.5, no stemming or synonymy). Scores are percentages in [0, 100];
corpus scores are arithmetic means of sentence scores.

BLEU counts clipped matches from one table of the reference's n-gram counts,
which each matched candidate n-gram spends.  BLEU and ROUGE-L are always
exact.  METEOR is exact (maximum matches, then minimum chunks) unless its
chunk search hits _METEOR_SEARCH_CAP; such pairs score with an upper bound
on chunks, and MetricReport.meteor_capped counts them (`eval` prints a
warning on stderr when it is non-zero).

METEOR indexes the reference once (token -> positions) for its bounds, its
forced-pair test, its greedy initial alignment and its search.  The greedy
lists the maximal common runs once and takes them longest first off a heap,
splitting a run that earlier rounds cut into when it reaches the top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain

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

# the chunk search explores at most this many nodes before settling for the
# best alignment found; short inputs can hit it too (24 tokens over a
# 3-word vocabulary do), and score_corpus counts the pairs that did
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
        # str.lower is per character except for capital sigma, which never
        # lowers to itself, so the joined text is its own lowercase exactly
        # when every token is; the loop only names the first bad token
        joined = "\x00".join(self.tokens)
        if "" in self.tokens or joined != joined.lower():
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
    # pairs whose METEOR chunk count is an upper bound (search cap hit);
    # diagnostics only, not part of as_dict
    meteor_capped: int = 0

    def __post_init__(self):
        for score in (self.bleu_norm, self.meteor, self.rouge_l):
            if not (0.0 <= score <= 100.0):
                raise ValueError(f"score out of range: {score}")
        if self.n < 1:
            raise ValueError("a report covers at least one pair")
        if not (0 <= self.meteor_capped <= self.n):
            raise ValueError(f"meteor_capped out of range: {self.meteor_capped}")

    def as_dict(self) -> dict:
        return {
            "bleu_norm": round(self.bleu_norm, 4),
            "meteor": round(self.meteor, 4),
            "rouge_l": round(self.rouge_l, 4),
            "n": self.n,
        }


def tokenize_message(text: str) -> TokenSeq:
    """Lowercase and split into word tokens and standalone punctuation.

    Lowering ASCII text changes only A-Z, so the whole text is lowered
    before the split; other text is split first, because lowering can
    change a character's class or length (U+0130 lowers to two)."""
    if text.isascii():
        return TokenSeq(tokens=tuple(TOKEN_RE.findall(text.lower())))
    return TokenSeq(tokens=tuple(t.lower() for t in TOKEN_RE.findall(text)))


def bleu_norm(candidate: TokenSeq, reference: TokenSeq) -> float:
    """Case-insensitive sentence BLEU-4.

    Modified n-gram precisions for n=1..4, clipped against the reference;
    numerator and denominator get +1 smoothing for n >= 2 (unigram precision
    stays raw, so zero unigram overlap scores 0). Brevity penalty
    exp(1 - r/c) applies when the candidate is shorter than the reference.
    One table counts the reference's n-grams, n = 1..4; a candidate n-gram
    matches while its count is positive and spends one, which clips it.
    """
    cand, ref = candidate.tokens, reference.tokens
    c, r = len(cand), len(ref)
    if r == 0:
        raise EmptyReference("reference must be non-empty")
    if c == 0:
        return 0.0
    unspent = {}
    for gram in chain(ref, zip(ref, ref[1:]), zip(ref, ref[1:], ref[2:]), zip(ref, ref[1:], ref[2:], ref[3:])):
        unspent[gram] = unspent.get(gram, 0) + 1
    cand_grams = (cand, zip(cand, cand[1:]), zip(cand, cand[1:], cand[2:]), zip(cand, cand[1:], cand[2:], cand[3:]))
    log_sum = 0.0
    for n, grams in enumerate(cand_grams, start=1):
        matched = 0
        for gram in grams:
            count = unspent.get(gram)
            if count:
                unspent[gram] = count - 1
                matched += 1
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
    cand, ref = candidate.tokens, reference.tokens
    if not cand or not ref:
        raise EmptyInput("both sequences must be non-empty")
    lcs = lcs_length(cand, ref)
    if lcs == 0:
        return 0.0
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    beta_sq = ROUGE_BETA * ROUGE_BETA
    f = (1 + beta_sq) * precision * recall / (recall + beta_sq * precision)
    return 100.0 * f


def _meteor_search(candidate: tuple[str, ...], reference: tuple[str, ...]) -> tuple[int, int, bool]:
    """(matches, chunks, capped) by depth-first branch and bound: maximum
    exact unigram matches, then minimum chunks, a chunk being a maximal run
    of candidate positions aligned to consecutive reference positions
    (chunks is 0 when nothing matches).

    The greedy common-substring alignment is the initial bound.  The lower
    bound on chunks still to come counts forced positions k, those whose
    token the candidate holds at most as often as the reference, so that
    every maximum alignment matches them: such a k starts a chunk when k is
    0 or the bigram (candidate[k-1], candidate[k]) never occurs adjacent in
    the reference.  Deterministic; `capped` is True when the search stopped
    after _METEOR_SEARCH_CAP nodes with part of the tree unexplored.

    No search runs, and no bound is built, when every shared token occurs
    once on each side: the alignment is then forced, and a token starts a
    chunk exactly when the token before it does not match the reference
    position before its own.  Nor does a search run when the greedy bound
    already equals starts[0].
    """
    nc, nr = len(candidate), len(reference)
    # the reference index: token -> its positions, ascending
    ref_positions: dict[str, list[int]] = {}
    for j, token in enumerate(reference):
        ref_positions.setdefault(token, []).append(j)
    cand_counts: dict[str, int] = {}
    for token in candidate:
        cand_counts[token] = cand_counts.get(token, 0) + 1
    if all(count == 1 == len(ref_positions[t]) for t, count in cand_counts.items() if t in ref_positions):
        # forced: each shared token matches its one reference position, and
        # starts a chunk unless the token before it matches the position before
        target = chunks = 0
        prev = -2
        for token in candidate:
            positions = ref_positions.get(token)
            if positions is None:
                prev = -2
                continue
            target += 1
            chunks += positions[0] != prev + 1
            prev = positions[0]
        return target, chunks, False
    ref_bigrams = set(zip(reference, reference[1:]))
    # remaining_possible[i]: max matches candidate[i:] can make;
    # starts[i]: forced positions k >= i that must start a chunk;
    # unspent[t]: occurrences of t in the reference the suffix leaves free
    remaining_possible = [0] * (nc + 1)
    starts = [0] * (nc + 1)
    unspent = {token: len(positions) for token, positions in ref_positions.items()}
    possible = forced = 0
    for k in range(nc - 1, -1, -1):
        token = candidate[k]
        left = unspent.get(token)
        if left:
            unspent[token] = left - 1
            possible += 1
            if cand_counts[token] <= len(ref_positions[token]) and (k == 0 or (candidate[k - 1], token) not in ref_bigrams):
                forced += 1
        remaining_possible[k] = possible
        starts[k] = forced
    target = possible  # at least one: some shared token occurs more than once
    best = _greedy_chunks(candidate, reference, ref_positions, target)
    if starts[0] >= best:  # the root node would prune
        return target, best, False
    # (i, used reference bits, matches, chunks, reference index matched at i-1 or -1)
    stack = [(0, 0, 0, 0, -1)]
    nodes = 0
    while stack:
        if nodes >= _METEOR_SEARCH_CAP:
            return target, best, True
        nodes += 1
        i, used, matches, chunks, prev_ref = stack.pop()
        if chunks + starts[i] >= best or matches + remaining_possible[i] < target:
            continue
        if i == nc:  # matches == target and chunks < best here
            best = chunks
            continue
        token = candidate[i]
        continuation = prev_ref + 1 if prev_ref >= 0 else -1
        # pushed in reverse so that continuing the current run is visited
        # first (it steers to low-chunk solutions early), then any free
        # occurrence, then leaving candidate[i] unmatched
        stack.append((i + 1, used, matches, chunks, -1))
        for j in reversed(ref_positions.get(token, ())):
            if j != continuation and not (used >> j) & 1:
                stack.append((i + 1, used | (1 << j), matches + 1, chunks + 1, j))
        if 0 <= continuation < nr and reference[continuation] == token and not (used >> continuation) & 1:
            stack.append((i + 1, used | (1 << continuation), matches + 1, chunks, continuation))
    return target, best, False


def _greedy_chunks(candidate: tuple[str, ...], reference: tuple[str, ...], ref_positions: dict, target: int) -> int:
    """Chunk count of a greedy longest-common-substring-first alignment.

    Each round aligns the longest run of free equal pairs, the first in scan
    order (i, then j) on ties.  The maximal common runs are listed once, on a
    heap of (-length, i, j).  The top run is taken when its candidate rows and
    reference columns are all free; otherwise earlier rounds cut into it, and
    its free parts go back on the heap.  A part is no longer than its run and
    starts no earlier in scan order, so runs come off in the order a rescan of
    the free pairs would pick them.
    """
    nc, nr = len(candidate), len(reference)
    runs = []
    for i, token in enumerate(candidate):
        for j in ref_positions.get(token, ()):
            if i and j and candidate[i - 1] == reference[j - 1]:
                continue  # inside the run that starts at (i-1, j-1) or earlier
            length = 1
            while i + length < nc and j + length < nr and candidate[i + length] == reference[j + length]:
                length += 1
            runs.append((-length, i, j))
    heapify(runs)
    cand_free = [True] * nc
    ref_free = [True] * nr
    matched = chunks = 0
    while matched < target and runs:
        neg_length, i, j = heappop(runs)
        if all(cand_free[i : i - neg_length]) and all(ref_free[j : j - neg_length]):
            cand_free[i : i - neg_length] = ref_free[j : j - neg_length] = [False] * -neg_length
            matched -= neg_length
            chunks += 1
            continue
        part = -1  # offset where the current free part began
        for t in range(-neg_length):
            if cand_free[i + t] and ref_free[j + t]:
                if part < 0:
                    part = t
            elif part >= 0:
                heappush(runs, (part - t, i + part, j + part))
                part = -1
        if part >= 0:
            heappush(runs, (part + neg_length, i + part, j + part))
    return chunks if matched >= target else chunks + (target - matched)


def meteor(
    candidate: TokenSeq,
    reference: TokenSeq,
    capped: list[tuple[TokenSeq, TokenSeq]] | None = None,
) -> float:
    """Exact-match METEOR: harmonic mean weighted toward recall with a
    fragmentation penalty gamma * (chunks/matches)^beta.

    When the chunk search hits its cap, (candidate, reference) is appended
    to `capped`, if given: the score then rests on an upper bound of chunks.
    """
    cand, ref = candidate.tokens, reference.tokens
    if not cand or not ref:
        raise EmptyInput("both sequences must be non-empty")
    matches, chunks, hit_cap = _meteor_search(cand, ref)
    if hit_cap and capped is not None:
        capped.append((candidate, reference))
    if matches == 0:
        return 0.0
    precision = matches / len(cand)
    recall = matches / len(ref)
    fmean = precision * recall / (METEOR_ALPHA * precision + (1 - METEOR_ALPHA) * recall)
    penalty = METEOR_GAMMA * (chunks / matches) ** METEOR_BETA
    return 100.0 * fmean * (1 - penalty)


def score_corpus(pairs: list[tuple[TokenSeq, TokenSeq]]) -> MetricReport:
    """Arithmetic mean of per-pair scores. An empty candidate contributes
    zero to every metric rather than failing the whole corpus."""
    if not pairs:
        raise EmptyCorpus("no candidate/reference pairs to score")
    total_b = total_m = total_r = 0.0
    capped: list[tuple[TokenSeq, TokenSeq]] = []
    for candidate, reference in pairs:
        if not reference.tokens:
            raise EmptyReference("reference must be non-empty")
        if not candidate.tokens:
            continue  # zero contribution
        total_b += bleu_norm(candidate, reference)
        total_m += meteor(candidate, reference, capped)
        total_r += rouge_l(candidate, reference)
    n = len(pairs)
    return MetricReport(
        bleu_norm=total_b / n, meteor=total_m / n, rouge_l=total_r / n, n=n, meteor_capped=len(capped)
    )
