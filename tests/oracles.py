"""Independent brute-force oracles the implementation is checked against.

Everything here is written straight from first principles (exhaustive
enumeration, literal formulas with exact fractions) and shares no code with
the package. Only usable for short inputs.  The exception is the last three
sections: the package's previous Java lexer and comment-attachment resolver,
its previous statement diff and ROUGE-L LCS, and its previous METEOR chunk
search, kept as the reference their rewrites must reproduce.
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from condenser.javafacts import CommentFacts, ParseError

log = logging.getLogger(__name__)


# --- BLEU: literal second implementation ------------------------------------


def bleu_oracle(candidate: tuple[str, ...], reference: tuple[str, ...]) -> float:
    """Sentence BLEU-4: raw unigram precision, +1/+1 smoothing for n >= 2,
    geometric mean, brevity penalty exp(1 - r/c) for short candidates."""
    c, r = len(candidate), len(reference)
    if c == 0:
        return 0.0
    precisions: list[Fraction] = []
    for n in range(1, 5):
        cand_grams = [candidate[i : i + n] for i in range(c - n + 1)]
        ref_grams = [reference[i : i + n] for i in range(r - n + 1)]
        matched = 0
        remaining = list(ref_grams)
        for gram in cand_grams:
            if gram in remaining:
                remaining.remove(gram)
                matched += 1
        if n == 1:
            if matched == 0:
                return 0.0
            precisions.append(Fraction(matched, len(cand_grams)))
        else:
            precisions.append(Fraction(matched + 1, len(cand_grams) + 1))
    product = float(precisions[0] * precisions[1] * precisions[2] * precisions[3])
    geo_mean = product ** 0.25
    bp = math.exp(1 - r / c) if c < r else 1.0
    return 100.0 * bp * geo_mean


# --- ROUGE-L: exhaustive subsequence enumeration -----------------------------


def _is_subsequence(needle: tuple[str, ...], haystack: tuple[str, ...]) -> bool:
    it = iter(haystack)
    return all(tok in it for tok in needle)


def lcs_oracle(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    """Longest common subsequence by enumerating every subsequence of a."""
    best = 0
    for mask in range(1 << len(a)):
        sub = tuple(a[i] for i in range(len(a)) if mask >> i & 1)
        if len(sub) > best and _is_subsequence(sub, b):
            best = len(sub)
    return best


def rouge_l_oracle(candidate: tuple[str, ...], reference: tuple[str, ...], beta: float = 1.2) -> float:
    lcs = lcs_oracle(candidate, reference)
    if lcs == 0:
        return 0.0
    p = lcs / len(candidate)
    r = lcs / len(reference)
    return 100.0 * (1 + beta**2) * p * r / (r + beta**2 * p)


# --- METEOR: exhaustive alignment enumeration --------------------------------


def meteor_alignment_oracle(candidate: tuple[str, ...], reference: tuple[str, ...]) -> tuple[int, int]:
    """(max matches, min chunks over maximum alignments) by trying every
    injective mapping of candidate positions to equal-token reference
    positions."""
    nc = len(candidate)
    best_matches = 0
    best_chunks = 0

    def chunks_of(mapping: dict[int, int]) -> int:
        count = 0
        for i in sorted(mapping):
            if i - 1 in mapping and mapping[i - 1] == mapping[i] - 1:
                continue
            count += 1
        return count

    def walk(i: int, used: set[int], mapping: dict[int, int]) -> None:
        nonlocal best_matches, best_chunks
        if i == nc:
            matches = len(mapping)
            chunks = chunks_of(mapping)
            if matches > best_matches or (matches == best_matches and (best_matches == 0 or chunks < best_chunks)):
                best_matches = matches
                best_chunks = chunks if matches else 0
            return
        walk(i + 1, used, mapping)  # leave unmatched
        for j, token in enumerate(reference):
            if j in used or token != candidate[i]:
                continue
            mapping[i] = j
            used.add(j)
            walk(i + 1, used, mapping)
            del mapping[i]
            used.remove(j)

    walk(0, set(), {})
    return best_matches, best_chunks


def meteor_oracle(
    candidate: tuple[str, ...],
    reference: tuple[str, ...],
    alpha: float = 0.9,
    beta: float = 3.0,
    gamma: float = 0.5,
) -> float:
    matches, chunks = meteor_alignment_oracle(candidate, reference)
    if matches == 0:
        return 0.0
    p = matches / len(candidate)
    r = matches / len(reference)
    fmean = p * r / (alpha * p + (1 - alpha) * r)
    penalty = gamma * (chunks / matches) ** beta
    return 100.0 * fmean * (1 - penalty)


# --- statement moves: maximum bipartite matching by enumeration --------------


def max_moves_oracle(removed: list[tuple[str, int]], added: list[tuple[str, int]]) -> int:
    """Maximum number of (removed, added) pairs with equal text and different
    line numbers, each statement used at most once. removed/added are
    (text, line) tuples; every assignment is enumerated."""
    best = 0

    def rec(i: int, used: set[int], count: int) -> None:
        nonlocal best
        best = max(best, count)
        if i == len(removed):
            return
        rec(i + 1, used, count)  # leave removed[i] unpaired
        for j in range(len(added)):
            if j in used:
                continue
            if removed[i][0] == added[j][0] and removed[i][1] != added[j][1]:
                used.add(j)
                rec(i + 1, used, count + 1)
                used.remove(j)

    rec(0, set(), 0)
    return best


# --- token counting: alternative splitter ------------------------------------


def count_tokens_oracle(text: str) -> int:
    """Independent count: strip punctuation into spaced-out tokens first,
    then count whitespace-separated fields."""
    spaced = re.sub(r"([^\w\s])", r" \1 ", text)
    return len(spaced.split())


# --- unified diff application -------------------------------------------------


def apply_patch_oracle(content_old: str, hunks) -> str:
    """Apply hunks (old_start, old_len, new_start, new_len, lines) to the old
    text, trusting only the hunk line records themselves."""
    old_lines = content_old.splitlines()
    new_lines: list[str] = []
    pos = 0
    for hunk in hunks:
        start = hunk.old_start - 1 if hunk.old_len else hunk.old_start
        new_lines.extend(old_lines[pos:start])
        pos = start
        for line in hunk.lines:
            if line.startswith(" "):
                new_lines.append(line[1:])
                pos += 1
            elif line.startswith("-"):
                pos += 1
            elif line.startswith("+"):
                new_lines.append(line[1:])
    new_lines.extend(old_lines[pos:])
    text = "\n".join(new_lines)
    if (content_old.endswith("\n") or not content_old) and new_lines:
        text += "\n"
    return text


# --- comment regions: 4-state character classifier ---------------------------


def comment_chars_oracle(source: str) -> str:
    """Every character lying strictly inside a comment (delimiters excluded),
    via a single-pass 4-state scan: code, line comment, block comment,
    string/char literal."""
    out: list[str] = []
    state = "code"
    quote = ""
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if state == "code":
            if ch == "/" and i + 1 < n and source[i + 1] == "/":
                state = "line"
                i += 2
                continue
            if ch == "/" and i + 1 < n and source[i + 1] == "*":
                state = "block"
                i += 2
                if i < n and source[i] == "*" and not source.startswith("*/", i):
                    i += 1  # javadoc opener's second star is delimiter
                continue
            if ch in "\"'":
                state = "literal"
                quote = ch
                i += 1
                continue
            i += 1
            continue
        if state == "line":
            if ch == "\n":
                state = "code"
            else:
                out.append(ch)
            i += 1
            continue
        if state == "block":
            if ch == "*" and i + 1 < n and source[i + 1] == "/":
                state = "code"
                i += 2
                continue
            out.append(ch)
            i += 1
            continue
        # literal
        if ch == "\\":
            i += 2
            continue
        if ch == quote or ch == "\n":
            state = "code"
        i += 1
    return "".join(out)


# --- Java lexer and comment attachment: the per-character originals ----------
#
# The package's previous lexer and attachment resolver, kept verbatim (only
# the two function names changed) as the reference the regex lexer and the
# indexed resolver must reproduce token for token.  They share the fact and
# error types with the package, nothing else.


@dataclass(frozen=True)
class _Token:
    kind: str  # ident|number|string|char|punct
    text: str
    line: int
    start: int
    end: int


@dataclass(frozen=True)
class _RawComment:
    kind: str
    text: str
    start_line: int
    end_line: int
    start: int
    end: int
    terminated: bool = True


_MULTI_PUNCT = (
    ">>>=", "<<=", ">>=", ">>>", "...", "->", "::",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
)

_IDENT_START = re.compile(r"[A-Za-z_$]")
_IDENT_BODY = re.compile(r"[A-Za-z0-9_$]")
_NUMBER = re.compile(r"\d(?:[\w.]|[eEpP][+-])*")


def lex_oracle(source: str, lenient: bool = False) -> tuple[list[_Token], list[_RawComment]]:
    """Tokenize Java source, returning code tokens and comment records.

    In lenient mode unterminated comments/strings run to end of input
    instead of raising; that mode backs extract_comments on arbitrary text.
    """
    tokens: list[_Token] = []
    comments: list[_RawComment] = []
    i = 0
    n = len(source)
    line = 1

    def fail(msg: str, at_line: int):
        raise ParseError(at_line, msg)

    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r\f\v":
            i += 1
            continue
        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            j = source.find("\n", i)
            end = n if j == -1 else j
            comments.append(_RawComment("line", source[i + 2 : end], line, line, i, end))
            i = end
            continue
        if ch == "/" and i + 1 < n and source[i + 1] == "*":
            start_line = line
            close = source.find("*/", i + 2)
            if close == -1:
                if not lenient:
                    fail("unterminated block comment", start_line)
                body = source[i + 2 :]
                end_line = line + body.count("\n")
                kind = "javadoc" if body.startswith("*") and len(body) > 0 else "block"
                comments.append(
                    _RawComment(kind, body, start_line, end_line, i, n, terminated=False)
                )
                log.warning("unterminated block comment at line %d runs to end of input", start_line)
                line = end_line
                i = n
                continue
            body = source[i + 2 : close]
            end_line = line + body.count("\n")
            kind = "javadoc" if source.startswith("/**", i) and close > i + 2 else "block"
            if kind == "javadoc":
                body = body[1:]  # drop the second '*' of the opener
            comments.append(_RawComment(kind, body, start_line, end_line, i, close + 2))
            line = end_line
            i = close + 2
            continue
        if ch == '"' or ch == "'":
            quote = ch
            start_line = line
            j = i + 1
            while j < n:
                c = source[j]
                if c == "\\":
                    j += 2
                    continue
                if c == "\n":
                    break
                if c == quote:
                    break
                j += 1
            if j >= n or source[j] != quote:
                if not lenient:
                    fail("unterminated %s literal" % ("string" if quote == '"' else "char"), start_line)
                j = min(j, n - 1)
            tokens.append(_Token("string" if quote == '"' else "char", source[i : j + 1], line, i, j + 1))
            i = j + 1
            continue
        if _IDENT_START.match(ch):
            j = i + 1
            while j < n and _IDENT_BODY.match(source[j]):
                j += 1
            tokens.append(_Token("ident", source[i:j], line, i, j))
            i = j
            continue
        if ch.isdigit():
            m = _NUMBER.match(source, i)
            j = m.end() if m else i + 1
            tokens.append(_Token("number", source[i:j], line, i, j))
            i = j
            continue
        for op in _MULTI_PUNCT:
            if source.startswith(op, i):
                tokens.append(_Token("punct", op, line, i, i + len(op)))
                i += len(op)
                break
        else:
            tokens.append(_Token("punct", ch, line, i, i + 1))
            i += 1
    return tokens, comments


def _token_count(text: str) -> int:
    return len(text.split())


def _comment_facts(raw: _RawComment, attachment: str) -> CommentFacts:
    return CommentFacts(
        kind=raw.kind,
        text=raw.text,
        token_count=_token_count(raw.text),
        line_range=(raw.start_line, raw.end_line),
        attachment=attachment,
    )


_ATTACH_WINDOW_LINES = 2


def resolve_attachments_oracle(
    raw_comments: list[_RawComment],
    decl_index: list[tuple[str, str, int, int, tuple[int, int]]],
) -> tuple[list[CommentFacts], dict[str, CommentFacts]]:
    """Attach each comment to a declaration or scope.

    A comment that ends within two lines above a class/method declaration
    attaches to it (and becomes its doc comment candidate); otherwise the
    innermost enclosing method or class scope wins; otherwise 'file'.
    """
    decls = sorted(decl_index, key=lambda d: d[3])
    facts: list[CommentFacts] = []
    doc_candidates: dict[str, CommentFacts] = {}
    for raw in raw_comments:
        attachment = None
        target_qname = None
        best: tuple[int, int] | None = None
        for kind, qname, line, start_off, _span in decls:
            if start_off >= raw.end and 0 <= line - raw.end_line <= _ATTACH_WINDOW_LINES:
                cand = (line, start_off)
                if best is None or cand < best:
                    best = cand
                    target_qname = qname
                    attachment = f"{'class' if kind == 'class' else 'method'}:{qname}"
        if attachment is None:
            enclosing_method = None
            enclosing_class = None
            for kind, qname, _line, _start_off, (b0, b1) in decls:
                if b0 < raw.start and raw.end <= b1:
                    if kind == "method":
                        if enclosing_method is None or b0 > enclosing_method[1]:
                            enclosing_method = (qname, b0)
                    else:
                        if enclosing_class is None or b0 > enclosing_class[1]:
                            enclosing_class = (qname, b0)
            if enclosing_method is not None:
                attachment = f"inline:{enclosing_method[0]}"
            elif enclosing_class is not None:
                attachment = f"class:{enclosing_class[0]}"
            else:
                attachment = "file"
        fact = _comment_facts(raw, attachment)
        facts.append(fact)
        if target_qname is not None:
            # closest comment wins as the doc comment
            prev = doc_candidates.get(target_qname)
            if prev is None or fact.line_range > prev.line_range:
                doc_candidates[target_qname] = fact
    return facts, doc_candidates


# --- statement diff and ROUGE-L LCS: the full-table originals ----------------
#
# The previous list-of-lists statement LCS, all-pairs modify pairing, method
# matching and ROUGE-L LCS, kept verbatim as the reference their rewrites
# (bit-parallel LCS, prefix-filtered pairing, index-based matching) must
# reproduce exactly.

_WORDISH = re.compile(r"\w+|[^\w\s]")


def lcs_align_oracle(old, new):
    """Residual removed/added statements after an order-preserving alignment.

    Statements matched in order by identical text survive unchanged even when
    their line numbers shifted; everything else is raw removed/added input
    for move and modify pairing.
    """
    a = [s.text for s in old]
    b = [s.text for s in new]
    la, lb = len(a), len(b)
    dp = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(la - 1, -1, -1):
        row = dp[i]
        nxt = dp[i + 1]
        for j in range(lb - 1, -1, -1):
            if a[i] == b[j]:
                row[j] = nxt[j + 1] + 1
            else:
                row[j] = nxt[j] if nxt[j] >= row[j + 1] else row[j + 1]
    removed = []
    added = []
    i = j = 0
    while i < la and j < lb:
        if a[i] == b[j]:
            i += 1
            j += 1
        elif dp[i + 1][j] >= dp[i][j + 1]:
            removed.append(old[i])
            i += 1
        else:
            added.append(new[j])
            j += 1
    removed.extend(old[i:])
    added.extend(new[j:])
    return removed, added


def _stmt_tokens(text: str) -> frozenset[str]:
    return frozenset(_WORDISH.findall(text))


def _jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union if union else 0.0


_MODIFY_PAIR_CAP = 250_000


def pair_modifications_oracle(removed, added, threshold: float):
    """Greedy best-similarity pairing of residual removed/added statements."""
    rem_tokens = [_stmt_tokens(s.text) for s in removed]
    add_tokens = [_stmt_tokens(s.text) for s in added]
    candidates = []
    if len(removed) * len(added) > _MODIFY_PAIR_CAP:
        for i, (rt, at) in enumerate(zip(rem_tokens, add_tokens)):
            sim = _jaccard(rt, at)
            if sim >= threshold:
                candidates.append((-sim, i, i))
    else:
        for i, rt in enumerate(rem_tokens):
            for j, at in enumerate(add_tokens):
                sim = _jaccard(rt, at)
                if sim >= threshold:
                    candidates.append((-sim, i, j))
    candidates.sort()
    used_r: set[int] = set()
    used_a: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for _negsim, i, j in candidates:
        if i in used_r or j in used_a:
            continue
        used_r.add(i)
        used_a.add(j)
        pairs.append((i, j))
    pairs.sort()
    modified = [(removed[i], added[j]) for i, j in pairs]
    rest_removed = [s for i, s in enumerate(removed) if i not in used_r]
    rest_added = [s for j, s in enumerate(added) if j not in used_a]
    return modified, rest_removed, rest_added


def match_methods_oracle(old_methods, new_methods):
    """Match methods across versions by exact signature first, then by
    (name, arity) with maximal parameter-type overlap. Leftovers are
    add/remove."""
    old_left = list(old_methods)
    new_left = list(new_methods)
    matched = []

    new_by_sig = {m.signature(): m for m in new_left}
    for m in list(old_left):
        twin = new_by_sig.get(m.signature())
        if twin is not None and twin in new_left:
            matched.append((m, twin))
            old_left.remove(m)
            new_left.remove(twin)
    # same name + arity, best type-text overlap
    for m in list(old_left):
        candidates = [
            c for c in new_left if c.name == m.name and len(c.parameters) == len(m.parameters)
        ]
        if not candidates:
            continue
        def overlap(c) -> int:
            return sum(
                1 for (t1, _), (t2, _) in zip(m.parameters, c.parameters) if t1 == t2
            )
        best = max(candidates, key=overlap)
        matched.append((m, best))
        old_left.remove(m)
        new_left.remove(best)
    return matched, old_left, new_left


def lcs_length_oracle(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for i in range(1, len(a) + 1):
        cur = [0] * (len(b) + 1)
        ai = a[i - 1]
        for j in range(1, len(b) + 1):
            if ai == b[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = cur[j - 1] if cur[j - 1] >= prev[j] else prev[j]
        prev = cur
    return prev[len(b)]


# --- METEOR chunk search: the recursive original -----------------------------
#
# The previous recursive branch and bound (bounded only by its greedy initial
# alignment) and its greedy alignment, which extended a run from every free
# equal pair, kept as the reference their rewrites must reproduce.  The one
# change: the search also returns whether it hit its node cap.

_METEOR_SEARCH_CAP = 200_000


def _max_matches(candidate: tuple[str, ...], reference: tuple[str, ...]) -> int:
    cc = Counter(candidate)
    rc = Counter(reference)
    return sum(min(count, rc[token]) for token, count in cc.items())


def meteor_search_oracle(candidate: tuple[str, ...], reference: tuple[str, ...]) -> tuple[int, int, bool]:
    """(matches, chunks, capped); recursion depth grows with the candidate."""
    target = _max_matches(candidate, reference)
    if target == 0:
        return 0, 0, False

    greedy_chunks = greedy_chunks_oracle(candidate, reference, target)
    best = [greedy_chunks]
    nodes = [0]
    capped = [False]
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
            capped[0] = True
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
    return target, best[0], capped[0]


def greedy_chunks_oracle(candidate: tuple[str, ...], reference: tuple[str, ...], target: int) -> int:
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
