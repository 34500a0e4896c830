"""Independent brute-force oracles the implementation is checked against.

Everything here is written straight from first principles (exhaustive
enumeration, literal formulas with exact fractions) and shares no code with
the package. Only usable for short inputs.  The exception is the last nine
sections: the package's previous Java lexer and comment-attachment resolver,
its previous eager declaration parser, its previous whole-file comment
attachment and elicitation, its previous statement diff and ROUGE-L LCS,
its previous METEOR chunk search, its previous Counter-based BLEU, its
previous two-pass template renderer, its previous identifier extraction,
and its previous message tokenizer and token check, kept as the reference
their rewrites must reproduce.
"""

from __future__ import annotations

import logging
import math
import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from condenser.changeset import AnnotationChange, ChangeType, FileDiff, StructuralDiff
from condenser.comments import ElicitedComment, categorize_comment, normalize_comment_text
from condenser.diffing import CommitInput
from condenser.identifiers import (
    _CATEGORY_RANK,
    CATEGORY_ORDER,
    EmphasizedIdentifier,
    simple_type_names,
    split_camel,
)
from condenser.metrics import EmptyReference, TokenSeq
from condenser.sequences import TOKEN_RE
from condenser.javafacts import (
    AnnotationFacts,
    ClassFacts,
    CommentFacts,
    FieldFacts,
    ImportFacts,
    ParseError,
    SourceFacts,
    StatementFacts,
)
from condenser.templater import (
    _DROP_CONTEXT_COMMENT,
    _DROP_FALLBACK_STMT,
    _DROP_FILE_LEVEL,
    _DROP_GENERAL_COMMENT,
    _DROP_IN_CLASS,
    _DROP_MAJOR_IDENTIFIER,
    _DROP_MINOR_IDENTIFIER,
    _DROP_OTHER_COMMENT,
    _PROTECTED,
    END_MARKER,
    TEMPLATES,
    BudgetError,
    CondensedTemplate,
    _fmt,
    _identifier_item,
    _inline_lines,
    _Line,
    _params_text,
    _simple,
    count_tokens,
)

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


def max_moves_oracle(removed: list[str], added: list[str]) -> int:
    """Maximum number of (removed, added) pairs with equal text, each
    statement used at most once; every assignment is enumerated."""
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
            if removed[i] == added[j]:
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
    text, trusting only the hunk line records themselves.  Lines end only at
    CR LF, CR or LF, the Java line terminators (JLS 3.4), so a form feed
    stays inside its line."""
    old_lines = content_old.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if old_lines[-1] == "":  # no line follows a final terminator
        old_lines.pop()
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
    instead of raising.
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
    return CommentFacts(kind=raw.kind, text=raw.text, token_count=_token_count(raw.text), attachment=attachment)


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
    doc_lines: dict[str, tuple[int, int]] = {}  # the line range of each doc candidate
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
            prev = doc_lines.get(target_qname)
            if prev is None or (raw.start_line, raw.end_line) > prev:
                doc_candidates[target_qname] = fact
                doc_lines[target_qname] = (raw.start_line, raw.end_line)
    return facts, doc_candidates


# --- Java declaration parser: the eager original ------------------------------
#
# The package's previous parse_java, which lexed every method body and built
# its statements while parsing, kept verbatim as the reference the lazy
# parser must reproduce once every body_statements is read.  Only names
# changed: parse_java_oracle, EagerMethodFacts (plus a body_text that never
# compares equal, so the diff never takes its equal-body shortcut on these
# facts), and the lexer and attachment resolver are lex_oracle and
# resolve_attachments_oracle above, which that lexer and resolver matched
# token for token.  It shares the other fact types and ParseError with the
# package.  Since the fact types lost their doc comments, no doc comment is
# attached and EagerMethodFacts has none; every comment, inline ones
# included, stays in SourceFacts.comments.  Since the fact types lost an
# annotation's target and line and a field's initializer text, which no stage
# read, it builds the package's shapes: an annotation is its name and
# arguments, and a field initializer is stepped over, not joined into text.
# Since the fact types lost a comment's line range, a field's line and a
# class's byte range, which no stage read, it builds those shapes too; a
# duplicate field's error still takes the line of its name token.  Since the
# fact types lost a statement's line, its statements have none; a method
# keeps its byte range, against which the package's SourceFacts.decls is
# checked.  Two fixes
# are mirrored from the package: parse_type_decl takes the modifiers and
# annotations its caller read, so an annotated inner type's declaration
# starts at its first modifier or annotation and its doc comment attaches to
# it; and array dimensions after a method's parameter list (`int m()[]`,
# JLS 8.4) belong to its return type.

MODIFIER_WORDS = {
    "public", "protected", "private", "abstract", "static", "final",
    "synchronized", "native", "strictfp", "transient", "volatile", "default",
}


@dataclass(frozen=True)
class EagerMethodFacts:
    name: str
    return_type: str | None  # None for constructors
    parameters: tuple[tuple[str, str], ...]  # (type text, name)
    modifiers: frozenset[str]
    annotations: tuple[AnnotationFacts, ...]
    thrown_exceptions: tuple[str, ...]
    body_statements: tuple[StatementFacts, ...]
    byte_range: tuple[int, int]
    # never equal between two methods, so the diff aligns every matched
    # pair's statements; not compared, so equality means what it meant
    body_text: object = field(default_factory=object, compare=False, repr=False)
    # no comment is kept apart from SourceFacts.comments, which holds them all
    body_comments: tuple = field(default=(), compare=False, repr=False)

    @property
    def is_constructor(self) -> bool:
        return self.return_type is None

    def signature(self) -> tuple[str, tuple[str, ...]]:
        return (self.name, tuple(t for t, _ in self.parameters))

def _blank_comments(source: str, comments: list[_RawComment]) -> str:
    """Replace comment characters with spaces, preserving newlines/offsets."""
    parts: list[str] = []
    done = 0
    for c in comments:
        parts.append(source[done : c.start])
        parts.append("\n".join(" " * len(run) for run in source[c.start : c.end].split("\n")))
        done = c.end
    parts.append(source[done:])
    return "".join(parts)

# Deeper type nesting raises ParseError (the file is then summarised at file
# level) instead of exhausting the interpreter's recursion limit.
_MAX_TYPE_NESTING = 64


class _Parser:
    def __init__(self, tokens: list[_Token], blanked: str, brace_match: dict[int, int]):
        self.toks = tokens
        self.pos = 0
        self.blanked = blanked
        self.brace_match = brace_match  # token index of each '{' -> its '}'
        self.nesting = 0
        # (kind, qualified name, decl line, decl start offset, body span)
        self.decl_index: list[tuple[str, str, int, int, tuple[int, int]]] = []

    # -- token helpers -----------------------------------------------------

    def peek(self, offset: int = 0) -> _Token | None:
        k = self.pos + offset
        return self.toks[k] if k < len(self.toks) else None

    def at(self, text: str, offset: int = 0) -> bool:
        t = self.peek(offset)
        return t is not None and t.text == text

    def take(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str, what: str) -> _Token:
        t = self.peek()
        if t is None or t.text != text:
            line = t.line if t else (self.toks[-1].line if self.toks else 1)
            raise ParseError(line, f"expected '{text}' {what}")
        return self.take()

    def expect_ident(self, what: str) -> _Token:
        t = self.peek()
        if t is None or t.kind != "ident":
            line = t.line if t else (self.toks[-1].line if self.toks else 1)
            raise ParseError(line, f"expected identifier {what}")
        return self.take()

    def skip_balanced(self, open_text: str, close_text: str) -> tuple[int, int]:
        """Consume from the current opening token through its matching close.
        Returns the (start, end) token index range, end exclusive."""
        start = self.pos
        opener = self.expect(open_text, "to open a balanced region")
        if open_text == "{":
            self.pos = self.brace_match[start] + 1
            return start, self.pos
        depth = 1
        while depth > 0:
            t = self.peek()
            if t is None:
                raise ParseError(opener.line, f"unbalanced '{open_text}'")
            if t.text == open_text:
                depth += 1
            elif t.text == close_text:
                depth -= 1
            self.take()
        return start, self.pos

    def skip_generics(self) -> None:
        """Consume a balanced <...> region; '<' nesting only (no shift ops
        appear in declaration positions for the supported subset)."""
        opener = self.expect("<", "to open type parameters")
        depth = 1
        while depth > 0:
            t = self.peek()
            if t is None:
                raise ParseError(opener.line, "unbalanced '<'")
            if t.text == "<":
                depth += 1
            elif t.text == ">":
                depth -= 1
            elif t.text == ">>":
                depth -= 2
            elif t.text == ">>>":
                depth -= 3
            self.take()

    # -- text helpers --------------------------------------------------------

    def slice_tokens(self, start: int, end: int) -> str:
        """Join token texts start..end (exclusive) into normalized text."""
        return _join_tokens(self.toks[start:end])

    # -- grammar -------------------------------------------------------------

    def parse_unit(self) -> tuple[str | None, list[ImportFacts], list[ClassFacts]]:
        package = None
        imports: list[ImportFacts] = []
        if self.at("package"):
            self.take()
            package = self.read_dotted_name("after 'package'")
            self.expect(";", "after package name")
        while self.at("import"):
            self.take()
            is_static = False
            if self.at("static"):
                self.take()
                is_static = True
            name = self.read_dotted_name("after 'import'")
            is_wildcard = False
            if self.at(".") and self.at("*", 1):
                self.take()
                self.take()
                is_wildcard = True
            self.expect(";", "after import")
            imports.append(ImportFacts(name, is_static=is_static, is_wildcard=is_wildcard))
        classes: list[ClassFacts] = []
        while self.peek() is not None:
            if self.at(";"):
                self.take()
                continue
            mods, annos, start_off, start_line = self.parse_modifiers_and_annotations()
            classes.append(self.parse_type_decl("", mods, annos, start_off, start_line))
        return package, imports, classes

    def read_dotted_name(self, what: str) -> str:
        parts = [self.expect_ident(what).text]
        while self.at(".") and (t := self.peek(1)) is not None and t.kind == "ident":
            self.take()
            parts.append(self.take().text)
        return ".".join(parts)

    def parse_annotation(self) -> AnnotationFacts:
        self.expect("@", "to start annotation")
        name = self.read_dotted_name("after '@'")
        argument_text = None
        if self.at("("):
            s, e = self.skip_balanced("(", ")")
            inner = self.slice_tokens(s + 1, e - 1)
            argument_text = inner or None
        return AnnotationFacts(name=name, argument_text=argument_text)

    def parse_modifiers_and_annotations(self) -> tuple[set[str], list[AnnotationFacts], int | None, int | None]:
        """Returns (modifiers, annotations, start offset, start line) where
        start marks the declaration's first modifier or annotation token."""
        mods: set[str] = set()
        annos: list[AnnotationFacts] = []
        start: int | None = None
        start_line: int | None = None
        while True:
            t = self.peek()
            if t is None:
                break
            if t.text == "@" and not self.at("interface", 1):
                if start is None:
                    start, start_line = t.start, t.line
                annos.append(self.parse_annotation())
                continue
            if t.kind == "ident" and t.text in MODIFIER_WORDS:
                if start is None:
                    start, start_line = t.start, t.line
                mods.add(self.take().text)
                continue
            break
        return mods, annos, start, start_line

    def parse_type_decl(
        self,
        prefix: str,
        mods: set[str],
        annos: list[AnnotationFacts],
        start_off: int | None,
        start_line: int | None,
    ) -> ClassFacts:
        t = self.peek()
        if t is None:
            raise ParseError(self.toks[-1].line if self.toks else 1, "expected type declaration")
        if t.text == "@" and self.at("interface", 1):
            self.take()
            self.take()
            kind = "annotation-decl"
        elif t.text in ("class", "interface", "enum"):
            kind = self.take().text
        else:
            raise ParseError(t.line, f"expected type declaration, found '{t.text}'")
        if start_off is None:
            start_off, start_line = t.start, t.line
        name_tok = self.expect_ident("as type name")
        qname = f"{prefix}.{name_tok.text}" if prefix else name_tok.text
        if self.at("<"):
            self.skip_generics()
        extends_types: list[str] = []
        implements_types: list[str] = []
        if self.at("extends"):
            self.take()
            extends_types = self.read_type_list(("implements", "{"))
        if self.at("implements"):
            self.take()
            implements_types = self.read_type_list(("{",))
        open_tok = self.expect("{", "to open type body")
        if self.nesting == _MAX_TYPE_NESTING:
            raise ParseError(name_tok.line, f"type {name_tok.text} nested deeper than {_MAX_TYPE_NESTING} levels")
        self.nesting += 1
        fields, methods, inners = self.parse_class_body(name_tok.text, qname, kind)
        self.nesting -= 1
        close = self.toks[self.pos - 1]
        self.decl_index.append(("class", qname, start_line or name_tok.line, start_off, (open_tok.start, close.end)))
        self.check_uniqueness(qname, name_tok.line, fields, methods)
        return ClassFacts(
            name=name_tok.text,
            kind=kind,
            modifiers=frozenset(mods),
            annotations=tuple(annos),
            extends_types=tuple(extends_types),
            implements_types=tuple(implements_types),
            fields=tuple(f for f, _line in fields),
            methods=tuple(methods),
            inner_classes=tuple(inners),
        )

    def check_uniqueness(self, qname: str, line: int, fields: list, methods: list[MethodFacts]) -> None:
        seen_sig: set[tuple[str, tuple[str, ...]]] = set()
        for m in methods:
            sig = m.signature()
            if sig in seen_sig:
                raise ParseError(line, f"duplicate method signature {qname}.{sig[0]}({', '.join(sig[1])})")
            seen_sig.add(sig)
        seen_fields: set[str] = set()
        for f, field_line in fields:
            if f.name in seen_fields:
                raise ParseError(field_line, f"duplicate field {qname}.{f.name}")
            seen_fields.add(f.name)

    def read_type_list(self, stop_words: tuple[str, ...]) -> list[str]:
        names: list[str] = []
        while True:
            names.append(self.read_type_text("in type list"))
            if self.at(","):
                self.take()
                continue
            t = self.peek()
            if t is None or t.text in stop_words:
                break
            break
        return names

    def read_type_text(self, what: str) -> str:
        """Read one type reference: dotted name, generics, array brackets."""
        start = self.pos
        t = self.peek()
        if t is None:
            raise ParseError(self.toks[-1].line if self.toks else 1, f"expected type {what}")
        if t.kind != "ident":
            raise ParseError(t.line, f"expected type {what}, found '{t.text}'")
        self.take()
        while True:
            if self.at(".") and (nxt := self.peek(1)) is not None and nxt.kind == "ident":
                self.take()
                self.take()
                continue
            if self.at("<"):
                self.skip_generics()
                continue
            if self.at("[") and self.at("]", 1):
                self.take()
                self.take()
                continue
            break
        return self.slice_tokens(start, self.pos)

    def parse_class_body(
        self, simple_name: str, qname: str, kind: str
    ) -> tuple[list[tuple[FieldFacts, int]], list[MethodFacts], list[ClassFacts]]:
        fields: list[tuple[FieldFacts, int]] = []  # each field with its name token's line
        methods: list[MethodFacts] = []
        inners: list[ClassFacts] = []
        if kind == "enum":
            self.parse_enum_constants(simple_name, fields)
        while True:
            t = self.peek()
            if t is None:
                raise ParseError(self.toks[-1].line, f"unclosed body of {qname}")
            if t.text == "}":
                self.take()
                return fields, methods, inners
            if t.text == ";":
                self.take()
                continue
            if t.text == "{":  # instance initializer block
                self.skip_balanced("{", "}")
                continue
            if t.text == "static" and self.at("{", 1):  # static initializer
                self.take()
                self.skip_balanced("{", "}")
                continue
            self.parse_member(simple_name, qname, fields, methods, inners)

    def parse_enum_constants(self, simple_name: str, fields: list[tuple[FieldFacts, int]]) -> None:
        while True:
            t = self.peek()
            if t is None or t.text in (";", "}"):
                if t is not None and t.text == ";":
                    self.take()
                return
            annos: list[AnnotationFacts] = []
            while self.at("@"):
                annos.append(self.parse_annotation())
            name_tok = self.expect_ident("as enum constant")
            if self.at("("):
                self.skip_balanced("(", ")")
            if self.at("{"):
                self.skip_balanced("{", "}")
            fields.append((
                FieldFacts(
                    name=name_tok.text,
                    type_text=simple_name,
                    modifiers=frozenset({"public", "static", "final"}),
                    annotations=tuple(annos),
                    is_enum_constant=True,
                ),
                name_tok.line,
            ))
            if self.at(","):
                self.take()
                continue

    def parse_member(
        self,
        simple_name: str,
        qname: str,
        fields: list[tuple[FieldFacts, int]],
        methods: list[MethodFacts],
        inners: list[ClassFacts],
    ) -> None:
        mods, annos, start_off, start_line = self.parse_modifiers_and_annotations()
        t = self.peek()
        if t is None:
            raise ParseError(self.toks[-1].line, f"unexpected end of {qname} body")
        if t.text in ("class", "interface", "enum") or (t.text == "@" and self.at("interface", 1)):
            inners.append(self.parse_type_decl(qname, mods, annos, start_off, start_line))
            return
        if t.text == "<":  # generic method type parameters
            self.skip_generics()
            t = self.peek()
            if t is None:
                raise ParseError(self.toks[-1].line, "unexpected end after type parameters")
        if start_off is None:
            start_off, start_line = t.start, t.line
        # constructor: ClassName (
        if t.kind == "ident" and t.text == simple_name and self.at("(", 1):
            name_tok = self.take()
            methods.append(self.parse_method_rest(name_tok, None, mods, annos, qname, start_off, start_line))
            return
        return_type = self.read_type_text(f"in member of {qname}")
        name_tok = self.expect_ident(f"as member name in {qname}")
        if self.at("("):
            methods.append(self.parse_method_rest(name_tok, return_type, mods, annos, qname, start_off, start_line))
            return
        # field declarator list
        while True:
            decl_name = name_tok.text
            decl_type = return_type
            while self.at("[") and self.at("]", 1):
                self.take()
                self.take()
                decl_type += "[]"
            if self.at("="):
                self.take()
                depth = 0
                while True:
                    tok = self.peek()
                    if tok is None:
                        raise ParseError(name_tok.line, f"unterminated field initializer for {decl_name}")
                    if tok.text in ("(", "{", "["):
                        depth += 1
                    elif tok.text in (")", "}", "]"):
                        depth -= 1
                    elif depth == 0 and tok.text in (",", ";"):
                        break
                    self.take()
            fields.append((
                FieldFacts(name=decl_name, type_text=decl_type, modifiers=frozenset(mods), annotations=tuple(annos)),
                name_tok.line,
            ))
            if self.at(","):
                self.take()
                name_tok = self.expect_ident("as field name")
                continue
            self.expect(";", f"after field {decl_name}")
            return

    def parse_method_rest(
        self,
        name_tok: _Token,
        return_type: str | None,
        mods: set[str],
        annos: list[AnnotationFacts],
        qname: str,
        start_off: int,
        start_line: int | None = None,
    ) -> MethodFacts:
        self.expect("(", "to open parameter list")
        params: list[tuple[str, str]] = []
        seen_param_names: set[str] = set()
        while not self.at(")"):
            while self.at("@"):
                self.parse_annotation()  # parameter annotations dropped
            if self.at("final"):
                self.take()
            ptype = self.read_type_text(f"as parameter type of {qname}.{name_tok.text}")
            while self.at("@"):
                self.parse_annotation()  # type annotations on '...' dropped
            if self.at("..."):
                self.take()
                ptype += "..."
            pname_tok = self.expect_ident("as parameter name")
            while self.at("[") and self.at("]", 1):
                self.take()
                self.take()
                ptype += "[]"
            if pname_tok.text in seen_param_names:
                raise ParseError(pname_tok.line, f"duplicate parameter {pname_tok.text} in {qname}.{name_tok.text}")
            seen_param_names.add(pname_tok.text)
            params.append((ptype, pname_tok.text))
            if self.at(","):
                self.take()
        self.expect(")", "to close parameter list")
        while return_type not in (None, "void") and self.at("[") and self.at("]", 1):
            self.take()
            self.take()
            return_type += "[]"
        thrown: list[str] = []
        if self.at("throws"):
            self.take()
            thrown = self.read_type_list(("{", ";"))
        statements: tuple[StatementFacts, ...] = ()
        if self.at("{"):
            open_tok = self.peek()
            body_start, body_end = self.skip_balanced("{", "}")
            statements = tuple(
                _scan_statements(self.toks[body_start + 1 : body_end - 1], self.blanked)
            )
            end_off = self.toks[body_end - 1].end
            body_span = (open_tok.start, end_off)
        elif self.at("default"):
            # an annotation-type element's default value (JLS 9.6.2): dropped
            self.take()
            while not self.at(";"):
                if self.peek() is None:
                    raise ParseError(name_tok.line, "unterminated default value")
                self.take()
            end_off = self.take().end
            body_span = (end_off, end_off)
        else:
            end_off = self.expect(";", "after abstract method").end
            body_span = (end_off, end_off)
        method_qname = f"{qname}.{name_tok.text}"
        self.decl_index.append(("method", method_qname, start_line or name_tok.line, start_off, body_span))
        return EagerMethodFacts(
            name=name_tok.text,
            return_type=return_type,
            parameters=tuple(params),
            modifiers=frozenset(mods),
            annotations=tuple(annos),
            thrown_exceptions=tuple(thrown),
            body_statements=statements,
            byte_range=(start_off, end_off),
        )

# ---------------------------------------------------------------------------
# Token joining / statement scanning
# ---------------------------------------------------------------------------

_NO_SPACE_BEFORE = {";", ",", ")", "]", "[", ".", "...", "++", "--", "::"}
_NO_SPACE_AFTER = {"(", "[", ".", "@", "::"}
_TYPE_GLUE = {"<", ">", ">>", ">>>"}


def _join_tokens(tokens: list[_Token]) -> str:
    """Render a token run as compact single-line text."""
    out: list[str] = []
    prev: _Token | None = None
    for t in tokens:
        if prev is not None:
            if t.text in _NO_SPACE_BEFORE or prev.text in _NO_SPACE_AFTER:
                pass
            elif (t.text in _TYPE_GLUE or prev.text in _TYPE_GLUE) and t.text != "extends" and prev.text != "extends":
                pass
            elif prev.text in ("extends", "super") or t.text in ("extends", "super"):
                out.append(" ")
            elif t.text == "<" or prev.text in ("<",):
                pass
            else:
                out.append(" ")
        out.append(t.text)
        prev = t
    return "".join(out)


_STMT_SIMPLE_KEYWORDS = {
    "throw": "throw",
    "return": "return",
    "break": "other",
    "continue": "other",
    "assert": "other",
    "yield": "other",
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="}


def _scan_statements(tokens: list[_Token], blanked: str) -> list[StatementFacts]:
    """Flatten a method body token stream into statement records.

    Control headers (if/for/try/...) become their own records; their blocks
    are scanned recursively in the same flat pass. Anything unrecognized is
    collected up to the next top-level ';' and classified coarsely.
    """
    stmts: list[StatementFacts] = []
    i = 0
    n = len(tokens)

    def slice_text(a: int, b: int) -> str:
        if a >= b:
            return ""
        raw = blanked[tokens[a].start : tokens[b - 1].end]
        return re.sub(r"\s+", " ", raw).strip()

    def balanced_end(start: int, open_t: str, close_t: str) -> int:
        depth = 0
        k = start
        while k < n:
            if tokens[k].text == open_t:
                depth += 1
            elif tokens[k].text == close_t:
                depth -= 1
                if depth == 0:
                    return k + 1
            k += 1
        return n

    while i < n:
        t = tokens[i]
        text = t.text
        if text in ("{", "}"):
            i += 1
            continue
        if text == ";":
            i += 1
            continue
        if text in ("if", "while", "switch", "synchronized"):
            kind = "branch" if text in ("if", "switch") else ("loop" if text == "while" else "other")
            end = i + 1
            if end < n and tokens[end].text == "(":
                end = balanced_end(end, "(", ")")
            stmts.append(StatementFacts(kind, slice_text(i, end)))
            i = end
            continue
        if text == "for":
            end = i + 1
            if end < n and tokens[end].text == "(":
                end = balanced_end(end, "(", ")")
            stmts.append(StatementFacts("loop", slice_text(i, end)))
            i = end
            continue
        if text == "do":
            stmts.append(StatementFacts("loop", "do"))
            i += 1
            continue
        if text == "else":
            if i + 1 < n and tokens[i + 1].text == "if":
                end = i + 2
                if end < n and tokens[end].text == "(":
                    end = balanced_end(end, "(", ")")
                stmts.append(StatementFacts("branch", slice_text(i, end)))
                i = end
            else:
                stmts.append(StatementFacts("branch", "else"))
                i += 1
            continue
        if text in ("try", "finally"):
            end = i + 1
            if text == "try" and end < n and tokens[end].text == "(":
                end = balanced_end(end, "(", ")")
            stmts.append(StatementFacts("try", slice_text(i, end)))
            i = end
            continue
        if text == "catch":
            end = i + 1
            if end < n and tokens[end].text == "(":
                end = balanced_end(end, "(", ")")
            stmts.append(StatementFacts("try", slice_text(i, end)))
            i = end
            continue
        if text in ("case", "default") and _looks_like_switch_label(tokens, i):
            end = i
            depth = 0
            while end < n:
                tt = tokens[end].text
                if tt in ("(", "[") :
                    depth += 1
                elif tt in (")", "]"):
                    depth -= 1
                elif tt == ":" and depth == 0:
                    end += 1
                    break
                end += 1
            stmts.append(StatementFacts("branch", slice_text(i, end)))
            i = end
            continue
        if text in _STMT_SIMPLE_KEYWORDS:
            end = i
            depth = 0
            while end < n:
                tt = tokens[end].text
                if tt in ("(", "[", "{"):
                    depth += 1
                elif tt in (")", "]", "}"):
                    depth -= 1
                elif tt == ";" and depth == 0:
                    end += 1
                    break
                end += 1
            stmts.append(StatementFacts(_STMT_SIMPLE_KEYWORDS[text], slice_text(i, end)))
            i = end
            continue
        # label: `name :` followed by a statement keyword
        if (
            t.kind == "ident"
            and i + 1 < n
            and tokens[i + 1].text == ":"
            and i + 2 < n
            and tokens[i + 2].text in ("for", "while", "do", "if", "switch", "try")
        ):
            i += 2
            continue
        # generic statement: collect to top-level ';'
        end = i
        depth = 0
        saw_eq = False
        while end < n:
            tt = tokens[end].text
            if tt in ("(", "[") or (tt == "{" and (depth > 0 or saw_eq or _prev_is_expr(tokens, end))):
                depth += 1
            elif tt == "{" and depth == 0:
                break  # mis-grabbed a block opener; stop before it
            elif tt in (")", "]", "}"):
                depth -= 1
                if depth < 0:
                    break
            elif tt == ";" and depth == 0:
                end += 1
                break
            if tt in _ASSIGN_OPS and depth == 0:
                saw_eq = True
            end += 1
        if end == i:
            i += 1
            continue
        stmts.append(StatementFacts(_classify_generic(tokens[i:end]), slice_text(i, end)))
        i = end
    return stmts


def _looks_like_switch_label(tokens: list[_Token], i: int) -> bool:
    depth = 0
    for k in range(i, min(i + 40, len(tokens))):
        tt = tokens[k].text
        if tt in ("(", "["):
            depth += 1
        elif tt in (")", "]"):
            depth -= 1
        elif depth == 0 and tt == ":":
            return True
        elif depth == 0 and tt in (";", "{", "}"):
            return False
    return False


def _prev_is_expr(tokens: list[_Token], i: int) -> bool:
    """Heuristic: a '{' continues the current expression (anonymous class or
    array literal) when preceded by ')' or ']' or '=' style contexts."""
    if i == 0:
        return False
    prev = tokens[i - 1].text
    return prev in (")", "]", "=", ",", "{")


def _classify_generic(tokens: list[_Token]) -> str:
    depth = 0
    has_assign = False
    has_call = False
    for idx, t in enumerate(tokens):
        if t.text in ("(", "[", "{"):
            depth += 1
            if t.text == "(" and idx > 0 and tokens[idx - 1].kind == "ident":
                if depth == 1:
                    has_call = True
        elif t.text in (")", "]", "}"):
            depth -= 1
        elif depth == 0 and t.text in _ASSIGN_OPS:
            has_assign = True
            break
        elif depth == 0 and t.text in ("++", "--"):
            has_assign = True
    if not has_assign and _looks_like_declaration(tokens):
        return "declaration"
    if has_assign:
        if _looks_like_declaration(tokens):
            return "declaration"
        return "assignment"
    if has_call:
        return "invocation"
    if tokens and tokens[0].text == "new":
        return "invocation"
    return "other"


def _looks_like_declaration(tokens: list[_Token]) -> bool:
    """Type-then-name shape at the statement head, e.g. `Map<K,V> m = ...`."""
    i = 0
    n = len(tokens)
    if i < n and tokens[i].text == "final":
        i += 1
    if i >= n or tokens[i].kind != "ident":
        return False
    if tokens[i].text in ("this", "super", "new"):
        return False
    i += 1
    while i < n:
        t = tokens[i].text
        if t == "." and i + 1 < n and tokens[i + 1].kind == "ident":
            i += 2
            continue
        if t == "<":
            depth = 1
            i += 1
            while i < n and depth > 0:
                if tokens[i].text == "<":
                    depth += 1
                elif tokens[i].text == ">":
                    depth -= 1
                elif tokens[i].text == ">>":
                    depth -= 2
                i += 1
            continue
        if t == "[" and i + 1 < n and tokens[i + 1].text == "]":
            i += 2
            continue
        break
    return i < n and tokens[i].kind == "ident" and (i + 1 >= n or tokens[i + 1].text in ("=", ";", ",", "[", ":"))

def _match_braces(tokens: list[_Token], path: str) -> dict[int, int]:
    """Map the token index of each '{' to that of its matching '}'; raise
    ParseError when the braces do not balance."""
    match: dict[int, int] = {}
    opened: list[int] = []
    for k, t in enumerate(tokens):
        if t.text == "{":
            opened.append(k)
        elif t.text == "}":
            if not opened:
                raise ParseError(t.line, f"unbalanced '}}' in {path}")
            match[opened.pop()] = k
    if opened:
        raise ParseError(tokens[-1].line, f"unbalanced '{{' in {path}")
    return match


def parse_java_oracle(source: str, path: str = "<memory>", old: object = None) -> SourceFacts:
    """Parse Java source text into declaration-level facts.

    Total over the supported subset; unrecognized body constructs degrade to
    StatementFacts of kind 'other'. Raises ParseError for unbalanced braces,
    unterminated comments/strings, duplicate declarations, or inputs without
    a type declaration.  The previous version of the file, old, is not read:
    the original always parses the whole text.
    """
    tokens, raw_comments = lex_oracle(source, lenient=False)
    parser = _Parser(tokens, _blank_comments(source, raw_comments), _match_braces(tokens, path))
    package, imports, classes = parser.parse_unit()
    if not classes:
        raise ParseError(1, f"no type declaration in {path}")
    seen_qnames: set[str] = set()
    for kind, qname, line, _off, _span in parser.decl_index:
        if kind == "class":
            if qname in seen_qnames:
                raise ParseError(line, f"duplicate type declaration {qname} in {path}")
            seen_qnames.add(qname)
    comments, _docs = resolve_attachments_oracle(raw_comments, parser.decl_index)
    return SourceFacts(
        package_name=package,
        imports=tuple(imports),
        classes=tuple(classes),
        comments=tuple(comments),
    )


# --- comment attachment and elicitation: the whole-file originals -----------
#
# The package's previous _resolve_attachments, which attached every comment
# of a file (a comment in a method body included) by bisecting declaration
# offsets and sweeping the nested body spans, and its previous
# elicit_comments, which keyed and set-differenced every comment of both
# versions by (normalized text, attachment), kept verbatim.  Only names
# changed: sweep_attachments_oracle and elicit_comments_oracle.  Two
# behaviours differ on purpose from the package's: a comment at the end of
# a method body attaches to a declaration that starts within two lines below
# it, and a renamed class's unchanged comments are both added and removed.


def sweep_attachments_oracle(
    raw_comments: list[_RawComment],
    decl_index: list[tuple[str, str, int, int, tuple[int, int]]],
) -> tuple[list[CommentFacts], dict[str, CommentFacts]]:
    """Attach each comment to a declaration or scope.

    A comment that ends within two lines above a class/method declaration
    attaches to it (and becomes its doc comment candidate); otherwise the
    innermost enclosing method or class scope wins; otherwise 'file'.

    raw_comments come in source order, as _lex returns them.  The nearest
    declaration after a comment is found by bisecting the declaration start
    offsets: a declaration's line is that of its first token, so lines grow
    with offsets and the first declaration after the comment is the only
    candidate.  Enclosing scopes come from a sweep that keeps a stack of the
    body spans opened so far; spans nest, and method bodies hold no
    declarations, so the top of the stack is the innermost scope.
    """
    decls = sorted(decl_index, key=lambda d: d[3])
    starts = [d[3] for d in decls]
    bodies = sorted((d for d in decls if d[4][0] < d[4][1]), key=lambda d: d[4][0])
    open_bodies: list[tuple[str, str, int, int, tuple[int, int]]] = []
    next_body = 0
    facts: list[CommentFacts] = []
    doc_candidates: dict[str, CommentFacts] = {}
    doc_lines: dict[str, tuple[int, int]] = {}  # the line range of each doc candidate
    for raw in raw_comments:
        while next_body < len(bodies) and bodies[next_body][4][0] < raw.start:
            open_bodies.append(bodies[next_body])
            next_body += 1
        # spans that closed before this comment leave the top; what remains
        # on top contains the comment, and any span opened inside it lies above
        while open_bodies and open_bodies[-1][4][1] < raw.end:
            open_bodies.pop()
        target_qname = None
        k = bisect_left(starts, raw.end)
        if k < len(decls) and 0 <= decls[k][2] - raw.end_line <= _ATTACH_WINDOW_LINES:
            kind, target_qname = decls[k][0], decls[k][1]
            attachment = f"{kind}:{target_qname}"
        elif open_bodies:
            kind, qname = open_bodies[-1][0], open_bodies[-1][1]
            attachment = f"inline:{qname}" if kind == "method" else f"class:{qname}"
        else:
            attachment = "file"
        fact = _comment_facts(raw, attachment)
        facts.append(fact)
        if target_qname is not None:
            # closest comment wins as the doc comment
            prev = doc_lines.get(target_qname)
            if prev is None or (raw.start_line, raw.end_line) > prev:
                doc_candidates[target_qname] = fact
                doc_lines[target_qname] = (raw.start_line, raw.end_line)
    return facts, doc_candidates


def _comment_key(comment: CommentFacts) -> tuple[str, str]:
    return (normalize_comment_text(comment.text), comment.attachment)


def _touched_attachments(diff: StructuralDiff) -> set[str]:
    """Attachment strings for entities the diff records touch."""
    touched: set[str] = set()
    for fd in diff.files:
        for name in fd.class_added + fd.class_removed:
            touched.add(f"class:{name}")
        for old_name, new_name in fd.class_renamed:
            touched.add(f"class:{old_name}")
            touched.add(f"class:{new_name}")
        for cname, m in list(fd.method_added) + list(fd.method_removed):
            touched.add(f"method:{cname}.{m.name}")
        for ic in fd.inline_changes:
            touched.add(f"method:{ic.class_name}.{ic.method_name}")
        for cname, f in list(fd.field_added) + list(fd.field_removed):
            touched.add(f"class:{cname}")
    return touched


def elicit_comments_oracle(
    old: SourceFacts, new: SourceFacts, diff: StructuralDiff
) -> list[ElicitedComment]:
    """Comments added/removed between versions, plus unchanged doc comments
    attached to entities the diff touches (rendered after the changed ones).

    Duplicates (same normalized text and attachment) are emitted once.
    Unchanged license boilerplate is suppressed: a license header that did
    not change is noise for every commit that touches the file.
    """
    # each comment's key, computed once: normalizing is the costly part
    old_keyed = [(c, _comment_key(c)) for c in old.comments]
    new_keyed = [(c, _comment_key(c)) for c in new.comments]
    old_keys = {key for _c, key in old_keyed}
    new_keys = {key for _c, key in new_keyed}

    out: list[ElicitedComment] = []
    seen: set[tuple[str, str, str]] = set()

    def emit(comment: CommentFacts, key: tuple[str, str], origin: str) -> None:
        text, attachment = key
        if not text:
            return
        category = categorize_comment(comment)
        if origin == "context" and category == "license":
            return
        emitted = (text, attachment, origin)
        if emitted in seen:
            return
        seen.add(emitted)
        out.append(ElicitedComment(category=category, text=text, origin=origin, attachment=attachment))

    for comment, key in new_keyed:
        if key not in old_keys:
            emit(comment, key, "added")
    for comment, key in old_keyed:
        if key not in new_keys:
            emit(comment, key, "removed")

    changed_keys = {(t, a) for t, a, _o in seen}
    touched = _touched_attachments(diff)
    for keyed in (new_keyed, old_keyed):
        for comment, key in keyed:
            if comment.attachment not in touched:
                continue
            if comment.attachment.startswith("inline:"):
                continue
            if key in changed_keys:
                continue
            emit(comment, key, "context")
    return out


# --- statement diff and ROUGE-L LCS: the full-table originals ----------------
#
# The previous list-of-lists statement LCS, all-pairs modify pairing, method
# matching and ROUGE-L LCS, kept verbatim as the reference their rewrites
# (bit-parallel LCS, prefix-filtered pairing, index-based matching) must
# reproduce exactly.

_WORDISH = re.compile(r"\w+|[^\w\s]")


def lcs_align_oracle(old, new):
    """Residual removed/added statements after an order-preserving alignment.

    Statements matched in order by identical text survive unchanged;
    everything else is raw removed/added input for move and modify pairing.
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


# --- BLEU: the Counter-based original -----------------------------------------
#
# The previous bleu_norm, verbatim: two Counters of tuple slices per order.
# Its float arithmetic is the reference the one-table rewrite must reproduce
# bit for bit, so compare with ==.


def _ngrams(tokens: tuple[str, ...], n: int) -> Counter:
    return Counter(tokens[i : i + n] for i in range(len(tokens) - n + 1))


def bleu_counter_oracle(candidate: TokenSeq, reference: TokenSeq) -> float:
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


# --- template rendering: the two-pass original -------------------------------
#
# The previous render with its _build_lines, _file_lines, _class_order and
# _method_lines, verbatim except for the name render_oracle: it lists the
# touched classes in one pass, re-walks every record list once per class,
# and queues the section headers as droppable lines.  The one-pass rewrite
# must return the same CondensedTemplate, or raise the same BudgetError,
# at every budget.


def _method_lines(kind: str, cname: str, m, lines: list[_Line]) -> None:
    # kind is 'added' or 'removed'
    if m.is_constructor:
        key = f"constructor_{kind}" + ("_params" if m.parameters else "")
        fields = {"method": m.name}
    else:
        key = f"method_{kind}" + ("_params" if m.parameters else "")
        fields = {"method": m.name, "type": m.return_type}
    if m.parameters:
        fields["params"] = _params_text(m.parameters)
    lines.append(_Line(_fmt(key, **fields), "summary", _PROTECTED))


def _class_order(fd: FileDiff) -> list[str]:
    touched: list[str] = []

    def note(name: str) -> None:
        if name not in touched:
            touched.append(name)

    for old_name, new_name in fd.class_renamed:
        note(new_name)
    for name in fd.class_removed:
        note(name)
    for name in fd.class_added:
        note(name)
    for cname, _f in fd.field_removed:
        note(cname)
    for cname, _m in fd.method_removed:
        note(cname)
    for cname, _f in fd.field_added:
        note(cname)
    for cname, _m in fd.method_added:
        note(cname)
    for cname, _fname, _o, _n in fd.field_retyped:
        note(cname)
    for cname, _k, _t in fd.supertype_removed + fd.supertype_added:
        note(cname)
    for ac in fd.annotation_changes:
        note(ac.owner)
    for ic in fd.inline_changes:
        note(ic.class_name)
    # source order wins where known; anything else keeps record order
    ordered = [name for name in fd.class_order if name in touched]
    ordered.extend(name for name in touched if name not in ordered)
    return ordered


def _file_lines(fd: FileDiff, prev_package: str | None, lines: list[_Line]) -> str | None:
    """Append one file's summary lines; returns the package emitted."""
    if fd.package_name and fd.package_name != prev_package:
        lines.append(_Line(_fmt("package_line", package=fd.package_name), "summary", _DROP_FILE_LEVEL))
    if not fd.is_java:
        lines.append(_Line(_fmt("file_skipped", file=fd.path), "summary", _DROP_FILE_LEVEL))
        return fd.package_name or prev_package
    if fd.status == "added":
        lines.append(_Line(_fmt("file_added", file=fd.path), "summary", _DROP_FILE_LEVEL))
    elif fd.status == "deleted":
        lines.append(_Line(_fmt("file_deleted", file=fd.path), "summary", _DROP_FILE_LEVEL))
    elif fd.status == "renamed":
        lines.append(_Line(_fmt("file_renamed", old_file=fd.path_old or fd.path, file=fd.path), "summary", _DROP_FILE_LEVEL))
    else:
        lines.append(_Line(_fmt("file_modified", file=fd.path), "summary", _DROP_FILE_LEVEL))

    for name in fd.import_removed:
        lines.append(_Line(_fmt("import_removed", name=name), "summary", _DROP_IN_CLASS))
    for name in fd.import_added:
        lines.append(_Line(_fmt("import_added", name=name), "summary", _DROP_IN_CLASS))

    if fd.is_empty() and fd.status == "modified":
        lines.append(_Line(_fmt("fallback_other_change", file=fd.path), "summary", _DROP_FALLBACK_STMT))
        return fd.package_name or prev_package

    renamed_to = {n: o for o, n in fd.class_renamed}
    added = set(fd.class_added)
    removed = set(fd.class_removed)
    for cname in _class_order(fd):
        simple = _simple(cname)
        if cname in renamed_to:
            lines.append(_Line(_fmt("class_renamed", old_cls=_simple(renamed_to[cname]), cls=simple), "summary", _DROP_IN_CLASS))
        elif cname in added:
            lines.append(_Line(_fmt("class_added", cls=simple), "summary", _DROP_IN_CLASS))
        elif cname in removed:
            lines.append(_Line(_fmt("class_removed", cls=simple), "summary", _DROP_IN_CLASS))
        elif not fd.single_class:
            lines.append(_Line(_fmt("class_context", cls=simple), "summary", _DROP_IN_CLASS))

        for owner, f in fd.field_removed:
            if owner == cname:
                lines.append(_Line(_fmt("field_removed", field=f.name, type=f.type_text), "summary", _DROP_IN_CLASS))
        for owner, m in fd.method_removed:
            if owner == cname:
                _method_lines("removed", cname, m, lines)
        for owner, f in fd.field_added:
            if owner == cname:
                lines.append(_Line(_fmt("field_added", field=f.name, type=f.type_text), "summary", _DROP_IN_CLASS))
        for owner, m in fd.method_added:
            if owner == cname:
                _method_lines("added", cname, m, lines)
        for owner, fname, old_t, new_t in fd.field_retyped:
            if owner == cname:
                lines.append(_Line(_fmt("field_retyped", field=fname, old_type=old_t, new_type=new_t), "summary", _DROP_IN_CLASS))
        for owner, kind, t in fd.supertype_removed:
            if owner == cname:
                lines.append(_Line(_fmt(f"supertype_removed_{kind}", cls=simple, type=t), "summary", _DROP_IN_CLASS))
        for owner, kind, t in fd.supertype_added:
            if owner == cname:
                lines.append(_Line(_fmt(f"supertype_added_{kind}", cls=simple, type=t), "summary", _DROP_IN_CLASS))
        for ac in fd.annotation_changes:
            if ac.owner == cname:
                key = "class_annotation_added" if ac.origin == "added" else "class_annotation_removed"
                lines.append(_Line(_fmt(key, name=ac.name, target=ac.target), "summary", _DROP_IN_CLASS))
        for ic in fd.inline_changes:
            if ic.class_name == cname:
                _inline_lines(ic, lines)
    return fd.package_name or prev_package


def _build_lines(
    commit: CommitInput,
    diff: StructuralDiff,
    change_type: ChangeType,
    comments: list[ElicitedComment],
    annotations: list[AnnotationChange],
    identifiers: list[EmphasizedIdentifier],
) -> tuple[str, list[_Line]]:
    if change_type.value == "Ty11":
        header = _fmt("header_blank_type", repo=commit.repo_name, ty=change_type.value)
    else:
        header = _fmt("header", repo=commit.repo_name, label=change_type.label, ty=change_type.value)

    lines: list[_Line] = []
    prev_package: str | None = None
    for fd in diff.files:
        prev_package = _file_lines(fd, prev_package, lines)
    lines.append(_Line(END_MARKER, "summary", _PROTECTED))

    comment_lines: list[_Line] = []
    for origin, key in (("added", "comment_added"), ("removed", "comment_removed"), ("context", "comment_context")):
        for c in comments:
            if c.origin != origin:
                continue
            drop = _DROP_CONTEXT_COMMENT if origin == "context" else (
                _DROP_GENERAL_COMMENT if c.category == "general" else _DROP_OTHER_COMMENT
            )
            comment_lines.append(_Line(_fmt(key, category=c.category, text=c.text), "comments", drop))

    for a in annotations:
        key = "annotation_added" if a.origin == "added" else "annotation_removed"
        comment_lines.append(_Line(_fmt(key, name=a.name, target=a.target), "comments", _DROP_OTHER_COMMENT))
    if comment_lines:
        lines.append(_Line(TEMPLATES["comments_header"], "comments", _PROTECTED))
        lines.extend(comment_lines)

    id_lines: list[_Line] = []
    for category in CATEGORY_ORDER:
        items = [_identifier_item(e) for e in identifiers if e.category == category]
        if not items:
            continue
        drop = _DROP_MINOR_IDENTIFIER if category in ("TypeName", "Other") else _DROP_MAJOR_IDENTIFIER
        id_lines.append(_Line(_fmt("identifier_line", category=category, items=", ".join(items)), "identifiers", drop))
    if id_lines:
        lines.append(_Line(TEMPLATES["identifiers_header"], "identifiers", _PROTECTED))
        lines.extend(id_lines)
    return header, lines


def render_oracle(
    commit: CommitInput,
    diff: StructuralDiff,
    change_type: ChangeType,
    comments: list[ElicitedComment],
    annotations: list[AnnotationChange],
    identifiers: list[EmphasizedIdentifier],
    budget: int = 1024,
) -> CondensedTemplate:
    """Render the full condensed template, truncated to the token budget.

    Deterministic: identical inputs produce byte-identical text. Raises
    BudgetError when even the header alone exceeds the budget.
    """
    if budget < 64:
        raise BudgetError(f"budget must be >= 64, got {budget}")
    header, lines = _build_lines(commit, diff, change_type, comments, annotations, identifiers)
    header_tokens = count_tokens(header)
    if header_tokens > budget:
        raise BudgetError(f"header alone needs {header_tokens} tokens, budget is {budget}")

    # fixed global drop order: by priority class, last lines first within one;
    # protected method/class lines join the queue only as a last resort
    drop_queue = sorted(
        (i for i, l in enumerate(lines) if l.drop_class != _PROTECTED),
        key=lambda i: (lines[i].drop_class, -i),
    )
    drop_queue += [
        i for i in range(len(lines) - 1, -1, -1)
        if lines[i].drop_class == _PROTECTED and lines[i].text != END_MARKER
    ]

    def is_section_header(line: _Line) -> bool:
        return (line.section == "comments" and line.text == TEMPLATES["comments_header"]) or (
            line.section == "identifiers" and line.text == TEMPLATES["identifiers_header"]
        )

    # incremental token accounting: per-line counts are computed once, and a
    # section header only costs tokens while its section still has body lines
    line_tokens = [count_tokens(l.text) for l in lines]
    alive = [True] * len(lines)
    body_alive = {"comments": 0, "identifiers": 0}
    header_of = {"comments": None, "identifiers": None}
    total = header_tokens
    for i, line in enumerate(lines):
        if is_section_header(line):
            header_of[line.section] = i
        else:
            total += line_tokens[i]
            if line.section in body_alive:
                body_alive[line.section] += 1
    for section, h in header_of.items():
        if h is not None and body_alive[section] > 0:
            total += line_tokens[h]

    for i in drop_queue:
        if total <= budget:
            break
        if not alive[i]:
            continue
        alive[i] = False
        line = lines[i]
        if is_section_header(line):
            if body_alive[line.section] > 0:
                total -= line_tokens[i]
            continue
        total -= line_tokens[i]
        if line.section in body_alive:
            body_alive[line.section] -= 1
            h = header_of[line.section]
            if body_alive[line.section] == 0 and h is not None and alive[h]:
                total -= line_tokens[h]
    if total > budget:
        raise BudgetError(f"cannot fit template into {budget} tokens")
    # a section header is kept only while its section has a live body line
    kept = [
        l for i, l in enumerate(lines) if alive[i] and not (is_section_header(l) and body_alive[l.section] == 0)
    ]

    summary_text = "\n".join(l.text for l in kept if l.section == "summary")
    comments_text = "\n".join(l.text for l in kept if l.section == "comments")
    identifiers_text = "\n".join(l.text for l in kept if l.section == "identifiers")
    parts = [header, summary_text]
    if comments_text:
        parts.append(comments_text)
    if identifiers_text:
        parts.append(identifiers_text)
    full_text = "\n".join(parts)
    return CondensedTemplate(
        header=header,
        summarized_changes=summary_text,
        comments_section=comments_text,
        identifiers_section=identifiers_text,
        full_text=full_text,
        token_count=count_tokens(full_text),
    )


# --- identifier extraction: the collect-then-sort original ------------------
#
# The package's previous extract_identifiers, kept verbatim as the reference
# its one-pass rewrite must reproduce; only its name changed.  It collects
# every (raw, category) pair, deduplicates them with a seen set, sorts them
# stably by category rank, and defers each file's method annotations to the
# end of that file.  Its two fact-list parameters were never read.


def extract_identifiers_oracle(
    diff: StructuralDiff,
    old_facts: list | None = None,
    new_facts: list | None = None,
) -> list[EmphasizedIdentifier]:
    """Identifiers touched by the diff, deduplicated by (raw, category) and
    ordered by category rank then first occurrence."""
    collected: list[tuple[str, str]] = []

    def add(raw: str, category: str) -> None:
        if raw:
            collected.append((raw, category))

    method_annotations: list[str] = []
    for fd in diff.files:
        for cname, m in fd.method_added:
            add(m.name, "MethodName")
            add(cname.rsplit(".", 1)[-1], "ClassName")
            for ptype, _pname in m.parameters:
                for t in simple_type_names(ptype):
                    add(t, "TypeName")
            method_annotations.extend(a.name for a in m.annotations)
        for cname, m in fd.method_removed:
            add(m.name, "MethodName")
            add(cname.rsplit(".", 1)[-1], "ClassName")
            for ptype, _pname in m.parameters:
                for t in simple_type_names(ptype):
                    add(t, "TypeName")
            method_annotations.extend(a.name for a in m.annotations)
        for ic in fd.inline_changes:
            add(ic.method_name, "MethodName")
            add(ic.class_name.rsplit(".", 1)[-1], "ClassName")
            for _name, old_t, new_t in ic.param_retyped:
                for t in simple_type_names(old_t) + simple_type_names(new_t):
                    add(t, "TypeName")
            for ptype, _pname in ic.new.parameters:
                for t in simple_type_names(ptype):
                    add(t, "TypeName")
        for name in fd.class_added + fd.class_removed:
            add(name.rsplit(".", 1)[-1], "ClassName")
        for old_name, new_name in fd.class_renamed:
            add(old_name.rsplit(".", 1)[-1], "ClassName")
            add(new_name.rsplit(".", 1)[-1], "ClassName")
        for cname, f in list(fd.field_added) + list(fd.field_removed):
            if f.is_enum_constant:
                add(f.name, "Other")
            else:
                add(f.name, "FieldName")
            add(cname.rsplit(".", 1)[-1], "ClassName")
            for t in simple_type_names(f.type_text):
                add(t, "TypeName")
        for cname, fname, old_t, new_t in fd.field_retyped:
            add(cname.rsplit(".", 1)[-1], "ClassName")
            for t in simple_type_names(old_t) + simple_type_names(new_t):
                add(t, "TypeName")
        for ac in fd.annotation_changes:
            add(ac.name, "Other")
        for ic in fd.inline_changes:
            for name, _args in ic.annotation_added + ic.annotation_removed:
                add(name, "Other")
        for name in method_annotations:
            add(name, "Other")
        method_annotations.clear()

    seen: set[tuple[str, str]] = set()
    ordered: list[EmphasizedIdentifier] = []
    for raw, category in collected:
        key = (raw, category)
        if key in seen:
            continue
        seen.add(key)
        ordered.append(EmphasizedIdentifier(raw=raw, category=category, split=tuple(split_camel(raw))))
    ordered.sort(key=lambda e: _CATEGORY_RANK[e.category])  # stable: keeps first-occurrence order
    return ordered


# --- message tokenizer and token check: the per-token originals --------------
#
# The package's previous tokenize_message, which lowered each token after the
# split, and TokenSeq's previous per-token check, kept verbatim as the
# reference the whole-text lowering and the joined-text check must reproduce.
# Only names changed: TokenSeqOracle holds just the check, and
# tokenize_message_oracle builds one.


@dataclass(frozen=True)
class TokenSeqOracle:
    tokens: tuple[str, ...]

    def __post_init__(self):
        for t in self.tokens:
            if not t or t != t.lower():
                raise ValueError(f"tokens must be non-empty and lowercase: {t!r}")


def tokenize_message_oracle(text: str) -> TokenSeqOracle:
    """Lowercase and split into word tokens and standalone punctuation."""
    return TokenSeqOracle(tokens=tuple(t.lower() for t in TOKEN_RE.findall(text)))
