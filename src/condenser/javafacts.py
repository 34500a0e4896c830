"""Declaration-level facts extracted from Java source text.

The parser is deliberately coarse: package, imports, type declarations,
fields, method signatures, annotations and throws clauses are parsed
precisely, while method bodies are broken into flat statement records by
a brace/semicolon scanner. That is all the downstream change summarizer
needs; there is no symbol resolution and no full-grammar conformance.

A file is read in two passes.  A coarse regex pass over the whole file finds
its comments, string and char literals and braces: it yields every comment,
the matching '}' of each code '{', and the errors for unterminated comments
and literals and unbalanced braces.  The declaration parser then reads
tokens that one decoder (_decode) lexes: a single compiled regex scanned by
finditer (one match per token or comment, the whitespace before it
included, so no Python code runs per character) fills parallel columns of
kinds, texts and start and end offsets, with no token objects.  The parser
lexes in chunks that end just past the next code '{' and names a token by
its index in the columns.  At a '{' region it steps over (a method body, an
initializer block or an enum-constant body) it jumps to the matching '}'
and lexes on from just past it, so the region is never lexed.  A method
keeps its body's source text, and its statements are built from that text
the first time body_statements is read, so the bodies a diff never looks at
are never lexed.  The same decoder lexes a body into columns that the
statement scanner indexes in place, and a statement's line is counted only
at its head, by a running newline count from the previous head.  Elsewhere
a line comes from bisecting the precomputed newline offsets, only where a
fact or an error needs one; every newline counts.

The two versions of a matched method whose body changed are built together
(paired_statements), per segment: a coarse regex pass cuts each body at
every top-level ';', one outside any bracket opened in the body and outside
comments and literals, and makes no cut after a bracket that closes out of
turn.  The new body is scanned whole; an old segment whose text is a new
segment's takes that segment's statements with their lines shifted, and
only the runs of other old segments are lexed and scanned.

The coarse pass keeps each comment as a span.  A comment inside a method
body belongs to that body: the method keeps the spans that fall inside it,
and its inline_comments are built from body_text on first read, so the
comments of the bodies a diff never looks at are never built.  Any other
comment attaches to the class or method declaration that starts within two
lines below it, else to the innermost class body around it, else to the
file; the declaration comes from bisecting declaration offsets and the
class from a sweep over the nested class body spans.

A file's new version can be parsed against its old version, given as the
old text and its facts (parse_java's old argument): the methods the edit
left whole are not parsed again.  A method fact is split for that: its
MethodDecl holds what the declaration says and is shared by both versions,
and the MethodFacts around it holds where it sits (its offsets, body line
and the count of comments before its body).  Body comment spans are offsets
into the body text, so they move with it.  The coarse pass does not scan
into a '{' that opens the text of an old method's body; it takes that
body's comments, moved, and leaves the braces inside out of its map (should
the parser need one, it raises ParseError).  At each member of a class body the parser looks
up the old methods of that class whose text starts like the source there;
one whose whole text the source holds there is stepped over, and its
MethodDecl is taken with new positions.  From a token start in the same
class, the same text lexes and parses to the same facts, so the result is
that of parsing the new version alone.  Any ParseError makes parse_java
parse the new version alone, so errors are that parse's.

All returned facts are immutable in value and safe to share across threads
(building a method's statements twice gives the same tuple).
"""

from __future__ import annotations

import logging
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from operator import attrgetter

log = logging.getLogger(__name__)

__all__ = [
    "AnnotationFacts",
    "ClassFacts",
    "CommentFacts",
    "FieldFacts",
    "ImportFacts",
    "MethodDecl",
    "MethodFacts",
    "ParseError",
    "SourceFacts",
    "StatementFacts",
    "extract_comments",
    "merge_inline_comments",
    "parse_java",
]


class ParseError(Exception):
    """Raised for inputs outside the supported subset (unbalanced braces,
    unterminated comments/strings, duplicate declarations, no type decl)."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


MODIFIER_WORDS = {
    "public", "protected", "private", "abstract", "static", "final",
    "synchronized", "native", "strictfp", "transient", "volatile", "default",
}

PRIMITIVE_TYPES = {
    "boolean", "byte", "char", "short", "int", "long", "float", "double", "void",
}

_CANONICAL_MODIFIER_ORDER = (
    "public", "protected", "private", "abstract", "static", "final",
    "synchronized", "native", "strictfp", "transient", "volatile", "default",
)


def sort_modifiers(modifiers) -> list[str]:
    """Order a modifier set the way Java sources conventionally spell it."""
    rank = {m: i for i, m in enumerate(_CANONICAL_MODIFIER_ORDER)}
    return sorted(modifiers, key=lambda m: (rank.get(m, len(rank)), m))


# ---------------------------------------------------------------------------
# Fact types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnnotationFacts:
    name: str  # without the leading '@'
    argument_text: str | None


@dataclass(frozen=True)
class CommentFacts:
    kind: str  # 'line' | 'block' | 'javadoc'
    text: str  # interior text, delimiters stripped, otherwise untouched
    token_count: int
    attachment: str  # 'file' | 'class:<C>' | 'method:<C.m>' | 'inline:<C.m>'


@dataclass(frozen=True)
class StatementFacts:
    kind: str  # branch|loop|try|throw|return|invocation|assignment|declaration|other
    text: str  # single line, whitespace runs collapsed
    line: int


@dataclass(frozen=True)
class FieldFacts:
    name: str
    type_text: str
    modifiers: frozenset[str]
    annotations: tuple[AnnotationFacts, ...]
    is_enum_constant: bool = False


@dataclass(frozen=True)
class MethodDecl:
    """What a method declaration says, wherever in the file it sits: the
    two versions of a method the edit left whole share one."""

    name: str
    return_type: str | None  # None for constructors
    parameters: tuple[tuple[str, str], ...]  # (type text, name)
    modifiers: frozenset[str]
    annotations: tuple[AnnotationFacts, ...]
    thrown_exceptions: tuple[str, ...]
    body_text: str = field(default="", repr=False)  # the body's '{...}' source; '' without a body
    owner: str = field(default="", compare=False, repr=False)  # qualified name of the declaring class
    # the (group, start, end) span of each comment in the body, as offsets into body_text
    body_comments: tuple[tuple[str, int, int], ...] = field(default=(), compare=False, repr=False)

    @cached_property
    def inline_comments(self) -> tuple[CommentFacts, ...]:
        """The body's comments, built from body_text on first read, each
        attached as 'inline:<owner>.<name>'."""
        attachment = f"inline:{self.owner}.{self.name}"
        text = self.body_text
        return tuple(_comment_facts(*_comment_text(g, text[s:e]), attachment) for g, s, e in self.body_comments)

    @property
    def is_constructor(self) -> bool:
        return self.return_type is None

    def signature(self) -> tuple[str, tuple[str, ...]]:
        return self._signature

    @cached_property
    def _signature(self) -> tuple[str, tuple[str, ...]]:
        return (self.name, tuple(t for t, _ in self.parameters))


@dataclass(frozen=True)
class MethodFacts:
    """A method where it sits in one version of a file: its MethodDecl and
    its positions.  Every attribute of the MethodDecl reads through."""

    decl: MethodDecl
    byte_range: tuple[int, int]
    body_line: int = 0  # line of the body's '{'
    # how many of the file's SourceFacts.comments precede the body
    comments_before: int = field(default=0, compare=False, repr=False)

    name = property(attrgetter("decl.name"))
    return_type = property(attrgetter("decl.return_type"))
    parameters = property(attrgetter("decl.parameters"))
    modifiers = property(attrgetter("decl.modifiers"))
    annotations = property(attrgetter("decl.annotations"))
    thrown_exceptions = property(attrgetter("decl.thrown_exceptions"))
    body_text = property(attrgetter("decl.body_text"))
    owner = property(attrgetter("decl.owner"))
    body_comments = property(attrgetter("decl.body_comments"))
    inline_comments = property(attrgetter("decl.inline_comments"))
    is_constructor = property(attrgetter("decl.is_constructor"))
    signature = property(attrgetter("decl.signature"))

    @cached_property
    def body_statements(self) -> tuple[StatementFacts, ...]:
        """The body's statements, built from body_text on first read."""
        return _body_statements(self.body_text, self.body_line) if self.body_text else ()


@dataclass(frozen=True)
class ClassFacts:
    name: str
    kind: str  # 'class' | 'interface' | 'enum' | 'annotation-decl'
    modifiers: frozenset[str]
    annotations: tuple[AnnotationFacts, ...]
    extends_types: tuple[str, ...]
    implements_types: tuple[str, ...]
    fields: tuple[FieldFacts, ...]
    methods: tuple[MethodFacts, ...]
    inner_classes: tuple[ClassFacts, ...]


@dataclass(frozen=True)
class ImportFacts:
    name: str  # dotted name, without trailing '.*'
    is_static: bool = False
    is_wildcard: bool = False


@dataclass(frozen=True)
class SourceFacts:
    package_name: str | None
    imports: tuple[ImportFacts, ...]
    classes: tuple[ClassFacts, ...]
    # the comments outside method bodies, in source order; a method's own
    # are its inline_comments
    comments: tuple[CommentFacts, ...] = ()

    @staticmethod
    def empty() -> "SourceFacts":
        """Sentinel for the missing side of an added/deleted file."""
        return SourceFacts(package_name=None, imports=(), classes=(), comments=())

    def all_classes(self) -> list[tuple[str, ClassFacts]]:
        """Flatten the class forest into (qualified name, facts) pairs."""
        out: list[tuple[str, ClassFacts]] = []

        def walk(prefix: str, cls: ClassFacts) -> None:
            qname = f"{prefix}.{cls.name}" if prefix else cls.name
            out.append((qname, cls))
            for inner in cls.inner_classes:
                walk(qname, inner)

        for cls in self.classes:
            walk("", cls)
        return out


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _RawComment:
    kind: str
    text: str
    start_line: int
    end_line: int
    start: int
    end: int
    terminated: bool = True


# Tried in this order at each position, so a longer operator wins over its
# prefixes ('>>>=' before '>>>' before '>>').
_MULTI_PUNCT = (
    ">>>=", "<<=", ">>=", ">>>", "...", "->", "::",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
)

# Comment and literal patterns, shared by the token regex and the coarse scan
# so both agree on where each comment and literal starts and ends.  A literal
# may not span a line unless the newline is escaped; an open one runs to the
# first unescaped newline or to the end.
_LINE_COMMENT = r"//[^\n]*"
_BLOCK_COMMENT = r"/\*[^*]*\*+(?:[^/*][^*]*\*+)*/"
_OPEN_COMMENT = r"/\*[\s\S]*"
_CLOSED_LITERAL = r'"[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*"' r"|'[^'\\\n]*(?:\\[\s\S][^'\\\n]*)*'"
_OPEN_LITERAL = (
    r'"[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*(?:\n|\\?\Z)'
    r"|'[^'\\\n]*(?:\\[\s\S][^'\\\n]*)*(?:\n|\\?\Z)"
)

# One match per token or comment, leading whitespace included.  Only ' \t\r\f\v'
# and '\n' are whitespace; any other character that starts nothing else is a
# one-character token.  Literals with an escaped newline ('wrapped') and
# unterminated ones ('open_literal') are rare and get their own groups after
# the one-line string and char patterns.  The empty tail alternative lets
# trailing whitespace match once.
_TOKEN_RE = re.compile(
    r"[ \t\r\f\v\n]*(?:"
    r"(?P<ident>[A-Za-z_$][A-Za-z0-9_$]*)"
    rf"|(?P<line_comment>{_LINE_COMMENT})"
    rf"|(?P<block_comment>{_BLOCK_COMMENT})"
    rf"|(?P<open_comment>{_OPEN_COMMENT})"
    r"|(?P<punct>" + "|".join(map(re.escape, _MULTI_PUNCT)) + r"|[!#%&()*+,\-./:;<=>?@\[\\\]^`{|}~])"
    r"|(?P<number>\d(?:[\w.]|[eEpP][+-])*)"
    r'|(?P<string>"[^"\\\n]*(?:\\.[^"\\\n]*)*")'
    r"|(?P<char>'[^'\\\n]*(?:\\.[^'\\\n]*)*')"
    rf"|(?P<wrapped>{_CLOSED_LITERAL})"
    rf"|(?P<open_literal>{_OPEN_LITERAL})"
    r"|(?P<other>[^ \t\r\f\v\n])"
    r"|\Z)"
)
_CODE_KINDS = frozenset(("ident", "punct", "number", "string", "char"))


def _line_starts(source: str) -> list[int]:
    """Offset just past each newline; the last entry lies past the end."""
    return list(accumulate(len(part) + 1 for part in source.split("\n")))


def _decode(
    text: str, pos: int, endpos: int, line: int, lenient: bool = False
) -> tuple[list[str], list[str], list[int], list[int], list[tuple[str, int, int]]]:
    """Lex text[pos:endpos] into parallel columns: each code token's kind
    (ident|number|string|char|punct), text, start and end offset; and each
    comment's (group, start, end), its group a _TOKEN_RE group name.

    One finditer loop over _TOKEN_RE; no Python code runs per character.
    line is the line of text[0]; a ParseError for an unterminated comment
    or literal counts its line from there.  In lenient mode those run to
    end of input (a literal to its line's end) instead of raising.
    """
    kinds: list[str] = []
    texts: list[str] = []
    starts: list[int] = []
    ends: list[int] = []
    comments: list[tuple[str, int, int]] = []
    for m in _TOKEN_RE.finditer(text, pos, endpos):
        kind = m.lastgroup
        if kind in _CODE_KINDS:
            start, end = m.span(kind)
            tok = m[kind]
        elif kind is None:  # trailing whitespace
            break
        elif kind == "line_comment" or kind == "block_comment":
            comments.append((kind, *m.span(kind)))
            continue
        else:
            start, end = m.span(kind)
            tok = m[kind]
            if kind == "other":
                # non-ASCII digits outside \d (e.g. '\u00b2') still lex as numbers
                kind = "number" if tok.isdigit() else "punct"
            elif kind == "open_comment":
                at = line + text.count("\n", 0, start)
                if not lenient:
                    raise ParseError(at, "unterminated block comment")
                log.warning("unterminated block comment at line %d runs to end of input", at)
                comments.append((kind, start, end))
                continue
            else:  # a wrapped or open literal
                literal = "string" if tok[0] == '"' else "char"
                if kind == "open_literal" and not lenient:
                    raise ParseError(line + text.count("\n", 0, start), f"unterminated {literal} literal")
                kind = literal
        kinds.append(kind)
        texts.append(tok)
        starts.append(start)
        ends.append(end)
    return kinds, texts, starts, ends, comments


def _comment_text(group: str, text: str) -> tuple[str, str]:
    """A comment's kind and its text without delimiters, from its _TOKEN_RE
    group and source text; an open_comment runs to end of input."""
    if group == "line_comment":
        return "line", text[2:]
    if group == "open_comment":
        return "javadoc" if text.startswith("/**") else "block", text[2:]
    if text.startswith("/**") and len(text) > 4:
        return "javadoc", text[3:-2]  # drop the second '*' of the opener
    return "block", text[2:-2]


def _raw_comment(group: str, text: str, line: int, start: int, end: int) -> _RawComment:
    """A comment from its _TOKEN_RE group and source text, delimiters
    included, and the line it starts on."""
    kind, body = _comment_text(group, text)
    return _RawComment(kind, body, line, line + body.count("\n"), start, end, group != "open_comment")


def _lex(source: str, lenient: bool = False) -> tuple[list[tuple[str, str, int, int, int]], list[_RawComment]]:
    """Tokenize Java source into one (kind, text, line, start, end) row per
    code token, and its comment records.

    In lenient mode unterminated comments/strings run to end of input (a
    literal to its line's end) instead of raising; that mode backs
    extract_comments on arbitrary text.
    """
    line_starts = _line_starts(source)
    kinds, texts, starts, ends, spans = _decode(source, 0, len(source), 1, lenient)
    tokens = [(k, t, bisect_right(line_starts, s) + 1, s, e) for k, t, s, e in zip(kinds, texts, starts, ends)]
    comments = [_raw_comment(g, source[s:e], bisect_right(line_starts, s) + 1, s, e) for g, s, e in spans]
    return tokens, comments


# The coarse scan: comments, string and char literals, and braces, with
# everything between them skipped.  No identifier, number or operator token
# holds a quote or a brace, and a '/' starts a comment here exactly when it
# starts one as a fine token.
_LAYOUT_RE = re.compile(
    r"[^{}\"'/]*(?:"
    r"(?P<open>\{)"
    r"|(?P<close>\})"
    rf"|(?P<literal>{_CLOSED_LITERAL})"
    rf"|(?P<line_comment>{_LINE_COMMENT})"
    rf"|(?P<block_comment>{_BLOCK_COMMENT})"
    rf"|(?P<open_literal>{_OPEN_LITERAL})"
    rf"|(?P<open_comment>{_OPEN_COMMENT})"
    r"|(?P<slash>/)"
    r"|\Z)"
)


def _scan_layout(
    source: str, line_starts: list[int], path: str, old: _OldVersion | None = None
) -> tuple[list[tuple[str, int, int]], dict[int, int]]:
    """One coarse pass over the whole file: the (group, start, end) span of
    each comment, its group a _TOKEN_RE group name, and the offset of each
    code '{' mapped to that of its matching '}'.

    Raises ParseError for an unterminated comment or literal (the first in
    the file) and then for braces that do not balance, with the lines and
    messages the fine lexer and a brace match over all its tokens give.

    Given the file's old version, a code '{' that opens the text of one of
    its method bodies is not scanned into: that body's comments are moved
    to where it sits, and the braces inside it are left out of the map.
    """
    comments: list[tuple[str, int, int]] = []
    closers: dict[int, int] = {}
    opened: list[int] = []
    stray: int | None = None
    pos = 0
    while (m := _LAYOUT_RE.match(source, pos)).lastgroup is not None:
        kind = m.lastgroup
        pos = m.end()
        if kind == "open":
            if old is not None and (body := old.body_at(source, pos - 1)) is not None:
                closers[pos - 1] = pos - 2 + len(body.body_text)
                comments += [(group, start + pos - 1, end + pos - 1) for group, start, end in body.body_comments]
                pos += len(body.body_text) - 1
            else:
                opened.append(pos - 1)
        elif kind == "close":
            if opened:
                closers[opened.pop()] = pos - 1
            elif stray is None:
                stray = pos - 1
        elif kind == "line_comment" or kind == "block_comment":
            comments.append((kind, *m.span(kind)))
        elif kind == "open_comment":
            raise ParseError(bisect_right(line_starts, m.start(kind)) + 1, "unterminated block comment")
        elif kind == "open_literal":
            literal = "string" if m[kind][0] == '"' else "char"
            raise ParseError(bisect_right(line_starts, m.start(kind)) + 1, f"unterminated {literal} literal")
    if stray is not None:
        raise ParseError(bisect_right(line_starts, stray) + 1, f"unbalanced '}}' in {path}")
    if opened:
        # the line of the file's last token; the innermost unclosed '{' is a
        # token boundary, so lexing from it reaches that token
        last = _decode(source, opened[-1], len(source), 1)[2][-1]
        raise ParseError(bisect_right(line_starts, last) + 1, f"unbalanced '{{' in {path}")
    return comments, closers


def _comment_facts(kind: str, text: str, attachment: str) -> CommentFacts:
    return CommentFacts(kind=kind, text=text, token_count=len(text.split()), attachment=attachment)


def _blank_comments(source: str, comments: list[tuple[str, int, int]]) -> str:
    """Replace the characters of each comment (group, start, end) span with
    spaces, preserving newlines/offsets."""
    parts: list[str] = []
    done = 0
    for _group, start, end in comments:
        parts.append(source[done:start])
        parts.append("\n".join(" " * len(run) for run in source[start:end].split("\n")))
        done = end
    parts.append(source[done:])
    return "".join(parts)


# ---------------------------------------------------------------------------
# The old version of a file
# ---------------------------------------------------------------------------


_BODY_KEY = 32  # how much of a body's text the old version's bodies are looked up by


def _method_head(source: str, start: int) -> str:
    """The text from start to the first '(' after it, at most 200
    characters: the key a method of the old version is looked up by."""
    stop = source.find("(", start, start + 200)
    return source[start : stop if stop >= 0 else start + 200]


class _OldVersion:
    """The previous version of a file, its text and facts, with its methods
    indexed for a parse of the new version: by _method_head, and those with
    a body longer than _BODY_KEY by the body's first _BODY_KEY characters."""

    def __init__(self, source: str, facts: SourceFacts):
        self.source = source
        self.heads: dict[str, list[MethodFacts]] = {}
        self.bodies: dict[str, list[MethodDecl]] = {}
        for _q, cls in facts.all_classes():
            for m in cls.methods:
                self.heads.setdefault(_method_head(source, m.byte_range[0]), []).append(m)
                if len(m.body_text) > _BODY_KEY:
                    self.bodies.setdefault(m.body_text[:_BODY_KEY], []).append(m.decl)

    def body_at(self, source: str, start: int) -> MethodDecl | None:
        """A method whose body text source holds at start, if any."""
        for decl in self.bodies.get(source[start : start + _BODY_KEY], ()):
            if source.startswith(decl.body_text, start):
                return decl
        return None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# Deeper type nesting raises ParseError (the file is then summarised at file
# level) instead of exhausting the interpreter's recursion limit.
_MAX_TYPE_NESTING = 64


class _Parser:
    """Declaration parser over token columns that are lexed as they are read.

    A token is named by its index in the columns.  The source is lexed in
    chunks that end just past the next code '{', so a '{' region the parser
    steps over is never lexed; a line is computed only where a fact or an
    error needs one.  Each method takes the comment spans inside its body;
    the others are collected in outer_comments.

    Given the old version of the file, its text and facts, the parser takes
    each method the edit left whole from them (see reuse_method).
    """

    def __init__(
        self,
        source: str,
        line_starts: list[int],
        closers: dict[int, int],
        comments: list[tuple[str, int, int]],
        old: _OldVersion | None = None,
    ):
        self.source = source
        self.line_starts = line_starts
        self.closers = closers  # offset of each code '{' -> its '}'
        self.opens = sorted(closers)
        self.comments = comments  # (group, start, end) of every comment, in source order
        self.comment_starts = [start for _group, start, _end in comments]
        # the comments outside method bodies that precede comments[next_comment]
        self.outer_comments: list[tuple[str, int, int]] = []
        self.next_comment = 0
        self.lexed = 0  # source offset the next chunk starts at
        self.kinds: list[str] = []
        self.texts: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.pos = 0
        self.nesting = 0
        # (kind, qualified name, decl line, decl start offset, body span)
        self.decl_index: list[tuple[str, str, int, int, tuple[int, int]]] = []
        self.old = old

    # -- token helpers -----------------------------------------------------

    def lex_chunk(self) -> bool:
        """Append the tokens up to and including the next code '{'; False
        when no token is left."""
        k = bisect_left(self.opens, self.lexed)
        end = self.opens[k] + 1 if k < len(self.opens) else len(self.source)
        if self.lexed >= end:
            return False
        kinds, texts, starts, ends, _comments = _decode(self.source, self.lexed, end, 1)
        self.lexed = end
        self.kinds += kinds
        self.texts += texts
        self.starts += starts
        self.ends += ends
        return bool(texts)

    def peek(self, offset: int = 0) -> int | None:
        k = self.pos + offset
        while k >= len(self.texts):
            if not self.lex_chunk():
                return None
        return k

    def next_start(self) -> int:
        """The offset of the next token, lexing nothing past it."""
        if self.pos < len(self.texts):
            return self.starts[self.pos]
        at = self.lexed
        while (m := _TOKEN_RE.match(self.source, at)).lastgroup in ("line_comment", "block_comment"):
            at = m.end()
        return m.start(m.lastgroup) if m.lastgroup else len(self.source)

    def at(self, text: str, offset: int = 0) -> bool:
        k = self.pos + offset
        if k >= len(self.texts) and self.peek(offset) is None:
            return False
        return self.texts[k] == text

    def take(self) -> int:
        self.pos += 1
        return self.pos - 1

    def line(self, k: int) -> int:
        return bisect_right(self.line_starts, self.starts[k]) + 1

    def here(self) -> int:
        """The line of the next token; at end of input that of the last."""
        k = self.peek()
        if k is None:
            k = len(self.texts) - 1
        return self.line(k) if k >= 0 else 1

    def expect(self, text: str, what: str) -> int:
        if not self.at(text):
            raise ParseError(self.here(), f"expected '{text}' {what}")
        return self.take()

    def expect_ident(self, what: str) -> int:
        k = self.peek()
        if k is None or self.kinds[k] != "ident":
            raise ParseError(self.here(), f"expected identifier {what}")
        return self.take()

    def skip_balanced(self, open_text: str, close_text: str) -> tuple[int, int]:
        """Consume from the current opening token through its matching close.
        Returns the (start, end) token index range, end exclusive.  A '{'
        region is not lexed: its range holds only the two braces, and
        lexing resumes just past the '}'."""
        start = self.pos
        opener = self.expect(open_text, "to open a balanced region")
        if open_text == "{":
            close = self.closers.get(self.starts[opener])
            if close is None:  # in text the coarse scan took from an old method's body
                raise ParseError(self.line(opener), "brace not in the layout")
            for column in (self.kinds, self.texts, self.starts, self.ends):
                del column[self.pos :]  # lookahead read past the '{' lies inside the region
            self.kinds.append("punct")
            self.texts.append("}")
            self.starts.append(close)
            self.ends.append(close + 1)
            self.pos += 1
            self.lexed = close + 1
            return start, self.pos
        depth = 1
        while depth > 0:
            k = self.peek()
            if k is None:
                raise ParseError(self.line(opener), f"unbalanced '{open_text}'")
            if self.texts[k] == open_text:
                depth += 1
            elif self.texts[k] == close_text:
                depth -= 1
            self.take()
        return start, self.pos

    def skip_generics(self) -> None:
        """Consume a balanced <...> region; '<' nesting only (no shift ops
        appear in declaration positions for the supported subset)."""
        opener = self.expect("<", "to open type parameters")
        depth = 1
        while depth > 0:
            k = self.peek()
            if k is None:
                raise ParseError(self.line(opener), "unbalanced '<'")
            text = self.texts[k]
            if text == "<":
                depth += 1
            elif text == ">":
                depth -= 1
            elif text == ">>":
                depth -= 2
            elif text == ">>>":
                depth -= 3
            self.take()

    def reuse_method(self, qname: str) -> MethodFacts | None:
        """The method of class qname at the next token, taken from the old
        version when the edit left its text whole, and stepped over; None
        when the parser must read it.

        A method of the old version in the same class whose text the source
        holds from the next token on is the same method: from a token start
        in the same class body, the same text lexes and parses to the same
        facts.  Only its positions are its own, and the comments before its
        body are counted as parse_method_rest counts them.
        """
        start = self.next_start()
        for old in self.old.heads.get(_method_head(self.source, start), ()):
            old_start, old_end = old.byte_range
            if old.owner == qname and self.source.startswith(self.old.source[old_start:old_end], start):
                end = start + old_end - old_start
                break
        else:
            return None
        decl = old.decl
        body_start, body_line = end - len(decl.body_text), 0
        if decl.body_text:
            lo = bisect_left(self.comment_starts, body_start)
            self.outer_comments += self.comments[self.next_comment : lo]
            self.next_comment = lo + len(decl.body_comments)
            body_line = bisect_right(self.line_starts, body_start) + 1
        self.decl_index.append(
            ("method", f"{qname}.{decl.name}", bisect_right(self.line_starts, start) + 1, start, (body_start, end))
        )
        if self.pos < len(self.texts):
            for column in (self.kinds, self.texts, self.starts, self.ends):
                del column[self.pos :]  # lookahead read into the method
        self.lexed = end
        if (start, body_line, len(self.outer_comments)) == (old_start, old.body_line, old.comments_before):
            return old
        return MethodFacts(decl, (start, end), body_line, len(self.outer_comments))

    # -- text helpers --------------------------------------------------------

    def slice_tokens(self, start: int, end: int) -> str:
        """Join token texts start..end (exclusive) into normalized text."""
        return _join_tokens(self.texts[start:end])

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
            mods, annos, first = self.parse_modifiers_and_annotations()
            classes.append(self.parse_type_decl("", mods, annos, first))
        return package, imports, classes

    def read_dotted_name(self, what: str) -> str:
        parts = [self.texts[self.expect_ident(what)]]
        while self.at(".") and (k := self.peek(1)) is not None and self.kinds[k] == "ident":
            self.take()
            parts.append(self.texts[self.take()])
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

    def parse_modifiers_and_annotations(self) -> tuple[set[str], list[AnnotationFacts], int | None]:
        """Returns (modifiers, annotations, first) where first is the
        declaration's first modifier or annotation token, if any."""
        mods: set[str] = set()
        annos: list[AnnotationFacts] = []
        first: int | None = None
        while (k := self.peek()) is not None:
            text = self.texts[k]
            if text == "@" and not self.at("interface", 1):
                annos.append(self.parse_annotation())
            elif self.kinds[k] == "ident" and text in MODIFIER_WORDS:
                mods.add(text)
                self.take()
            else:
                break
            if first is None:
                first = k
        return mods, annos, first

    def parse_type_decl(
        self, prefix: str, mods: set[str], annos: list[AnnotationFacts], first: int | None
    ) -> ClassFacts:
        """The caller has read the declaration's modifiers and annotations;
        first is their first token, if any."""
        t = self.peek()
        if t is None:
            raise ParseError(self.here(), "expected type declaration")
        text = self.texts[t]
        if text == "@" and self.at("interface", 1):
            self.take()
            self.take()
            kind = "annotation-decl"
        elif text in ("class", "interface", "enum"):
            kind = text
            self.take()
        else:
            raise ParseError(self.line(t), f"expected type declaration, found '{text}'")
        if first is None:
            first = t
        name_tok = self.expect_ident("as type name")
        name = self.texts[name_tok]
        qname = f"{prefix}.{name}" if prefix else name
        if self.at("<"):
            self.skip_generics()
        extends_types: list[str] = []
        implements_types: list[str] = []
        if self.at("extends"):
            self.take()
            extends_types = self.read_type_list()
        if self.at("implements"):
            self.take()
            implements_types = self.read_type_list()
        open_tok = self.expect("{", "to open type body")
        if self.nesting == _MAX_TYPE_NESTING:
            raise ParseError(self.line(name_tok), f"type {name} nested deeper than {_MAX_TYPE_NESTING} levels")
        self.nesting += 1
        fields, methods, inners = self.parse_class_body(name, qname, kind)
        self.nesting -= 1
        body = (self.starts[open_tok], self.ends[self.pos - 1])
        self.decl_index.append(("class", qname, self.line(first), self.starts[first], body))
        self.check_uniqueness(qname, self.line(name_tok), fields, methods)
        return ClassFacts(
            name=name,
            kind=kind,
            modifiers=frozenset(mods),
            annotations=tuple(annos),
            extends_types=tuple(extends_types),
            implements_types=tuple(implements_types),
            fields=tuple(f for f, _name_tok in fields),
            methods=tuple(methods),
            inner_classes=tuple(inners),
        )

    def check_uniqueness(
        self, qname: str, line: int, fields: list[tuple[FieldFacts, int]], methods: list[MethodFacts]
    ) -> None:
        """fields pairs each field with its name token, whose line a
        duplicate field's error takes."""
        seen_sig: set[tuple[str, tuple[str, ...]]] = set()
        for m in methods:
            sig = m.signature()
            if sig in seen_sig:
                raise ParseError(line, f"duplicate method signature {qname}.{sig[0]}({', '.join(sig[1])})")
            seen_sig.add(sig)
        seen_fields: set[str] = set()
        for f, name_tok in fields:
            if f.name in seen_fields:
                raise ParseError(self.line(name_tok), f"duplicate field {qname}.{f.name}")
            seen_fields.add(f.name)

    def read_type_list(self) -> list[str]:
        names = [self.read_type_text("in type list")]
        while self.at(","):
            self.take()
            names.append(self.read_type_text("in type list"))
        return names

    def read_type_text(self, what: str) -> str:
        """Read one type reference: dotted name, generics, array brackets."""
        start = self.pos
        t = self.peek()
        if t is None:
            raise ParseError(self.here(), f"expected type {what}")
        if self.kinds[t] != "ident":
            raise ParseError(self.line(t), f"expected type {what}, found '{self.texts[t]}'")
        self.take()
        while True:
            if self.at(".") and (nxt := self.peek(1)) is not None and self.kinds[nxt] == "ident":
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
        fields: list[tuple[FieldFacts, int]] = []
        methods: list[MethodFacts] = []
        inners: list[ClassFacts] = []
        if kind == "enum":
            self.parse_enum_constants(simple_name, fields)
        while True:
            if self.old is not None and (reused := self.reuse_method(qname)) is not None:
                methods.append(reused)
                continue
            t = self.peek()
            if t is None:
                raise ParseError(self.here(), f"unclosed body of {qname}")
            text = self.texts[t]
            if text == "}":
                self.take()
                return fields, methods, inners
            if text == ";":
                self.take()
                continue
            if text == "{":  # instance initializer block
                self.skip_balanced("{", "}")
                continue
            if text == "static" and self.at("{", 1):  # static initializer
                self.take()
                self.skip_balanced("{", "}")
                continue
            self.parse_member(simple_name, qname, fields, methods, inners)

    def parse_enum_constants(self, simple_name: str, fields: list[tuple[FieldFacts, int]]) -> None:
        while True:
            if self.at(";"):
                self.take()
                return
            if self.peek() is None or self.at("}"):
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
                    name=self.texts[name_tok],
                    type_text=simple_name,
                    modifiers=frozenset({"public", "static", "final"}),
                    annotations=tuple(annos),
                    is_enum_constant=True,
                ),
                name_tok,
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
        mods, annos, first = self.parse_modifiers_and_annotations()
        t = self.peek()
        if t is None:
            raise ParseError(self.here(), f"unexpected end of {qname} body")
        if self.texts[t] in ("class", "interface", "enum") or (self.texts[t] == "@" and self.at("interface", 1)):
            inners.append(self.parse_type_decl(qname, mods, annos, first))
            return
        if self.texts[t] == "<":  # generic method type parameters
            self.skip_generics()
            t = self.peek()
            if t is None:
                raise ParseError(self.here(), "unexpected end after type parameters")
        if first is None:
            first = t
        # constructor: ClassName (
        if self.kinds[t] == "ident" and self.texts[t] == simple_name and self.at("(", 1):
            name_tok = self.take()
            methods.append(self.parse_method_rest(name_tok, None, mods, annos, qname, first))
            return
        return_type = self.read_type_text(f"in member of {qname}")
        name_tok = self.expect_ident(f"as member name in {qname}")
        if self.at("("):
            methods.append(self.parse_method_rest(name_tok, return_type, mods, annos, qname, first))
            return
        # field declarator list
        while True:
            decl_name = self.texts[name_tok]
            decl_type = return_type
            while self.at("[") and self.at("]", 1):
                self.take()
                self.take()
                decl_type += "[]"
            if self.at("="):
                self.take()
                depth = 0
                while True:
                    k = self.peek()
                    if k is None:
                        raise ParseError(self.line(name_tok), f"unterminated field initializer for {decl_name}")
                    text = self.texts[k]
                    if text in ("(", "{", "["):
                        depth += 1
                    elif text in (")", "}", "]"):
                        depth -= 1
                    elif depth == 0 and text in (",", ";"):
                        break
                    self.take()
            fields.append((
                FieldFacts(name=decl_name, type_text=decl_type, modifiers=frozenset(mods), annotations=tuple(annos)),
                name_tok,
            ))
            if self.at(","):
                self.take()
                name_tok = self.expect_ident("as field name")
                continue
            self.expect(";", f"after field {decl_name}")
            return

    def parse_method_rest(
        self,
        name_tok: int,
        return_type: str | None,
        mods: set[str],
        annos: list[AnnotationFacts],
        qname: str,
        first: int,
    ) -> MethodFacts:
        name = self.texts[name_tok]
        self.expect("(", "to open parameter list")
        params: list[tuple[str, str]] = []
        seen_param_names: set[str] = set()
        while not self.at(")"):
            while self.at("@"):
                self.parse_annotation()  # parameter annotations dropped
            if self.at("final"):
                self.take()
            ptype = self.read_type_text(f"as parameter type of {qname}.{name}")
            while self.at("@"):
                self.parse_annotation()  # type annotations on '...' dropped
            if self.at("..."):
                self.take()
                ptype += "..."
            pname_tok = self.expect_ident("as parameter name")
            pname = self.texts[pname_tok]
            while self.at("[") and self.at("]", 1):
                self.take()
                self.take()
                ptype += "[]"
            if pname in seen_param_names:
                raise ParseError(self.line(pname_tok), f"duplicate parameter {pname} in {qname}.{name}")
            seen_param_names.add(pname)
            params.append((ptype, pname))
            if self.at(","):
                self.take()
        self.expect(")", "to close parameter list")
        while return_type not in (None, "void") and self.at("[") and self.at("]", 1):
            # dimensions after the parameter list belong to the return type (JLS 8.4)
            self.take()
            self.take()
            return_type += "[]"
        thrown: list[str] = []
        if self.at("throws"):
            self.take()
            thrown = self.read_type_list()
        body_text, body_line, body_comments = "", 0, ()
        if self.at("{"):
            open_tok = self.pos
            self.skip_balanced("{", "}")
            end_off = self.ends[self.pos - 1]
            body_span = (self.starts[open_tok], end_off)
            body_text, body_line = self.source[body_span[0] : end_off], self.line(open_tok)
            lo = bisect_left(self.comment_starts, body_span[0])
            hi = bisect_left(self.comment_starts, end_off, lo)
            self.outer_comments += self.comments[self.next_comment : lo]
            self.next_comment = hi
            base = body_span[0]
            body_comments = tuple((group, start - base, end - base) for group, start, end in self.comments[lo:hi])
        elif self.at("default"):
            # an annotation-type element's default value (JLS 9.6.2): dropped
            self.take()
            while not self.at(";"):
                if self.peek() is None:
                    raise ParseError(self.line(name_tok), "unterminated default value")
                self.take()
            end_off = self.ends[self.take()]
            body_span = (end_off, end_off)
        else:
            end_off = self.ends[self.expect(";", "after abstract method")]
            body_span = (end_off, end_off)
        start_off = self.starts[first]
        self.decl_index.append(("method", f"{qname}.{name}", self.line(first), start_off, body_span))
        decl = MethodDecl(
            name=name,
            return_type=return_type,
            parameters=tuple(params),
            modifiers=frozenset(mods),
            annotations=tuple(annos),
            thrown_exceptions=tuple(thrown),
            body_text=body_text,
            owner=qname,
            body_comments=body_comments,
        )
        return MethodFacts(decl, (start_off, end_off), body_line, len(self.outer_comments))


# ---------------------------------------------------------------------------
# Token joining / statement scanning
# ---------------------------------------------------------------------------

_NO_SPACE_BEFORE = {";", ",", ")", "]", "[", ".", "...", "++", "--", "::"}
_NO_SPACE_AFTER = {"(", "[", ".", "@", "::"}
_TYPE_GLUE = {"<", ">", ">>", ">>>"}


def _join_tokens(texts: list[str]) -> str:
    """Render a run of token texts as compact single-line text."""
    out: list[str] = []
    prev: str | None = None
    for t in texts:
        if prev is not None:
            if t in _NO_SPACE_BEFORE or prev in _NO_SPACE_AFTER:
                pass
            elif (t in _TYPE_GLUE or prev in _TYPE_GLUE) and t != "extends" and prev != "extends":
                pass
            elif prev in ("extends", "super") or t in ("extends", "super"):
                out.append(" ")
            elif t == "<" or prev in ("<",):
                pass
            else:
                out.append(" ")
        out.append(t)
        prev = t
    return "".join(out)


# The statement kind of each control keyword.  Its record holds the
# parenthesized header after it, if any, except after the _BARE_HEADERS;
# 'else if' counts as one keyword.
_HEADER_KINDS = {
    "if": "branch", "switch": "branch", "else": "branch",
    "while": "loop", "for": "loop", "do": "loop",
    "try": "try", "catch": "try", "finally": "try",
    "synchronized": "other",
}
_BARE_HEADERS = frozenset(("do", "else", "finally"))

_STMT_SIMPLE_KEYWORDS = {
    "throw": "throw",
    "return": "return",
    "break": "other",
    "continue": "other",
    "assert": "other",
    "yield": "other",
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="}


def _body_statements(body_text: str, line: int) -> tuple[StatementFacts, ...]:
    """The statements of a method body, from its '{...}' source text and the
    line its '{' is on.

    The text between the braces is decoded into token columns; comments
    only leave their spans, to be blanked.  No line is computed here:
    _scan_statements counts newlines up to each statement head.  The
    matching '}' ends the last token.  A comment or literal left open raises
    ParseError, although a body from a file that passed _scan_layout holds
    none.
    """
    kinds, texts, starts, ends, comments = _decode(body_text, 1, len(body_text) - 1, line)
    return tuple(_scan_statements(kinds, texts, starts, ends, _blank_comments(body_text, comments), line))


# The coarse pass that cuts a body into segments: brackets and ';', with
# literals and comments stepped over as in _LAYOUT_RE.  A '(...)' that holds
# no bracket, comment or '/', only closed literals, is skipped whole, so most
# statements are one match.  A '/*' or a quote that starts no closed comment
# or literal is left open.
_CUT_RE = re.compile(
    r"[^{}()\[\];\"'/]*(?:"
    rf"\([^{{}}()\[\]\"'/]*(?:(?:{_CLOSED_LITERAL})[^{{}}()\[\]\"'/]*)*\)"
    r"[^{}()\[\];\"'/]*)*(?:"
    r"(?P<open>[{(\[])"
    r"|(?P<close>[})\]])"
    r"|(?P<semi>;)"
    rf"|{_CLOSED_LITERAL}|{_LINE_COMMENT}|{_BLOCK_COMMENT}"
    r"|(?P<left_open>/\*|[\"'])"
    r"|/|\Z)"
)
_OPENER_OF = {"}": "{", ")": "(", "]": "["}
_DEPTH_STEP = {"(": 1, "[": 1, "{": 1, ")": -1, "]": -1, "}": -1}


def _segment_bounds(body_text: str) -> list[int] | None:
    """Where a '{...}' body text splits into segments: the offset just past
    its '{', just past each top-level ';' (one outside every bracket opened
    in the body) and that of its '}'.

    No cut is made past the first bracket that closes out of turn, where
    the scanner's bracket counts stop following the nesting.  None when a
    comment or literal is left open.
    """
    bounds = [1]
    opened: list[str] = []
    nested = True
    for m in _CUT_RE.finditer(body_text, 1, len(body_text) - 1):
        kind = m.lastgroup
        if kind == "semi":
            if nested and not opened:
                bounds.append(m.end())
        elif kind == "open":
            opened.append(m[kind])
        elif kind == "close":
            nested = nested and bool(opened) and opened.pop() == _OPENER_OF[m[kind]]
        elif kind == "left_open":
            return None
    bounds.append(len(body_text) - 1)
    return bounds


def _paired_statements(
    old_text: str, old_line: int, new_text: str, new_line: int
) -> tuple[tuple[StatementFacts, ...], tuple[StatementFacts, ...]]:
    """The statements _body_statements builds for two versions of a method
    body, with the text the two share scanned once.

    Both bodies are cut into segments at their top-level ';'s.  The new body
    is scanned whole and its statements are grouped by the segment their
    head lies in; a cut that a statement runs across joins its two segments.
    An old segment whose text is a new segment's takes that segment's
    statements, their lines shifted to where it sits, and each run of other
    old segments is decoded and scanned as one region.

    A cut is exact because the scanner keeps no state from one statement
    head to the next and, with brackets nested, every lookahead stops at a
    top-level ';'.  Only a keyword statement without its ';' runs on past
    the '}' of its block and across a cut; a region whose last statement
    does so leaves the old body to a whole scan.  Without a cut on either
    side both bodies are scanned whole.
    """
    old_bounds, new_bounds = _segment_bounds(old_text), _segment_bounds(new_text)
    if old_bounds is None or new_bounds is None or len(old_bounds) == 2 or len(new_bounds) == 2:
        return _body_statements(old_text, old_line), _body_statements(new_text, new_line)
    kinds, texts, starts, ends, comments = _decode(new_text, 1, len(new_text) - 1, new_line)
    spans: list[tuple[int, int]] = []
    new_stmts = _scan_statements(kinds, texts, starts, ends, _blank_comments(new_text, comments), new_line, spans)
    # segment text -> (first statement, end statement, the segment's first line)
    table: dict[str, tuple[int, int, int]] = {}
    a, line, first, k = 1, new_line, 0, 0
    for b in new_bounds[1:]:
        while k < len(spans) and starts[spans[k][0]] < b:
            k += 1
        if k and ends[spans[k - 1][1] - 1] > b:
            continue
        table.setdefault(new_text[a:b], (first, k, line))
        line += new_text.count("\n", a, b)
        a, first = b, k

    old_stmts: list[StatementFacts] = []

    def scan_region(a: int, b: int, line: int) -> bool:
        """Append the statements of old_text[a:b]; False when the last one
        would run on past b."""
        region = old_text[a:b]
        kinds, texts, starts, ends, comments = _decode(region, 0, len(region), line)
        spans: list[tuple[int, int]] = []
        old_stmts.extend(_scan_statements(kinds, texts, starts, ends, _blank_comments(region, comments), line, spans))
        if not spans or spans[-1][1] < len(texts) or texts[spans[-1][0]] not in _STMT_SIMPLE_KEYWORDS:
            return True
        return sum(_DEPTH_STEP.get(t, 0) for t in texts[spans[-1][0] :]) == 0

    built, built_line, line = 1, old_line, old_line  # old_text[1:built] is built
    for a, b in zip(old_bounds, old_bounds[1:]):
        reused = table.get(old_text[a:b])
        if reused is not None:
            if built < a and not scan_region(built, a, built_line):
                return _body_statements(old_text, old_line), tuple(new_stmts)
            lo, hi, shift = reused[0], reused[1], line - reused[2]
            old_stmts += [StatementFacts(s.kind, s.text, s.line + shift) for s in new_stmts[lo:hi]]
        line += old_text.count("\n", a, b)
        if reused is not None:
            built, built_line = b, line
    if built < len(old_text) - 1:
        scan_region(built, len(old_text) - 1, built_line)
    return tuple(old_stmts), tuple(new_stmts)


def paired_statements(
    old: MethodFacts, new: MethodFacts
) -> tuple[tuple[StatementFacts, ...], tuple[StatementFacts, ...]]:
    """old.body_statements and new.body_statements for two versions of one
    method.  When neither is built yet, _paired_statements builds both and
    they fill both caches, as a first read would."""
    unbuilt = "body_statements" not in old.__dict__ and "body_statements" not in new.__dict__
    if unbuilt and old.body_text and new.body_text:
        old.__dict__["body_statements"], new.__dict__["body_statements"] = _paired_statements(
            old.body_text, old.body_line, new.body_text, new.body_line
        )
    return old.body_statements, new.body_statements


def _scan_statements(
    kinds: list[str],
    texts: list[str],
    starts: list[int],
    ends: list[int],
    blanked: str,
    first_line: int,
    spans: list[tuple[int, int]] | None = None,
) -> list[StatementFacts]:
    """Flatten a method body's token columns into statement records.

    Control headers (if/for/try/...) become their own records; their blocks
    are scanned recursively in the same flat pass. Anything unrecognized is
    collected up to the next top-level ';' and classified coarsely.  A
    statement's line is that of its first token, counted from first_line
    (the line of blanked's first character) by a running newline count that
    advances from one head to the next.  When spans is given, it receives
    each statement's (head, end) token range, end exclusive.
    """
    stmts: list[StatementFacts] = []
    i = 0
    n = len(texts)
    counted = 0  # newlines before this offset are in line
    line = first_line

    def head_line(k: int) -> int:
        nonlocal counted, line
        start = starts[k]
        line += blanked.count("\n", counted, start)
        counted = start
        return line

    def balanced_end(start: int) -> int:
        """Just past the ')' that closes the '(' at start."""
        depth = 0
        k = start
        while k < n:
            if texts[k] == "(":
                depth += 1
            elif texts[k] == ")":
                depth -= 1
                if depth == 0:
                    return k + 1
            k += 1
        return n

    while i < n:
        text = texts[i]
        if text in ("{", "}", ";"):
            i += 1
            continue
        kind = _HEADER_KINDS.get(text)
        if kind is not None:
            end = i + 1
            if text == "else" and end < n and texts[end] == "if":
                end += 1
                text = "if"
            if text not in _BARE_HEADERS and end < n and texts[end] == "(":
                end = balanced_end(end)
        elif text in ("case", "default") and (end := _switch_label_end(texts, i)):
            kind = "branch"
        elif text in _STMT_SIMPLE_KEYWORDS:
            kind = _STMT_SIMPLE_KEYWORDS[text]
            end = i
            depth = 0
            while end < n:
                tt = texts[end]
                if tt in ("(", "[", "{"):
                    depth += 1
                elif tt in (")", "]", "}"):
                    depth -= 1
                elif tt == ";" and depth == 0:
                    end += 1
                    break
                end += 1
        elif (
            # label: `name :` followed by a statement keyword
            kinds[i] == "ident"
            and i + 1 < n
            and texts[i + 1] == ":"
            and i + 2 < n
            and texts[i + 2] in ("for", "while", "do", "if", "switch", "try")
        ):
            i += 2
            continue
        else:
            # generic statement: collect to top-level ';'
            end = i
            depth = 0
            saw_eq = False
            while end < n:
                tt = texts[end]
                if tt in ("(", "[") or (tt == "{" and (depth > 0 or saw_eq or _prev_is_expr(texts, end))):
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
            kind = _classify_generic(kinds, texts, i, end)
        stmts.append(StatementFacts(kind, " ".join(blanked[starts[i] : ends[end - 1]].split()), head_line(i)))
        if spans is not None:
            spans.append((i, end))
        i = end
    return stmts


def _switch_label_end(texts: list[str], i: int) -> int:
    """Just past the ':' that ends the switch label starting at i, or 0 when
    no ':' outside brackets comes within 40 tokens and before a ';', '{' or '}'."""
    depth = 0
    for k in range(i, min(i + 40, len(texts))):
        tt = texts[k]
        if tt in ("(", "["):
            depth += 1
        elif tt in (")", "]"):
            depth -= 1
        elif depth == 0 and tt == ":":
            return k + 1
        elif depth == 0 and tt in (";", "{", "}"):
            return 0
    return 0


def _prev_is_expr(texts: list[str], i: int) -> bool:
    """Heuristic: a '{' continues the current expression (anonymous class or
    array literal) when preceded by ')' or ']' or '=' style contexts."""
    if i == 0:
        return False
    prev = texts[i - 1]
    return prev in (")", "]", "=", ",", "{")


def _classify_generic(kinds: list[str], texts: list[str], lo: int, hi: int) -> str:
    """Classify the generic statement made of tokens lo..hi (exclusive)."""
    depth = 0
    has_assign = False
    has_call = False
    for idx in range(lo, hi):
        t = texts[idx]
        if t in ("(", "[", "{"):
            depth += 1
            if t == "(" and idx > lo and kinds[idx - 1] == "ident":
                if depth == 1:
                    has_call = True
        elif t in (")", "]", "}"):
            depth -= 1
        elif depth == 0 and t in _ASSIGN_OPS:
            has_assign = True
            break
        elif depth == 0 and t in ("++", "--"):
            has_assign = True
    if not has_assign and _looks_like_declaration(kinds, texts, lo, hi):
        return "declaration"
    if has_assign:
        if _looks_like_declaration(kinds, texts, lo, hi):
            return "declaration"
        return "assignment"
    if has_call:
        return "invocation"
    if lo < hi and texts[lo] == "new":
        return "invocation"
    return "other"


def _looks_like_declaration(kinds: list[str], texts: list[str], i: int, n: int) -> bool:
    """Type-then-name shape at the head of tokens i..n (exclusive), e.g.
    `Map<K,V> m = ...`."""
    if i < n and texts[i] == "final":
        i += 1
    if i >= n or kinds[i] != "ident":
        return False
    if texts[i] in ("this", "super", "new"):
        return False
    i += 1
    while i < n:
        t = texts[i]
        if t == "." and i + 1 < n and kinds[i + 1] == "ident":
            i += 2
            continue
        if t == "<":
            depth = 1
            i += 1
            while i < n and depth > 0:
                if texts[i] == "<":
                    depth += 1
                elif texts[i] == ">":
                    depth -= 1
                elif texts[i] == ">>":
                    depth -= 2
                i += 1
            continue
        if t == "[" and i + 1 < n and texts[i + 1] == "]":
            i += 2
            continue
        break
    return i < n and kinds[i] == "ident" and (i + 1 >= n or texts[i + 1] in ("=", ";", ",", "[", ":"))


# ---------------------------------------------------------------------------
# Comment attachment
# ---------------------------------------------------------------------------

_ATTACH_WINDOW_LINES = 2


def _resolve_attachments(
    source: str,
    line_starts: list[int],
    spans: list[tuple[str, int, int]],
    decl_index: list[tuple[str, str, int, int, tuple[int, int]]],
) -> list[CommentFacts]:
    """Attach each comment outside method bodies, given as a (group, start,
    end) span in source order, to a declaration or scope.

    A comment that ends within two lines above a class/method declaration
    attaches to it; otherwise the innermost enclosing class body wins;
    otherwise 'file'.

    The nearest declaration after a comment is found by bisecting the
    declaration start offsets: a declaration's line is that of its first
    token, so lines grow with offsets and the first declaration after the
    comment is the only candidate.  Enclosing classes come from a sweep that
    keeps a stack of the class body spans opened so far; spans nest, so the
    top of the stack is the innermost class.
    """
    decls = sorted(decl_index, key=lambda d: d[3])
    starts = [d[3] for d in decls]
    bodies = sorted((d[4], d[1]) for d in decls if d[0] == "class")
    open_bodies: list[tuple[tuple[int, int], str]] = []
    next_body = 0
    facts: list[CommentFacts] = []
    for group, start, end in spans:
        while next_body < len(bodies) and bodies[next_body][0][0] < start:
            open_bodies.append(bodies[next_body])
            next_body += 1
        # spans that closed before this comment leave the top; what remains
        # on top contains the comment, and any span opened inside it lies above
        while open_bodies and open_bodies[-1][0][1] < end:
            open_bodies.pop()
        end_line = bisect_right(line_starts, end - 1) + 1  # the line of the comment's last character
        k = bisect_left(starts, end)
        if k < len(decls) and 0 <= decls[k][2] - end_line <= _ATTACH_WINDOW_LINES:
            attachment = f"{decls[k][0]}:{decls[k][1]}"
        elif open_bodies:
            attachment = f"class:{open_bodies[-1][1]}"
        else:
            attachment = "file"
        facts.append(_comment_facts(*_comment_text(group, source[start:end]), attachment))
    return facts


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def parse_java(source: str, path: str = "<memory>", old: tuple[str, SourceFacts] | None = None) -> SourceFacts:
    """Parse Java source text into declaration-level facts.

    Total over the supported subset; unrecognized body constructs degrade to
    StatementFacts of kind 'other'. Raises ParseError for unbalanced braces,
    unterminated comments/strings, duplicate declarations, or inputs without
    a type declaration.

    old is the text and facts of the file's previous version, if any: the
    methods the edit left whole are then taken from them, not parsed again.
    The facts are those of a parse without old; on a ParseError the source
    is parsed again without old, so the error is that parse's.
    """
    if old is not None:
        try:
            return _parse_java(source, path, old)
        except ParseError:
            pass
    return _parse_java(source, path, None)


def _parse_java(source: str, path: str, old: tuple[str, SourceFacts] | None) -> SourceFacts:
    old_version = _OldVersion(*old) if old is not None else None
    line_starts = _line_starts(source)
    spans, closers = _scan_layout(source, line_starts, path, old_version)
    parser = _Parser(source, line_starts, closers, spans, old_version)
    package, imports, classes = parser.parse_unit()
    if not classes:
        raise ParseError(1, f"no type declaration in {path}")
    seen_qnames: set[str] = set()
    for kind, qname, line, _off, _span in parser.decl_index:
        if kind == "class":
            if qname in seen_qnames:
                raise ParseError(line, f"duplicate type declaration {qname} in {path}")
            seen_qnames.add(qname)
    outer = parser.outer_comments + spans[parser.next_comment :]
    return SourceFacts(
        package_name=package,
        imports=tuple(imports),
        classes=tuple(classes),
        comments=tuple(_resolve_attachments(source, line_starts, outer, parser.decl_index)),
    )


def merge_inline_comments(comments: tuple[CommentFacts, ...], methods: list[MethodFacts]) -> list[CommentFacts]:
    """A file's SourceFacts.comments with the inline comments of the given
    methods of that file merged in, all in source order."""
    out: list[CommentFacts] = []
    done = 0
    for m in sorted(methods, key=lambda m: (m.comments_before, m.byte_range)):
        if m.body_comments:
            out += comments[done : m.comments_before]
            done = m.comments_before
            out += m.inline_comments
    out += comments[done:]
    return out


def extract_comments(source: str) -> list[CommentFacts]:
    """Extract every comment from source text, with best-effort attachment.

    For parseable Java these are the parser's comments with every method's
    inline comments merged in.  For anything else it degrades to a lenient
    lexical scan (string literals still never produce comments) with
    file-level attachment; an unterminated block comment runs to end of
    input and is logged.
    """
    try:
        facts = parse_java(source)
    except ParseError:
        _rows, raw_comments = _lex(source, lenient=True)
        return [_comment_facts(raw.kind, raw.text, "file") for raw in raw_comments]
    return merge_inline_comments(facts.comments, [m for _q, cls in facts.all_classes() for m in cls.methods])
