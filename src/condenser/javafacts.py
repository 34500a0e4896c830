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
statement scanner indexes in place.  No fact holds a line: one is counted
only for a ParseError, and every newline counts.

The two versions of a matched method whose body changed are built together
(paired_statements), per segment: a coarse regex pass cuts each body at
every top-level ';', one outside any bracket opened in the body and outside
comments and literals, and makes no cut after a bracket that closes out of
turn.  Both bodies are built segment by segment through one memo from a
segment's text to its statements, so each text the two hold is built once.
A flat segment, one that ends at a top-level ';' and holds no brace, no
comment and no control keyword or label at its head, is one statement: its
text is the segment's with whitespace collapsed, and its kind comes from
the token texts of one findall (a twin of the token regex whose only group
is the token's text), not from the decoder and the scanner.  Any other
segment is decoded and scanned alone.

The coarse pass keeps each comment as a span.  A comment inside a method
body belongs to that body: the method keeps the spans that fall inside it,
and its inline_comments are built from body_text on first read, so the
comments of the bodies a diff never looks at are never built.  Any other
comment attaches to the class or method declaration that starts within two
lines below it, else to the innermost class body around it, else to the
file; the declaration comes from bisecting declaration offsets and the
class from a sweep over the nested class body spans.

A file's new version can be parsed against its old version, given as the
old text and its facts (parse_java's old argument): the text the edit left
whole is stepped over, not lexed, scanned or parsed again (Wagner & Graham,
"Efficient and Flexible Incremental Parsing", TOPLAS 1998, restricted to
whole declarations).  Every parse records where things sit for that: the
end of the package and imports, and a (start, end, counts of facts before
it) entry for each member of a class body, its offsets counted from the
class's first token, besides the spans of the comments outside method
bodies and the declarations by offset.  In a parse against an old version
the coarse pass runs only as far as the parser asks, and steps over what
the parser steps over.  Three kinds of text are stepped over: an
unchanged package and import preamble, runs of whole class-body members,
and the text up to the body of a method whose body alone changed; a class
header is parsed like any declaration.  At each member of a class body the
parser takes the longest run of members of the old class of the same name
that the source holds there, found with a few string compares: fields,
methods, initializers, an enum's constants and inner classes, with the
comments and space between them.  A method whose text up to its body is
unchanged keeps its declaration and takes the new body.  From a token
start in the same class body the same text lexes and parses to the same
facts, and a run's braces pair off within it (a class in which a '{' or '}'
does not pair off within its member has no member entries, so none of its
text is stepped over), so the result is that of parsing the new version
alone.  No fact holds an offset into the file (a method's body comment
spans are offsets into its body text, a class's member entries count from
its first token; where a declaration sits is in SourceFacts.decls alone),
so a method or inner class the edit left whole is the old object wherever
it now sits.  An old comment's facts are kept when its attachment comes
out the same.  Any ParseError makes parse_java parse the new version alone,
so errors are that parse's.

The Java vocabulary is named once, here: the identifier, literal and
comment fragments, the operators, the type-argument brackets and the
modifier words.  The lexer's regexes, the parser, the statement classifier
and the patterns of changeset and identifiers are built from those names.

All returned facts are immutable in value and safe to share across threads
(building a method's statements twice gives the same tuple).
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate
from operator import attrgetter, is_, itemgetter

__all__ = [
    "AnnotationFacts",
    "ClassFacts",
    "CommentFacts",
    "FieldFacts",
    "ImportFacts",
    "MethodFacts",
    "ParseError",
    "SourceFacts",
    "StatementFacts",
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


# The modifier words, in the order Java sources conventionally spell them.
_CANONICAL_MODIFIER_ORDER = (
    "public", "protected", "private", "abstract", "static", "final",
    "synchronized", "native", "strictfp", "transient", "volatile", "default",
)
MODIFIER_WORDS = frozenset(_CANONICAL_MODIFIER_ORDER)
_MODIFIER_RANK = {m: i for i, m in enumerate(_CANONICAL_MODIFIER_ORDER)}

PRIMITIVE_TYPES = {
    "boolean", "byte", "char", "short", "int", "long", "float", "double", "void",
}


def sort_modifiers(modifiers) -> list[str]:
    """Order a modifier set the way Java sources conventionally spell it."""
    return sorted(modifiers, key=lambda m: (_MODIFIER_RANK.get(m, len(_MODIFIER_RANK)), m))


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


@dataclass(frozen=True)
class FieldFacts:
    name: str
    type_text: str
    modifiers: frozenset[str]
    annotations: tuple[AnnotationFacts, ...]
    is_enum_constant: bool = False


@dataclass(frozen=True)
class MethodFacts:
    """What a method declaration says, wherever in the file it sits: the
    two versions of a method the edit left whole share one.  Where it sits
    is in SourceFacts.decls."""

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

    @cached_property
    def body_statements(self) -> tuple[StatementFacts, ...]:
        """The body's statements, built from body_text on first read."""
        return _body_statements(self.body_text) if self.body_text else ()

    @property
    def is_constructor(self) -> bool:
        return self.return_type is None

    def signature(self) -> tuple[str, tuple[str, ...]]:
        return self._signature

    @cached_property
    def _signature(self) -> tuple[str, tuple[str, ...]]:
        return (self.name, tuple(t for t, _ in self.parameters))


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
    # for a parse of the file's next version, a (start, end, fields,
    # methods, inner classes) entry for each member of the body (an enum's
    # constants are one, and come first) and then for its '}': the offsets
    # of its first token and just past its last, counted from the class's
    # first token, and the counts of facts before it; none when a '{' or '}'
    # in the class does not pair off within its member
    members: tuple[tuple[int, int, int, int, int], ...] = field(default=(), compare=False, repr=False)


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
    # where things sit, for a parse of the file's next version: the offset
    # just past the package and import declarations (0 without any), the
    # (group, start, end) span of each of comments, and a (start, 'class:<C>'
    # or 'method:<C.m>', body start, body end) entry for each declaration, by
    # start
    preamble_end: int = field(default=0, compare=False, repr=False)
    comment_spans: tuple[tuple[str, int, int], ...] = field(default=(), compare=False, repr=False)
    decls: tuple[tuple[int, str, int, int], ...] = field(default=(), compare=False, repr=False)

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


# The rest of the Java vocabulary (JLS chapter 3, 4.5 and 15.26), after the
# modifier and primitive type words above.

# An identifier; a token is one exactly when its text starts with one of
# _IDENT_START, the ASCII characters that alone are an IDENTIFIER.
IDENTIFIER = r"[A-Za-z_$][A-Za-z0-9_$]*"
_IDENT_START = frozenset(c for c in map(chr, range(128)) if re.fullmatch(IDENTIFIER, c))

# Every operator of more than one character, tried in this order at each
# position, so a longer operator wins over its prefixes ('>>>=' before '>>>'
# before '>>').  ASSIGN_OPS names the ones that assign, and '='.
_MULTI_PUNCT = (
    ">>>=", "<<=", ">>=", ">>>", "...", "->", "::",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
)
ASSIGN_OPS = frozenset(("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="))

# How far each token that opens or closes type arguments moves their depth:
# '>>' and '>>>' lex as one token and close two and three.
_TYPE_BRACKET_DEPTH = {"<": 1, ">": -1, ">>": -2, ">>>": -3}

# Comment and literal patterns, shared by the token regex and the coarse
# scans so they agree on where each comment and literal starts and ends.  A
# literal is _literal's body: it may not span a line unless the newline is
# escaped.  The one-line string and char do not, and a closed literal (a
# 'wrapped' token when the one-line patterns fail) may.  An open one runs to
# the first unescaped newline or to the end.
_LINE_COMMENT = r"//[^\n]*"
_BLOCK_COMMENT = r"/\*[^*]*\*+(?:[^/*][^*]*\*+)*/"
_OPEN_COMMENT = r"/\*[\s\S]*"
_literal = r"{q}[^{q}\\\n]*(?:\\{escaped}[^{q}\\\n]*)*{end}".format
_STRING = _literal(q='"', escaped=".", end='"')
_CHAR = _literal(q="'", escaped=".", end="'")
_CLOSED_LITERAL = "|".join(_literal(q=q, escaped=r"[\s\S]", end=q) for q in "\"'")
_OPEN_LITERAL = "|".join(_literal(q=q, escaped=r"[\s\S]", end=r"(?:\n|\\?\Z)") for q in "\"'")

# The alternatives of one token or comment, tried in this order.  Only
# ' \t\r\f\v' and '\n' are whitespace; any other character that starts
# nothing else is a one-character token.  Literals with an escaped newline
# ('wrapped') and unterminated ones ('open_literal') are rare and come after
# the one-line string and char patterns.
_SPACE = r"[ \t\r\f\v\n]*"
_TOKEN_PARTS = (
    ("ident", IDENTIFIER),
    ("line_comment", _LINE_COMMENT),
    ("block_comment", _BLOCK_COMMENT),
    ("open_comment", _OPEN_COMMENT),
    ("punct", "|".join(map(re.escape, _MULTI_PUNCT)) + r"|[!#%&()*+,\-./:;<=>?@\[\\\]^`{|}~]"),
    ("number", r"\d(?:[\w.]|[eEpP][+-])*"),
    ("string", _STRING),
    ("char", _CHAR),
    ("wrapped", _CLOSED_LITERAL),
    ("open_literal", _OPEN_LITERAL),
    ("other", r"[^ \t\r\f\v\n]"),
)
# One match per token or comment, leading whitespace included, named by its
# group.  The empty tail alternative lets trailing whitespace match once.
_TOKEN_RE = re.compile(_SPACE + "(?:" + "|".join(f"(?P<{g}>{f})" for g, f in _TOKEN_PARTS) + r"|\Z)")
# The same tokens with their text as the only group, for findall over text
# that holds no comment and no open literal and ends with a token.
_TOKEN_TEXT_RE = re.compile(_SPACE + "(" + "|".join(f"(?:{f})" for _g, f in _TOKEN_PARTS) + ")")
_CODE_KINDS = frozenset(("ident", "punct", "number", "string", "char"))


def _line_starts(source: str) -> list[int]:
    """Offset just past each newline; the last entry lies past the end."""
    return list(accumulate(len(part) + 1 for part in source.split("\n")))


def _decode(
    text: str, pos: int, endpos: int, stop: bool = False
) -> tuple[list[str], list[str], list[int], list[int], list[tuple[str, int, int]]]:
    """Lex text[pos:endpos] into parallel columns: each code token's kind
    (ident|number|string|char|punct), text, start and end offset; and each
    comment's (group, start, end), its group a _TOKEN_RE group name.

    One finditer loop over _TOKEN_RE; no Python code runs per character.
    A ParseError for an unterminated comment or literal gives its line in
    text.  With stop, lexing ends with the first code '{'.
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
                raise ParseError(_line_of(text, start), "unterminated block comment")
            else:  # a wrapped or open literal
                literal = "string" if tok[0] == '"' else "char"
                if kind == "open_literal":
                    raise ParseError(_line_of(text, start), f"unterminated {literal} literal")
                kind = literal
        kinds.append(kind)
        texts.append(tok)
        starts.append(start)
        ends.append(end)
        if stop and tok == "{":
            break
    return kinds, texts, starts, ends, comments


def _comment_text(group: str, text: str) -> tuple[str, str]:
    """A comment's kind and its text without delimiters, from its _TOKEN_RE
    group and source text."""
    if group == "line_comment":
        return "line", text[2:]
    if text.startswith("/**") and len(text) > 4:
        return "javadoc", text[3:-2]  # drop the second '*' of the opener
    return "block", text[2:-2]


def _raw_comment(group: str, text: str, line: int, start: int, end: int) -> _RawComment:
    """A comment from its _TOKEN_RE group and source text, delimiters
    included, and the line it starts on."""
    kind, body = _comment_text(group, text)
    return _RawComment(kind, body, line, line + body.count("\n"), start, end)


def _lex(source: str) -> tuple[list[tuple[str, str, int, int, int]], list[_RawComment]]:
    """Tokenize Java source into one (kind, text, line, start, end) row per
    code token, and its comment records."""
    line_starts = _line_starts(source)
    kinds, texts, starts, ends, spans = _decode(source, 0, len(source))
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


def _line_of(source: str, offset: int) -> int:
    return source.count("\n", 0, offset) + 1


class _Layout:
    """The coarse pass over a file, scanned as far as it is asked: the
    (group, start, end) span of each comment, its group a _TOKEN_RE group
    name, and the offset of each code '{' mapped to that of its matching '}'.

    scan raises ParseError for an unterminated comment or literal, and
    finish then for braces that do not balance, with the lines and messages
    the fine lexer and a brace match over all its tokens give.  A parse of a
    file's next version moves pos over each run of text it takes from the
    previous version; the braces in such a run pair off within it, so the
    braces around it pair as a scan through it would pair them.
    """

    def __init__(self, source: str, path: str):
        self.source = source
        self.path = path
        self.pos = 0  # source[:pos] is scanned or stepped over
        self.comments: list[tuple[str, int, int]] = []
        self.closers: dict[int, int] = {}
        self.opened: list[int] = []
        self.stray: int | None = None  # the first '}' that closes nothing

    def scan(self, endpos: int, brace: int = -1) -> None:
        """Scan on to endpos, which no comment or literal spans, or until the
        '{' at offset brace is matched."""
        source, comments, closers, opened = self.source, self.comments, self.closers, self.opened
        pos = self.pos
        while pos < endpos:
            m = _LAYOUT_RE.match(source, pos, endpos)
            kind = m.lastgroup
            if kind is None:
                pos = endpos
                break
            pos = m.end()
            if kind == "open":
                opened.append(pos - 1)
            elif kind == "close":
                if opened:
                    at = opened.pop()
                    closers[at] = pos - 1
                    if at == brace:
                        break
                elif self.stray is None:
                    self.stray = pos - 1
            elif kind == "line_comment" or kind == "block_comment":
                comments.append((kind, *m.span(kind)))
            elif kind == "open_comment":
                raise ParseError(_line_of(source, m.start(kind)), "unterminated block comment")
            elif kind == "open_literal":
                literal = "string" if m[kind][0] == '"' else "char"
                raise ParseError(_line_of(source, m.start(kind)), f"unterminated {literal} literal")
        self.pos = pos

    def closer(self, brace: int) -> int | None:
        """The offset of the '}' that matches the '{' at brace, if any."""
        if brace not in self.closers:
            self.scan(len(self.source), brace)
        return self.closers.get(brace)

    def finish(self) -> None:
        self.scan(len(self.source))
        source = self.source
        if self.stray is not None:
            raise ParseError(_line_of(source, self.stray), f"unbalanced '}}' in {self.path}")
        if self.opened:
            # the line of the file's last token; the innermost unclosed '{' is a
            # token boundary, so lexing from it reaches that token
            last = _decode(source, self.opened[-1], len(source))[2][-1]
            raise ParseError(_line_of(source, last), f"unbalanced '{{' in {self.path}")


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


_KEY = 24  # how much of a member's text the old version's members are looked up by


class _OldVersion:
    """The previous version of a file, its text and facts, with what a parse
    of the next version looks up in them: the starts of its declarations and
    comments, and the members of each class body, at their offsets in the
    text and by their first _KEY characters.  A class is named by its
    qualified name, which no two classes of a file that parses share."""

    def __init__(self, source: str, facts: SourceFacts):
        self.source = source
        self.facts = facts
        self.decl_starts = [d[0] for d in facts.decls]
        self.comment_starts = [start for _group, start, _end in facts.comment_spans]
        self.class_starts = {label[6:]: start for start, label, _b0, _b1 in facts.decls if label[0] == "c"}
        self.keys: dict[str, dict[str, list[int]]] = {}  # qname -> members by key

    def table(self, qname: str, cls: ClassFacts) -> tuple[tuple[int, ...], ...]:
        """cls.members, cls being the class qname, as offsets into source."""
        s = self.class_starts[qname]
        return tuple([(a + s, e + s, f, m, i) for a, e, f, m, i in cls.members])

    def members_at(self, qname: str, table: tuple[tuple[int, ...], ...], key: str) -> list[int]:
        """The members of table, the class qname's, whose text starts with
        key."""
        keys = self.keys.get(qname)
        if keys is None:
            keys = self.keys[qname] = {}
            text = self.source
            for k, (at, *_rest) in enumerate(table[:-1]):
                keys.setdefault(text[at : at + _KEY], []).append(k)
        return keys.get(key, [])


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# Deeper type nesting raises ParseError (the file is then summarised at file
# level) instead of exhausting the interpreter's recursion limit.
_MAX_TYPE_NESTING = 64

_SPAN_START = itemgetter(1)
_NAME = attrgetter("name")


class _Parser:
    """Declaration parser over token columns that are lexed as they are read.

    A token is named by its index in the columns.  The source is lexed in
    chunks that end just past the next code '{', so a '{' region the parser
    steps over is never lexed; a line is computed only where an error needs
    one.  Each method takes the comment spans inside its body; the others
    are collected in outer.

    Given the old version of the file, its text and facts, the parser steps
    over the text the edit left whole and takes its facts from them (see
    step_run).
    """

    def __init__(self, source: str, layout: _Layout, old: _OldVersion | None = None):
        self.source = source
        self.layout = layout
        self.lexed = 0  # source offset the next chunk starts at
        self.kinds: list[str] = []
        self.texts: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.pos = 0
        self.nesting = 0
        # how many constructs took a '{' or '}' as a plain token that does not
        # pair off within them
        self.unmatched = 0
        self.outer: list[tuple[str, int, int]] = []  # the comments outside method bodies, so far
        self.next_comment = 0  # layout.comments[next_comment:] are in neither outer nor a body
        # (index in outer, index in the old comments, count, how many keep
        # their attachment) of the comments of each text stepped over
        self.moved: list[tuple[int, int, int, int]] = []
        self.decls: list[tuple[int, str, int, int]] = []  # SourceFacts.decls, so far
        self.preamble_end = 0
        self.old = old

    # -- token helpers -----------------------------------------------------

    def lex_chunk(self) -> bool:
        """Append the tokens up to and including the next code '{'; False
        when no token is left."""
        source = self.source
        if self.lexed >= len(source):
            return False
        kinds, texts, starts, ends, _comments = _decode(source, self.lexed, len(source), stop=True)
        self.lexed = ends[-1] if texts and texts[-1] == "{" else len(source)
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
        return _line_of(self.source, self.starts[k])

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

    def check_braces(self, start: int) -> None:
        """Count the construct that took tokens start..pos as plain tokens
        in unmatched when a '{' or '}' among them does not pair off."""
        texts = self.texts[start : self.pos]
        if "{" in texts or "}" in texts:
            depth = 0
            for text in texts:
                depth += (text == "{") - (text == "}")
                if depth < 0:
                    break
            self.unmatched += depth != 0

    def drop_lookahead(self) -> None:
        """Forget the tokens lexed past the current one."""
        for column in (self.kinds, self.texts, self.starts, self.ends):
            del column[self.pos :]

    def close_region(self, brace: int) -> int:
        """Take the '}' that matches the '{' at offset brace as the next
        token, lexing nothing in between; its offset."""
        close = self.layout.closer(brace)
        if close is None:  # a parse alone finds the '{' unbalanced
            raise ParseError(_line_of(self.source, brace), "unbalanced '{'")
        self.take_close(close)
        return close

    def take_close(self, at: int) -> None:
        """Take the '}' at offset at as the next token, lexing nothing."""
        self.drop_lookahead()
        self.kinds.append("punct")
        self.texts.append("}")
        self.starts.append(at)
        self.ends.append(at + 1)
        self.pos += 1
        self.lexed = at + 1

    def skip_balanced(self, open_text: str, close_text: str) -> tuple[int, int]:
        """Consume from the current opening token through its matching close.
        Returns the (start, end) token index range, end exclusive.  A '{'
        region is not lexed: its range holds only the two braces, and
        lexing resumes just past the '}'."""
        start = self.pos
        opener = self.expect(open_text, "to open a balanced region")
        if open_text == "{":
            self.close_region(self.starts[opener])
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
        self.check_braces(start)
        return start, self.pos

    def skip_generics(self) -> None:
        """Consume a balanced <...> region; in a declaration position a '>>'
        or '>>>' closes two or three."""
        opener = self.expect("<", "to open type parameters")
        depth = 1
        while depth > 0:
            k = self.peek()
            if k is None:
                raise ParseError(self.line(opener), "unbalanced '<'")
            depth += _TYPE_BRACKET_DEPTH.get(self.texts[k], 0)
            self.take()
        self.check_braces(opener)

    # -- comments and steps ------------------------------------------------

    def flush(self, upto: int) -> None:
        """Put the comments before offset upto that no method body holds in
        outer."""
        self.layout.scan(upto)
        comments = self.layout.comments
        lo = bisect_left(comments, upto, self.next_comment, key=_SPAN_START)
        self.outer += comments[self.next_comment : lo]
        self.next_comment = lo

    def step(self, at: int, start: int, end: int, settled: int = 0) -> None:
        """Step over the source from offset at, which holds the old text
        start..end, taking the comments in it, of which those before the old
        offset settled keep their attachment."""
        old = self.old
        self.flush(at)
        c0 = bisect_left(old.comment_starts, start)
        c1 = bisect_left(old.comment_starts, end, c0)
        if c1 > c0:
            kept = bisect_left(old.comment_starts, settled, c0, c1) - c0
            self.moved.append((len(self.outer), c0, c1 - c0, max(kept, 0)))
            d = at - start
            self.outer += [(group, s + d, e + d) for group, s, e in old.facts.comment_spans[c0:c1]]
        self.drop_lookahead()
        self.lexed = self.layout.pos = at + end - start

    def step_to_brace(self, at: int, start: int, brace: int) -> int:
        """Step over the source from offset at, which holds the old text from
        start through the '{' at brace; the new offset of that '{'."""
        self.step(at, start, brace + 1)
        brace += at - start
        self.layout.opened.append(brace)  # as a scan through the '{' would
        return brace

    def holds(self, table: tuple[tuple[int, ...], ...], k: int, j: int, at: int) -> bool:
        """Whether the source holds members k..j-1 of table, the members of
        the class of the same name in the old version (_OldVersion.table),
        from offset at.

        The members' text runs from the first token of the first to the end
        of the last, which ends a token in both versions (after a token that
        could go on, the next character must be the same too).  From a token
        start in the same class body, the same text lexes and parses to the
        same facts, and its braces pair off within it (the table is empty
        otherwise).
        """
        text = self.old.source
        end = table[j - 1][1]
        if text[end - 1] not in ";}),":
            end += 1
        return self.source.startswith(text[table[k][0] : end], at)

    def run_at(self, old_cls: ClassFacts, table: tuple[tuple[int, ...], ...], at: int, candidates) -> int:
        """The first of the candidate members of old_cls, table being its
        members, that the source holds at offset at, or -1; an enum's member
        0, its constants, is no candidate."""
        n = len(table) - 1  # table[n] is the '}'
        first = 1 if old_cls.kind == "enum" else 0
        return next((k for k in candidates if first <= k < n and self.holds(table, k, k + 1, at)), -1)

    def step_run(
        self,
        old_cls: ClassFacts,
        table: tuple[tuple[int, ...], ...],
        k: int,
        at: int,
        fields: list[FieldFacts],
        methods: list[MethodFacts],
        inners: list[ClassFacts],
        members: list[tuple[int, ...]],
    ) -> int:
        """Step over the longest run of members of old_cls, table being its
        members, from member k on that the source holds from offset at (see
        holds), and on to the next member when the text between is the same
        too; take their facts.  Returns the index in table of the member
        after the run."""
        old = self.old
        j = n = len(table) - 1
        if not self.holds(table, k, n, at):
            lo = k + 1  # holds(k, lo) and not holds(k, j)
            while j - lo > 1:
                mid = (lo + j) // 2
                if self.holds(table, k, mid, at):
                    lo = mid
                else:
                    j = mid
            j = lo
        start, end = table[k][0], table[j - 1][1]
        if self.source.startswith(old.source[end : table[j][0]], at + end - start):
            end = table[j][0]  # the comments and space after the run are the same too
        f0, m0, i0 = table[k][2:]
        f1, m1, i1 = table[j][2:]
        d = at - start
        lo = bisect_left(old.decl_starts, start)
        decls = old.facts.decls[lo : bisect_left(old.decl_starts, end, lo)]
        # a comment before the run's last declaration is followed by one in
        # the run, in both versions, so its attachment stays
        self.step(at, start, end, decls[-1][0] if decls else 0)
        nf, nm, ni = len(fields), len(methods), len(inners)
        members += [(a + d, e + d, f - f0 + nf, m - m0 + nm, i - i0 + ni) for a, e, f, m, i in table[k:j]]
        fields += old_cls.fields[f0:f1]
        methods += old_cls.methods[m0:m1]
        inners += old_cls.inner_classes[i0:i1]
        if d:
            decls = [(s + d, label, b0 + d, b1 + d) for s, label, b0, b1 in decls]
        self.decls += decls
        return j

    # -- text helpers --------------------------------------------------------

    def slice_tokens(self, start: int, end: int) -> str:
        """Join token texts start..end (exclusive) into normalized text."""
        return _join_tokens(self.texts[start:end])

    # -- grammar -------------------------------------------------------------

    def parse_unit(self) -> tuple[str | None, list[ImportFacts], list[ClassFacts]]:
        package = None
        imports: list[ImportFacts] = []
        old = self.old
        if old is not None and old.facts.preamble_end and self.source.startswith(old.source[: old.facts.preamble_end]):
            package, imports = old.facts.package_name, list(old.facts.imports)
            self.preamble_end = old.facts.preamble_end
            self.step(0, 0, self.preamble_end)
        elif self.at("package"):
            self.take()
            package = self.read_dotted_name("after 'package'")
            self.preamble_end = self.ends[self.expect(";", "after package name")]
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
            self.preamble_end = self.ends[self.expect(";", "after import")]
            imports.append(ImportFacts(name, is_static=is_static, is_wildcard=is_wildcard))
        classes: list[ClassFacts] = []
        scope = old.facts.classes if old is not None else ()
        while True:
            if self.peek() is None:
                return package, imports, classes
            if self.at(";"):
                self.take()
                continue
            before = self.unmatched
            mods, annos, first = self.parse_modifiers_and_annotations()
            classes.append(self.parse_type_decl("", mods, annos, first, scope, before))

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
        self,
        prefix: str,
        mods: set[str],
        annos: list[AnnotationFacts],
        first: int | None,
        scope: tuple[ClassFacts, ...],
        before: int,
    ) -> ClassFacts:
        """The caller has read the declaration's modifiers and annotations;
        first is their first token, if any.  scope holds the old version's
        classes of the same prefix; before is unmatched where the
        declaration starts."""
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
        old_cls = next((c for c in scope if c.name == name and c.kind == kind and c.members), None)
        return self.parse_class_rest(
            prefix, name, kind, frozenset(mods), tuple(annos), tuple(extends_types), tuple(implements_types),
            self.starts[first], self.starts[name_tok], old_cls, before,
        )

    def parse_class_rest(
        self,
        prefix: str,
        name: str,
        kind: str,
        mods: frozenset[str],
        annos: tuple[AnnotationFacts, ...],
        extends_types: tuple[str, ...],
        implements_types: tuple[str, ...],
        start: int,
        name_at: int,
        old_cls: ClassFacts | None,
        before: int,
    ) -> ClassFacts:
        """The class whose header the caller has read, from its body's '{'
        on; start and name_at are the offsets of its first token and name,
        old_cls the old version's class of the same name, if any."""
        qname = f"{prefix}.{name}" if prefix else name
        open_at = self.starts[self.expect("{", "to open type body")]
        if self.nesting == _MAX_TYPE_NESTING:
            raise ParseError(_line_of(self.source, name_at), f"type {name} nested deeper than {_MAX_TYPE_NESTING} levels")
        slot = len(self.decls)
        self.decls.append(None)  # filled in when the body closes, so decls stay in order of start
        self.nesting += 1
        fields, names, methods, inners, members = self.parse_class_body(name, qname, kind, old_cls)
        self.nesting -= 1
        body = (open_at, self.ends[self.pos - 1])
        self.decls[slot] = (start, f"class:{qname}", *body)
        self.check_uniqueness(qname, name_at, fields, names, methods)
        cls = ClassFacts(
            name=name,
            kind=kind,
            modifiers=mods,
            annotations=annos,
            extends_types=extends_types,
            implements_types=implements_types,
            fields=tuple(fields),
            methods=tuple(methods),
            inner_classes=tuple(inners),
            members=tuple([(a - start, e - start, f, m, i) for a, e, f, m, i in members])
            if self.unmatched == before
            else (),
        )
        if (
            old_cls is not None
            and cls.members == old_cls.members
            and cls == old_cls
            and all(map(is_, cls.methods, old_cls.methods))
            and all(map(is_, cls.inner_classes, old_cls.inner_classes))
        ):
            return old_cls
        return cls

    def check_uniqueness(
        self, qname: str, name_at: int, fields: list[FieldFacts], names: dict[int, int], methods: list[MethodFacts]
    ) -> None:
        """names maps the index of each field the parser read to the offset
        of its name, whose line a duplicate field's error takes."""
        if len(set(map(_NAME, methods))) == len(methods) and len(set(map(_NAME, fields))) == len(fields):
            return  # no two names, so no two signatures, are the same
        seen_sig: set[tuple[str, tuple[str, ...]]] = set()
        for m in methods:
            sig = m.signature()
            if sig in seen_sig:
                raise ParseError(
                    _line_of(self.source, name_at), f"duplicate method signature {qname}.{sig[0]}({', '.join(sig[1])})"
                )
            seen_sig.add(sig)
        seen_fields: set[str] = set()
        for k, f in enumerate(fields):
            if f.name in seen_fields:
                raise ParseError(_line_of(self.source, names.get(k, name_at)), f"duplicate field {qname}.{f.name}")
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
        self, simple_name: str, qname: str, kind: str, old_cls: ClassFacts | None
    ) -> tuple[list[FieldFacts], dict[int, int], list[MethodFacts], list[ClassFacts], list[tuple[int, ...]]]:
        """The body's fields, the offsets of the names of those read (by
        index), its methods, inner classes and ClassFacts.members entries,
        as offsets into the source.  Given old_cls, runs of its members are
        stepped over (step_run)."""
        fields: list[FieldFacts] = []
        names: dict[int, int] = {}
        methods: list[MethodFacts] = []
        inners: list[ClassFacts] = []
        members: list[tuple[int, ...]] = []
        scope = old_cls.inner_classes if old_cls is not None else ()
        table = self.old.table(qname, old_cls) if old_cls is not None else ()
        hint = 0  # the old member the next one likely is
        if kind == "enum":
            at = self.next_start()
            if table and table[0][1] > table[0][0] and self.holds(table, 0, 1, at):
                hint = self.step_run(old_cls, table, 0, at, fields, methods, inners, members)
            else:
                first = self.pos
                self.parse_enum_constants(simple_name, fields, names)
                members.append((at, self.ends[self.pos - 1] if self.pos > first else at, 0, 0, 0))
        while True:
            if table:
                at = self.next_start()
                counts = (len(fields), len(methods), len(inners))
                if self.source.startswith("}", at):
                    self.take_close(at)
                    members.append((at, at + 1, *counts))
                    return fields, names, methods, inners, members
                k = self.run_at(old_cls, table, at, (hint, hint + 1))
                if k < 0:
                    if (method := self.step_method_header(old_cls, table, hint, qname, at)) is not None:
                        methods.append(method)
                        members.append((at, self.ends[self.pos - 1], *counts))
                        hint += 1
                        continue
                    k = self.run_at(old_cls, table, at, self.old.members_at(qname, table, self.source[at : at + _KEY]))
                if k >= 0:
                    hint = self.step_run(old_cls, table, k, at, fields, methods, inners, members)
                    continue
            t = self.peek()
            if t is None:
                raise ParseError(self.here(), f"unclosed body of {qname}")
            at, text = self.starts[t], self.texts[t]
            counts = (len(fields), len(methods), len(inners))
            if text == "}":
                self.take()
                members.append((at, at + 1, *counts))
                return fields, names, methods, inners, members
            if text == ";":
                self.take()
            elif text == "{":  # instance initializer block
                self.skip_balanced("{", "}")
            elif text == "static" and self.at("{", 1):  # static initializer
                self.take()
                self.skip_balanced("{", "}")
            else:
                self.parse_member(simple_name, qname, fields, names, methods, inners, scope)
            members.append((at, self.ends[self.pos - 1], *counts))

    def parse_enum_constants(self, simple_name: str, fields: list[FieldFacts], names: dict[int, int]) -> None:
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
            names[len(fields)] = self.starts[name_tok]
            fields.append(
                FieldFacts(
                    name=self.texts[name_tok],
                    type_text=simple_name,
                    modifiers=frozenset({"public", "static", "final"}),
                    annotations=tuple(annos),
                    is_enum_constant=True,
                )
            )
            if self.at(","):
                self.take()
                continue

    def parse_member(
        self,
        simple_name: str,
        qname: str,
        fields: list[FieldFacts],
        names: dict[int, int],
        methods: list[MethodFacts],
        inners: list[ClassFacts],
        scope: tuple[ClassFacts, ...],
    ) -> None:
        before = self.unmatched
        mods, annos, first = self.parse_modifiers_and_annotations()
        t = self.peek()
        if t is None:
            raise ParseError(self.here(), f"unexpected end of {qname} body")
        if self.texts[t] in ("class", "interface", "enum") or (self.texts[t] == "@" and self.at("interface", 1)):
            inners.append(self.parse_type_decl(qname, mods, annos, first, scope, before))
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
                start = self.pos
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
                self.check_braces(start)
            names[len(fields)] = self.starts[name_tok]
            fields.append(
                FieldFacts(name=decl_name, type_text=decl_type, modifiers=frozenset(mods), annotations=tuple(annos))
            )
            if self.at(","):
                self.take()
                name_tok = self.expect_ident("as field name")
                continue
            self.expect(";", f"after field {decl_name}")
            return

    def read_body(self, start: int) -> tuple[str, tuple[tuple[str, int, int], ...], int]:
        """The method body whose '{', at offset start, is read: its text, the
        spans of its comments as offsets into the text, and the offset just
        past it.  Nothing in it is lexed."""
        end = self.close_region(start) + 1
        self.flush(start)
        comments = self.layout.comments
        hi = bisect_left(comments, end, self.next_comment, key=_SPAN_START)
        spans = tuple((group, s - start, e - start) for group, s, e in comments[self.next_comment : hi])
        self.next_comment = hi
        return self.source[start:end], spans, end

    def step_method_header(
        self, old_cls: ClassFacts, table: tuple[tuple[int, ...], ...], k: int, qname: str, at: int
    ) -> MethodFacts | None:
        """The method declared from offset at, when member k of old_cls, the
        class of the same name in the old version (table being its members),
        is a method with a body whose text up to the body the source holds
        there: that text is stepped over and the old method taken with the
        new body.  None when it is not such a method."""
        old = self.old
        if not (0 <= k < len(table) - 1 and table[k + 1][3] == table[k][3] + 1):
            return None
        m, start = old_cls.methods[table[k][3]], table[k][0]
        # the method's declaration entry: the first at or after the member's
        # start; it starts past the type parameters of a generic method
        # without modifiers
        decl_start, _label, body_start, _end = old.facts.decls[bisect_left(old.decl_starts, start)]
        if not m.body_text or not self.source.startswith(old.source[start : body_start + 1], at):
            return None
        body_text, body_comments, end = self.read_body(self.step_to_brace(at, start, body_start))
        self.decls.append((at + decl_start - start, f"method:{qname}.{m.name}", end - len(body_text), end))
        return replace(m, body_text=body_text, body_comments=body_comments)

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
        body_text, body_comments = "", ()
        if self.at("{"):
            body_text, body_comments, end = self.read_body(self.starts[self.take()])
        elif self.at("default"):
            # an annotation-type element's default value (JLS 9.6.2): dropped
            start = self.take()
            while not self.at(";"):
                if self.peek() is None:
                    raise ParseError(self.line(name_tok), "unterminated default value")
                self.take()
            self.check_braces(start)
            end = self.ends[self.take()]
        else:
            end = self.ends[self.expect(";", "after abstract method")]
        self.decls.append((self.starts[first], f"method:{qname}.{name}", end - len(body_text), end))
        return MethodFacts(
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


# ---------------------------------------------------------------------------
# Token joining / statement scanning
# ---------------------------------------------------------------------------

_NO_SPACE_BEFORE = {";", ",", ")", "]", "[", ".", "...", "++", "--", "::"}
_NO_SPACE_AFTER = {"(", "[", ".", "@", "::"}


def _join_tokens(texts: list[str]) -> str:
    """Render a run of token texts as compact single-line text."""
    out: list[str] = []
    prev: str | None = None
    for t in texts:
        if prev is not None and not (
            t in _NO_SPACE_BEFORE
            or prev in _NO_SPACE_AFTER
            or (t in _TYPE_BRACKET_DEPTH or prev in _TYPE_BRACKET_DEPTH) and "extends" not in (t, prev)
        ):
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
# The keywords after which `name :` is a label, not the head of a statement.
_LABELED = frozenset(("for", "while", "do", "if", "switch", "try"))

_STMT_SIMPLE_KEYWORDS = {
    "throw": "throw",
    "return": "return",
    "break": "other",
    "continue": "other",
    "assert": "other",
    "yield": "other",
}


def _body_statements(body_text: str) -> tuple[StatementFacts, ...]:
    """The statements of a method body, from its '{...}' source text.

    The text between the braces is decoded into token columns; comments
    only leave their spans, to be blanked.  The matching '}' ends the last
    token.  A comment or literal left open raises ParseError, although a
    body from a file that passed the coarse pass holds none.
    """
    kinds, texts, starts, ends, comments = _decode(body_text, 1, len(body_text) - 1)
    return tuple(_scan_statements(kinds, texts, starts, ends, _blank_comments(body_text, comments)))


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


def _paired_statements(old_text: str, new_text: str) -> tuple[tuple[StatementFacts, ...], tuple[StatementFacts, ...]]:
    """The statements _body_statements builds for two versions of a method
    body, with each segment text the two hold built once.

    Each body is cut into segments at its top-level ';'s and built segment
    by segment (_segment_statements) through one memo, shared by both, from
    a segment's text to its statements.  A body with a comment or literal
    left open is scanned whole.

    A cut is exact because the scanner keeps no state from one statement
    head to the next and, with brackets nested, every lookahead stops at a
    top-level ';'.  Only a keyword statement without its ';' runs on past
    the '}' of its block and across a cut; a body with a segment whose last
    statement does so is scanned whole.
    """
    memo: dict[str, tuple[StatementFacts, ...] | None] = {}
    return _segmented_statements(old_text, memo), _segmented_statements(new_text, memo)


def _segmented_statements(
    body_text: str, memo: dict[str, tuple[StatementFacts, ...] | None]
) -> tuple[StatementFacts, ...]:
    """_body_statements(body_text), built per segment through memo."""
    bounds = _segment_bounds(body_text)
    if bounds is None:
        return _body_statements(body_text)
    stmts: list[StatementFacts] = []
    last = bounds[-2]
    for a, b in zip(bounds, bounds[1:]):
        segment = body_text[a:b]
        if segment not in memo:
            memo[segment] = _segment_statements(segment, a == last)
        built = memo[segment]
        if built is None:
            return _body_statements(body_text)
        stmts += built
    return tuple(stmts)


# The heads that make a segment more or less than one statement.
_NOT_FLAT_HEADS = frozenset(_HEADER_KINDS) | {"case", "default", ";"}


def _segment_statements(segment: str, final: bool) -> tuple[StatementFacts, ...] | None:
    """The statements of a segment of a body, the body's last one when
    final; None when it is not and its last statement runs on past it.

    A flat segment, one that ends at a top-level ';' and holds no brace and
    no comment and no control keyword or label at its head, is one
    statement: its text is the segment's with whitespace collapsed, and its
    kind comes from the token texts of one findall.  A final segment of
    whitespace alone holds none.  Any other segment is decoded and scanned.
    """
    if not final and "{" not in segment and "}" not in segment and "//" not in segment and "/*" not in segment:
        texts = _TOKEN_TEXT_RE.findall(segment)
        head = texts[0]
        if head not in _NOT_FLAT_HEADS and not (head[0] in _IDENT_START and texts[1] == ":" and texts[2] in _LABELED):
            kind = _STMT_SIMPLE_KEYWORDS.get(head) or _classify_generic(texts, 0, len(texts))
            return (StatementFacts(kind, " ".join(segment.split())),)
    elif final and _TOKEN_TEXT_RE.match(segment) is None:  # no token: whitespace alone
        return ()
    kinds, texts, starts, ends, comments = _decode(segment, 0, len(segment))
    spans: list[tuple[int, int]] = []
    stmts = tuple(_scan_statements(kinds, texts, starts, ends, _blank_comments(segment, comments), spans))
    if final or not spans or spans[-1][1] < len(texts) or texts[spans[-1][0]] not in _STMT_SIMPLE_KEYWORDS:
        return stmts
    return stmts if sum(_DEPTH_STEP.get(t, 0) for t in texts[spans[-1][0] :]) == 0 else None


def paired_statements(
    old: MethodFacts, new: MethodFacts
) -> tuple[tuple[StatementFacts, ...], tuple[StatementFacts, ...]]:
    """old.body_statements and new.body_statements for two versions of one
    method.  When neither is built yet, _paired_statements builds both and
    they fill both caches, as a first read would."""
    unbuilt = "body_statements" not in old.__dict__ and "body_statements" not in new.__dict__
    if unbuilt and old.body_text and new.body_text:
        old.__dict__["body_statements"], new.__dict__["body_statements"] = _paired_statements(
            old.body_text, new.body_text
        )
    return old.body_statements, new.body_statements


def _scan_statements(
    kinds: list[str],
    texts: list[str],
    starts: list[int],
    ends: list[int],
    blanked: str,
    spans: list[tuple[int, int]] | None = None,
) -> list[StatementFacts]:
    """Flatten a method body's token columns into statement records.

    Control headers (if/for/try/...) become their own records; their blocks
    are scanned recursively in the same flat pass. Anything unrecognized is
    collected up to the next top-level ';' and classified coarsely.  When
    spans is given, it receives each statement's (head, end) token range,
    end exclusive.
    """
    stmts: list[StatementFacts] = []
    i = 0
    n = len(texts)

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
            and texts[i + 2] in _LABELED
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
                if tt in ASSIGN_OPS and depth == 0:
                    saw_eq = True
                end += 1
            if end == i:
                i += 1
                continue
            kind = _classify_generic(texts, i, end)
        stmts.append(StatementFacts(kind, " ".join(blanked[starts[i] : ends[end - 1]].split())))
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


def _classify_generic(texts: list[str], lo: int, hi: int) -> str:
    """Classify the generic statement made of the token texts lo..hi
    (exclusive)."""
    depth = 0
    has_assign = False
    has_call = False
    for idx in range(lo, hi):
        t = texts[idx]
        if t in ("(", "[", "{"):
            depth += 1
            if t == "(" and idx > lo and texts[idx - 1][0] in _IDENT_START:
                if depth == 1:
                    has_call = True
        elif t in (")", "]", "}"):
            depth -= 1
        elif depth == 0 and t in ASSIGN_OPS:
            has_assign = True
            break
        elif depth == 0 and t in ("++", "--"):
            has_assign = True
    if not has_assign and _looks_like_declaration(texts, lo, hi):
        return "declaration"
    if has_assign:
        if _looks_like_declaration(texts, lo, hi):
            return "declaration"
        return "assignment"
    if has_call:
        return "invocation"
    if lo < hi and texts[lo] == "new":
        return "invocation"
    return "other"


def _looks_like_declaration(texts: list[str], i: int, n: int) -> bool:
    """Type-then-name shape at the head of tokens i..n (exclusive), e.g.
    `Map<K,V> m = ...`."""
    if i < n and texts[i] == "final":
        i += 1
    if i >= n or texts[i][0] not in _IDENT_START:
        return False
    if texts[i] in ("this", "super", "new"):
        return False
    i += 1
    while i < n:
        t = texts[i]
        if t == "." and i + 1 < n and texts[i + 1][0] in _IDENT_START:
            i += 2
            continue
        if t == "<":
            depth = 1
            i += 1
            while i < n and depth > 0:
                depth += _TYPE_BRACKET_DEPTH.get(texts[i], 0)
                i += 1
            continue
        if t == "[" and i + 1 < n and texts[i + 1] == "]":
            i += 2
            continue
        break
    return i < n and texts[i][0] in _IDENT_START and (i + 1 >= n or texts[i + 1] in ("=", ";", ",", "[", ":"))


# ---------------------------------------------------------------------------
# Comment attachment
# ---------------------------------------------------------------------------

_ATTACH_WINDOW_LINES = 2


def _near(source: str, start: int, end: int) -> bool:
    """Whether source[start:end] holds at most _ATTACH_WINDOW_LINES newlines."""
    for _ in range(_ATTACH_WINDOW_LINES + 1):
        start = source.find("\n", start, end) + 1
        if not start:
            return True
    return False


def _resolve_attachments(
    source: str,
    spans: list[tuple[str, int, int]],
    decls: list[tuple[int, str, int, int]],
    kept: list[CommentFacts | None],
    settled: list[bool],
) -> list[CommentFacts]:
    """Attach each comment outside method bodies, given as a (group, start,
    end) span in source order, to a declaration or scope; decls is
    SourceFacts.decls.  kept holds, for each span, the facts of the same
    comment in the old version of the file, if any: taken as they are where
    settled says the attachment stays, else when it comes out the same.

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
    starts = [d[0] for d in decls]
    bodies = [d for d in decls if d[1][0] == "c"]  # in order of body start too
    open_bodies: list[tuple[int, str, int, int]] = []
    next_body = 0
    facts: list[CommentFacts] = []
    for (group, start, end), old, stays in zip(spans, kept, settled):
        if stays:
            facts.append(old)
            continue
        while next_body < len(bodies) and bodies[next_body][2] < start:
            open_bodies.append(bodies[next_body])
            next_body += 1
        # spans that closed before this comment leave the top; what remains
        # on top contains the comment, and any span opened inside it lies above
        while open_bodies and open_bodies[-1][3] < end:
            open_bodies.pop()
        # a comment's last character is no newline, so the lines between its
        # last line and the declaration's are the newlines after it
        k = bisect_left(starts, end)
        if k < len(decls) and _near(source, end, starts[k]):
            attachment = decls[k][1]
        elif open_bodies:
            attachment = open_bodies[-1][1]
        else:
            attachment = "file"
        if old is None or old.attachment != attachment:
            old = _comment_facts(*_comment_text(group, source[start:end]), attachment)
        facts.append(old)
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

    old is the text and facts (from parse_java) of the file's previous
    version, if any: the text the edit left whole is then stepped over and
    its facts taken from them.  The facts are those of a parse without old;
    on a ParseError the source is parsed again without old, so the error is
    that parse's.
    """
    if old is not None:
        try:
            return _parse_java(source, path, old)
        except ParseError:
            pass
    return _parse_java(source, path, None)


def _parse_java(source: str, path: str, old: tuple[str, SourceFacts] | None) -> SourceFacts:
    old_version = _OldVersion(*old) if old is not None else None
    layout = _Layout(source, path)
    if old_version is None:
        layout.finish()  # a parse alone reports the coarse pass's errors first
    parser = _Parser(source, layout, old_version)
    package, imports, classes = parser.parse_unit()
    if not classes:
        raise ParseError(1, f"no type declaration in {path}")
    if old_version is not None:
        layout.finish()
    parser.flush(len(source))
    seen_qnames: set[str] = set()
    # in the order the class bodies close, as a parse alone meets them
    for start, label, _body, _end in sorted((d for d in parser.decls if d[1][0] == "c"), key=itemgetter(3)):
        qname = label[6:]
        if qname in seen_qnames:
            raise ParseError(_line_of(source, start), f"duplicate type declaration {qname} in {path}")
        seen_qnames.add(qname)
    kept: list[CommentFacts | None] = [None] * len(parser.outer)
    settled = [False] * len(parser.outer)
    for at, first, count, stays in parser.moved:
        kept[at : at + count] = old_version.facts.comments[first : first + count]
        settled[at : at + stays] = [True] * stays
    return SourceFacts(
        package_name=package,
        imports=tuple(imports),
        classes=tuple(classes),
        comments=tuple(_resolve_attachments(source, parser.outer, parser.decls, kept, settled)),
        preamble_end=parser.preamble_end,
        comment_spans=tuple(parser.outer),
        decls=tuple(parser.decls),
    )


def merge_inline_comments(facts: SourceFacts, methods: list[MethodFacts]) -> list[CommentFacts]:
    """facts.comments with the inline comments of the given methods of that
    file merged in, all in source order.  A method's body sits where
    facts.decls says: its k-th 'method:C.m' entry is the k-th method m of
    class C."""
    wanted = {id(m) for m in methods if m.body_comments}
    if not wanted:
        return list(facts.comments)
    bodies: dict[str, list[int]] = {}
    for _start, label, body, _end in facts.decls:
        bodies.setdefault(label, []).append(body)
    placed: list[tuple[int, MethodFacts]] = []
    for qname, cls in facts.all_classes():
        seen: dict[str, int] = {}
        for m in cls.methods:
            k = seen[m.name] = seen.get(m.name, -1) + 1
            if id(m) in wanted:
                placed.append((bodies[f"method:{qname}.{m.name}"][k], m))
    starts = [start for _group, start, _end in facts.comment_spans]
    out: list[CommentFacts] = []
    done = 0
    for body, m in sorted(placed, key=itemgetter(0)):
        at = bisect_left(starts, body)
        out += facts.comments[done:at]
        done = at
        out += m.inline_comments
    out += facts.comments[done:]
    return out
