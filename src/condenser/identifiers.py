"""Identifier extraction, ordering, filtering, and CamelCase splitting.

Identifiers touched by a change are grouped into five categories rendered
in a fixed order: MethodName, ClassName, FieldName, TypeName, Other. Each
identifier also carries its split word list so both the exact token and its
decomposition are available downstream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain

from condenser.changeset import StructuralDiff

__all__ = [
    "CATEGORY_ORDER",
    "EmphasizedIdentifier",
    "IdentifierFilter",
    "apply_filter",
    "extract_identifiers",
    "identifier_corpus_stats",
    "simple_type_names",
    "split_camel",
]

CATEGORY_ORDER = ("MethodName", "ClassName", "FieldName", "TypeName", "Other")
_CATEGORY_RANK = {c: i for i, c in enumerate(CATEGORY_ORDER)}


@dataclass(frozen=True)
class EmphasizedIdentifier:
    raw: str
    category: str
    split: tuple[str, ...]


@dataclass(frozen=True)
class IdentifierFilter:
    stoplist: frozenset[str]
    min_length: int = 2

    def __post_init__(self):
        for word in self.stoplist:
            if word != word.lower() or any(map(str.isspace, word)):
                raise ValueError(f"stoplist entries must be lowercase single words: {word!r}")


_SPLIT_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z]*|[a-z]+|[0-9]+")


def split_camel(raw: str) -> list[str]:
    """Split an identifier at case, acronym, underscore and digit boundaries.

    getUserName -> [get, User, Name]; HTTPServer2 -> [HTTP, Server, 2];
    trackstream -> [trackstream]. Lossless: the words concatenate back to
    the identifier with its underscores removed.
    """
    return _SPLIT_RE.findall(raw)


def simple_type_names(type_text: str) -> list[str]:
    """Reduce a type text to its simple names: List<Map<String,Foo>> gives
    List, Map, String, Foo. Qualified names keep only the last segment."""
    out: list[str] = []
    for part in re.split(r"[<>,\[\]\s]+", type_text):
        part = part.strip(".?")
        if not part or part in ("extends", "super"):
            continue
        simple = part.split(".")[-1].rstrip(".")
        simple = simple.replace("...", "")
        if simple and re.fullmatch(r"[A-Za-z_$][\w$]*", simple):
            out.append(simple)
    return out


def _simple(name: str) -> str:
    """The last segment of a qualified name."""
    return name.rsplit(".", 1)[-1]


def extract_identifiers(diff: StructuralDiff) -> list[EmphasizedIdentifier]:
    """Identifiers touched by the diff, deduplicated by (raw, category) and
    ordered by category rank then first occurrence."""
    found: dict[str, dict[str, None]] = {c: {} for c in CATEGORY_ORDER}
    methods, classes, fields, types, other = found.values()  # in CATEGORY_ORDER

    def add_types(*type_texts: str) -> None:
        for text in type_texts:
            types.update(dict.fromkeys(simple_type_names(text)))

    for fd in diff.files:
        for cname, m in fd.method_added + fd.method_removed:
            methods[m.name] = None
            classes[_simple(cname)] = None
            add_types(*(ptype for ptype, _pname in m.parameters))
        for ic in fd.inline_changes:
            methods[ic.method_name] = None
            classes[_simple(ic.class_name)] = None
            for _name, old_t, new_t in ic.param_retyped:
                add_types(old_t, new_t)
            add_types(*(ptype for ptype, _pname in ic.new.parameters))
        for name in chain(fd.class_added, fd.class_removed, *fd.class_renamed):
            classes[_simple(name)] = None
        for cname, f in fd.field_added + fd.field_removed:
            (other if f.is_enum_constant else fields)[f.name] = None
            classes[_simple(cname)] = None
            add_types(f.type_text)
        for cname, _fname, old_t, new_t in fd.field_retyped:
            classes[_simple(cname)] = None
            add_types(old_t, new_t)
        other.update(dict.fromkeys(ac.name for ac in fd.annotation_changes))
        for ic in fd.inline_changes:
            other.update(dict.fromkeys(name for name, _args in ic.annotation_added + ic.annotation_removed))
        # a file's method annotations come after its other Other names
        for _cname, m in fd.method_added + fd.method_removed:
            other.update(dict.fromkeys(a.name for a in m.annotations))
    return [
        EmphasizedIdentifier(raw=raw, category=category, split=tuple(split_camel(raw)))
        for category, names in found.items()
        for raw in names
    ]


def apply_filter(ids: list[EmphasizedIdentifier], flt: IdentifierFilter) -> list[EmphasizedIdentifier]:
    """Drop stoplisted or too-short identifiers, keeping order.

    When the input held any MethodName/ClassName anchor, at least one anchor
    survives: if the pass removed them all, the first anchor is restored.
    Filtering is idempotent."""
    kept = [
        e for e in ids
        if e.raw.lower() not in flt.stoplist and len(e.raw) >= flt.min_length
    ]
    anchors_in = [e for e in ids if e.category in ("MethodName", "ClassName")]
    anchors_out = [e for e in kept if e.category in ("MethodName", "ClassName")]
    if anchors_in and not anchors_out:
        anchor = anchors_in[0]
        kept = sorted(
            kept + [anchor],
            key=lambda e: (_CATEGORY_RANK[e.category], ids.index(e)),
        )
    return kept


def identifier_corpus_stats(samples) -> list[tuple[str, int, int]]:
    """Per-category counts of identifiers found in their commit messages.

    samples yields (identifiers, message) pairs where identifiers is a list
    of EmphasizedIdentifier. For each category the first count is how many
    identifiers occur verbatim (case-insensitive) in the message, the second
    how many of their split words occur. Deterministic for a fixed corpus.
    """
    verbatim = {c: 0 for c in CATEGORY_ORDER}
    split_hits = {c: 0 for c in CATEGORY_ORDER}
    for identifiers, message in samples:
        lowered = message.lower()
        for e in identifiers:
            if e.raw.lower() in lowered:
                verbatim[e.category] += 1
            for word in e.split:
                if word.lower() in lowered:
                    split_hits[e.category] += 1
    return [(c, verbatim[c], split_hits[c]) for c in CATEGORY_ORDER]
