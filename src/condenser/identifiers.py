"""Identifier extraction, ordering, filtering, and CamelCase splitting.

Identifiers touched by a change are grouped into five categories rendered
in a fixed order: MethodName, ClassName, FieldName, TypeName, Other. Each
identifier also carries its split word list so both the exact token and its
decomposition are available downstream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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
            if word != word.lower() or any(ch.isspace() for ch in word):
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


def extract_identifiers(
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
