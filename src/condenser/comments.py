"""Elicit change-relevant comments and the annotations of added or removed
methods.

Comments are surfaced when they were added or removed between versions, or
when they document an entity the structural diff touches (origin=context).
They pair through the diff's own entity matching: old comments take the
names of the diff's renamed classes, and inline comments are read only for
the methods the diff adds, removes or re-bodies.  Each elicited comment gets
exactly one category, assigned by first match in the fixed priority order
license > todo > javadoc > general.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from condenser.changeset import AnnotationChange, FileDiff, StructuralDiff
from condenser.javafacts import CommentFacts, MethodFacts, SourceFacts, merge_inline_comments

__all__ = [
    "ElicitedComment",
    "categorize_comment",
    "elicit_annotations",
    "elicit_comments",
    "normalize_comment_text",
]

JAVADOC_MIN_TOKENS = 20  # strict: a javadoc-category comment has more than this


@dataclass(frozen=True)
class ElicitedComment:
    category: str  # javadoc | license | todo | general
    text: str
    origin: str  # added | removed | context
    attachment: str


_GUTTER = re.compile(r"^\s*\*+ ?", re.MULTILINE)
_WHITESPACE = re.compile(r"\s+")


def normalize_comment_text(text: str) -> str:
    """Strip javadoc '*' gutters and collapse whitespace to single spaces."""
    return _WHITESPACE.sub(" ", _GUTTER.sub("", text)).strip()


def categorize_comment(comment: CommentFacts) -> str:
    lowered = comment.text.lower()
    if "license" in lowered:
        return "license"
    if "todo" in lowered:
        return "todo"
    if comment.kind in ("javadoc", "block") and comment.token_count > JAVADOC_MIN_TOKENS:
        return "javadoc"
    return "general"


def _touched_attachments(diff: StructuralDiff) -> set[str]:
    """Attachment strings for entities the diff records touch."""
    touched: set[str] = set()
    for fd in diff.files:
        for name in fd.class_added + fd.class_removed:
            touched.add(f"class:{name}")
        for _old_name, new_name in fd.class_renamed:
            touched.add(f"class:{new_name}")
        for cname, m in list(fd.method_added) + list(fd.method_removed):
            touched.add(f"method:{cname}.{m.name}")
        for ic in fd.inline_changes:
            touched.add(f"method:{ic.class_name}.{ic.method_name}")
        for cname, f in list(fd.field_added) + list(fd.field_removed):
            touched.add(f"class:{cname}")
    return touched


def _renamed(qname: str, renames: dict[str, str]) -> str:
    """A qualified name with a renamed class, or one nested in it, renamed."""
    for old, new in renames.items():
        if qname == old or qname.startswith(old + "."):
            return new + qname[len(old) :]
    return qname


def _keyed(
    facts: SourceFacts, body_changed: set[str], renames: dict[str, str], normalized: dict[str, str]
) -> list[tuple[CommentFacts, tuple[str, str]]]:
    """Each comment of one version that can differ from the other version's,
    in source order, with its key: every comment outside method bodies, and
    the inline comments of the methods named in body_changed.  Names are
    the new version's, so old attachments go through renames.  normalized
    caches normalize_comment_text over the texts of both versions."""
    methods: list[MethodFacts] = []
    if body_changed:
        for qname, cls in facts.all_classes():
            qname = _renamed(qname, renames)
            methods += (m for m in cls.methods if f"{qname}.{m.name}" in body_changed)

    def attachment(comment: CommentFacts) -> str:
        if not renames:
            return comment.attachment
        kind, sep, qname = comment.attachment.partition(":")
        return kind + sep + _renamed(qname, renames)

    # normalizing is the costly part of a key, and both versions hold
    # mostly the same texts, so each distinct text is normalized once
    comments = merge_inline_comments(facts, methods)
    normalized.update((c.text, normalize_comment_text(c.text)) for c in comments if c.text not in normalized)
    return [(c, (normalized[c.text], attachment(c))) for c in comments]


def elicit_comments(
    old: SourceFacts, new: SourceFacts, diff: StructuralDiff
) -> list[ElicitedComment]:
    """Comments added/removed between versions, plus unchanged doc comments
    attached to entities the diff touches (rendered after the changed ones).

    Comments pair through the diff's own matching: an old comment's class is
    renamed as the diff renames it, and a method's inline comments are read
    only when the diff adds or removes a method of that qualified name or
    matches one whose body text changed; all overloads of that name are read
    on both sides.  Any other name's methods are matched with equal bodies,
    which hold equal inline comments.

    Duplicates (same normalized text and attachment) are emitted once.
    Unchanged license boilerplate is suppressed: a license header that did
    not change is noise for every commit that touches the file.
    """
    renames = {o: n for fd in diff.files for o, n in fd.class_renamed}
    body_changed: set[str] = set()
    for fd in diff.files:
        body_changed.update(f"{cname}.{m.name}" for cname, m in fd.method_added + fd.method_removed)
        body_changed.update(f"{cname}.{new_m.name}" for cname, _old_m, new_m in fd.body_changed)
    normalized: dict[str, str] = {}
    old_keyed = _keyed(old, body_changed, renames, normalized)
    new_keyed = _keyed(new, body_changed, {}, normalized)
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
            if key[1] not in touched or key in changed_keys:
                continue
            emit(comment, key, "context")
    return out


def elicit_annotations(file_diff: FileDiff) -> list[AnnotationChange]:
    """One record per annotation on a method the file's diff adds or removes,
    sorted by (target, name, argument text), removed before added.

    Every other annotation change is a summary line: class and field changes
    are `file_diff.annotation_changes`, and those of matched methods are in
    their inline changes.
    """
    out = [
        AnnotationChange(target=f"method {cname}.{m.name}", name=a.name, argument_text=a.argument_text, origin=origin)
        for origin, methods in (("removed", file_diff.method_removed), ("added", file_diff.method_added))
        for cname, m in methods
        for a in m.annotations
    ]
    # stable: removed stays ahead of added within one key
    return sorted(out, key=lambda r: (r.target, r.name, r.argument_text or ""))
