"""Elicit change-relevant comments and the annotations of added or removed
methods.

Comments are surfaced when they were added or removed between versions, or
when they document an entity the structural diff touches (origin=context).
Each elicited comment gets exactly one category, assigned by first match in
the fixed priority order license > todo > javadoc > general.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from condenser.changeset import AnnotationChange, FileDiff, StructuralDiff
from condenser.javafacts import CommentFacts, SourceFacts

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


def elicit_comments(
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
