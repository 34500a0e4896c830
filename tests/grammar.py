"""Structural grammar checker for rendered templates.

A valid template is: header line, summary lines, the end marker, then an
optional comments block and an optional identifiers block. Every line must
match one of the canonical sub-template wordings (compiled to regexes from
the shipped templates file).
"""

from __future__ import annotations

import re

from condenser.changeset import CHANGE_TYPE_LABELS
from condenser.identifiers import CATEGORY_ORDER
from condenser.templater import END_MARKER, TEMPLATES

_PLACEHOLDER = re.compile(r"\{\w+\}")


def template_regex(pattern_text: str) -> re.Pattern:
    parts = re.split(r"(\{\w+\})", pattern_text)
    regex = "".join("(.+)" if _PLACEHOLDER.fullmatch(p) else re.escape(p) for p in parts)
    return re.compile(f"^{regex}$")


_SUMMARY_KEYS = [
    "package_line", "file_modified", "file_added", "file_deleted", "file_renamed",
    "file_skipped", "fallback_other_change", "class_context", "class_added",
    "class_removed", "class_renamed", "import_added", "import_removed",
    "field_added", "field_removed", "field_retyped",
    "supertype_added_extends", "supertype_removed_extends",
    "supertype_added_implements", "supertype_removed_implements",
    "class_annotation_added", "class_annotation_removed",
    "method_added", "method_added_params", "constructor_added", "constructor_added_params",
    "method_removed", "method_removed_params", "constructor_removed", "constructor_removed_params",
    "param_retyped", "return_retyped",
    "modifier_added", "modifier_removed",
    "stmt_added", "stmt_removed", "stmt_modified", "stmt_moved",
    "exception_added", "exception_removed",
    "method_annotation_added", "method_annotation_removed",
]

_COMMENT_KEYS = ["comment_added", "comment_removed", "comment_context", "annotation_added", "annotation_removed"]

SUMMARY_PATTERNS = [template_regex(TEMPLATES[k]) for k in _SUMMARY_KEYS]
COMMENT_PATTERNS = [template_regex(TEMPLATES[k]) for k in _COMMENT_KEYS]
HEADER_PATTERN = re.compile(
    r"^Repository: (?P<repo>.+) Change type: (?:(?P<label>[A-Za-z ]+?) )?(?P<ty>Ty\d+) ChangeScribeStart$"
)
IDENTIFIER_LINE = re.compile(r"^(MethodName|ClassName|FieldName|TypeName|Other): .+$")


def check_template(full_text: str) -> list[str]:
    """Returns a list of grammar violations; empty means the text conforms."""
    problems: list[str] = []
    lines = full_text.split("\n")
    if not lines:
        return ["empty template"]

    header = HEADER_PATTERN.match(lines[0])
    if not header:
        problems.append(f"bad header: {lines[0]!r}")
    else:
        ty = header.group("ty")
        label = header.group("label")
        if ty not in CHANGE_TYPE_LABELS:
            problems.append(f"unknown change type {ty}")
        elif ty == "Ty11":
            if label is not None:
                problems.append("Ty11 header must leave the change-type label blank")
        elif label != CHANGE_TYPE_LABELS[ty]:
            problems.append(f"label {label!r} does not match {ty}")

    if lines.count(END_MARKER) != 1:
        problems.append(f"expected exactly one end marker, found {lines.count(END_MARKER)}")
        return problems
    end_idx = lines.index(END_MARKER)

    for line in lines[1:end_idx]:
        if not any(p.match(line) for p in SUMMARY_PATTERNS):
            problems.append(f"summary line matches no template: {line!r}")

    rest = lines[end_idx + 1 :]
    i = 0
    if i < len(rest) and rest[i] == TEMPLATES["comments_header"]:
        i += 1
        block = 0
        while i < len(rest) and rest[i] != TEMPLATES["identifiers_header"]:
            if not any(p.match(rest[i]) for p in COMMENT_PATTERNS):
                problems.append(f"comment line matches no template: {rest[i]!r}")
            block += 1
            i += 1
        if block == 0:
            problems.append("empty comments section")
    if i < len(rest) and rest[i] == TEMPLATES["identifiers_header"]:
        i += 1
        block = 0
        last_rank = -1
        while i < len(rest):
            m = IDENTIFIER_LINE.match(rest[i])
            if not m:
                problems.append(f"identifier line malformed: {rest[i]!r}")
            else:
                rank = CATEGORY_ORDER.index(m.group(1))
                if rank <= last_rank:
                    problems.append(f"identifier categories out of order at {rest[i]!r}")
                last_rank = rank
            block += 1
            i += 1
        if block == 0:
            problems.append("empty identifiers section")
    if i < len(rest):
        problems.append(f"trailing content after sections: {rest[i]!r}")
    return problems
