"""Render the condensed change template within a token budget.

A template has four parts, newline-joined in order: a header line (repo,
change type, ChangeScribeStart marker), the summarized structural changes
terminated by the literal line `End change part`, an optional comments
section, and an optional identifiers section.

All sub-template wordings live in data/templates.txt; golden tests pin them.
When a rendering exceeds the budget, whole lines are dropped in a fixed
priority order (least informative first); the header, method add/remove
lines and the end marker are only ever dropped if literally nothing else is
left to cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from condenser.changeset import ChangeType, FileDiff, MethodInlineChange, StructuralDiff
from condenser.comments import ElicitedAnnotation, ElicitedComment
from condenser.diffing import CommitInput
from condenser.identifiers import CATEGORY_ORDER, EmphasizedIdentifier
from condenser.javafacts import sort_modifiers
from condenser.sequences import TOKEN_RE

__all__ = [
    "BudgetError",
    "CondensedTemplate",
    "TEMPLATES",
    "count_tokens",
    "render",
    "template_to_dict",
]


class BudgetError(Exception):
    pass


def _load_templates() -> dict[str, str]:
    text = resources.files("condenser").joinpath("data/templates.txt").read_text(encoding="utf-8")
    out: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(" = ")
        out[key.strip()] = value
    return out


TEMPLATES = _load_templates()

END_MARKER = TEMPLATES["end_marker"]


def count_tokens(text: str) -> int:
    """Budget tokens: word runs plus standalone punctuation marks."""
    return len(TOKEN_RE.findall(text))


@dataclass(frozen=True)
class CondensedTemplate:
    header: str
    summarized_changes: str
    comments_section: str
    identifiers_section: str
    full_text: str
    token_count: int


# Drop priority when over budget; lower drops first. Protected lines carry
# the sentinel class below and fall only as the very last resort.
_PROTECTED = 99
_DROP_FALLBACK_STMT = 1
_DROP_CONTEXT_COMMENT = 2
_DROP_MINOR_IDENTIFIER = 3
_DROP_GENERAL_COMMENT = 4
_DROP_INLINE_DETAIL = 5
_DROP_OTHER_COMMENT = 6
_DROP_MAJOR_IDENTIFIER = 7
_DROP_IN_CLASS = 8
_DROP_FILE_LEVEL = 9


@dataclass(frozen=True)
class _Line:
    text: str
    section: str  # summary | comments | identifiers
    drop_class: int


def _fmt(key: str, **kwargs) -> str:
    return TEMPLATES[key].format(**kwargs)


def _params_text(parameters) -> str:
    return "(" + ", ".join(f"{t} {n}" for t, n in parameters) + ")"


def _simple(name: str) -> str:
    return name.rsplit(".", 1)[-1]


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


def _inline_lines(ic: MethodInlineChange, lines: list[_Line]) -> None:
    m = ic.method_name
    for name, old_t, new_t in ic.param_retyped:
        lines.append(_Line(_fmt("param_retyped", method=m, name=name, old_type=old_t, new_type=new_t), "summary", _DROP_INLINE_DETAIL))
    if ic.return_type_changed is not None:
        old_t, new_t = ic.return_type_changed
        lines.append(_Line(_fmt("return_retyped", method=m, old_type=old_t, new_type=new_t), "summary", _DROP_INLINE_DETAIL))
    for mod in sort_modifiers(ic.modifier_added):
        lines.append(_Line(_fmt("modifier_added", method=m, modifier=mod), "summary", _DROP_INLINE_DETAIL))
    for mod in sort_modifiers(ic.modifier_removed):
        lines.append(_Line(_fmt("modifier_removed", method=m, modifier=mod), "summary", _DROP_INLINE_DETAIL))
    for exc in ic.exception_added:
        lines.append(_Line(_fmt("exception_added", method=m, type=exc), "summary", _DROP_INLINE_DETAIL))
    for exc in ic.exception_removed:
        lines.append(_Line(_fmt("exception_removed", method=m, type=exc), "summary", _DROP_INLINE_DETAIL))
    for name, _args in ic.annotation_added:
        lines.append(_Line(_fmt("method_annotation_added", name=name, method=m), "summary", _DROP_INLINE_DETAIL))
    for name, _args in ic.annotation_removed:
        lines.append(_Line(_fmt("method_annotation_removed", name=name, method=m), "summary", _DROP_INLINE_DETAIL))

    def stmt_class(kind: str) -> int:
        return _DROP_FALLBACK_STMT if kind == "other" else _DROP_INLINE_DETAIL

    ordered_removed = [s for s in ic.stmt_removed if s.kind != "other"] + [s for s in ic.stmt_removed if s.kind == "other"]
    ordered_added = [s for s in ic.stmt_added if s.kind != "other"] + [s for s in ic.stmt_added if s.kind == "other"]
    for s in ordered_removed:
        lines.append(_Line(_fmt("stmt_removed", method=m, kind=s.kind, text=s.text), "summary", stmt_class(s.kind)))
    for s in ordered_added:
        lines.append(_Line(_fmt("stmt_added", method=m, kind=s.kind, text=s.text), "summary", stmt_class(s.kind)))
    for old_s, new_s in ic.stmt_modified:
        lines.append(_Line(_fmt("stmt_modified", method=m, kind=new_s.kind, old_text=old_s.text, new_text=new_s.text), "summary", stmt_class(new_s.kind)))
    for old_s, new_s in ic.stmt_moved:
        lines.append(_Line(_fmt("stmt_moved", method=m, kind=new_s.kind, text=new_s.text), "summary", _DROP_INLINE_DETAIL))


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
        note(ac.target.split(" ", 1)[1].rsplit(".", 1)[0] if ac.target.startswith("field ") else ac.target.split(" ", 1)[1])
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
            target_class = ac.target.split(" ", 1)[1]
            if ac.target.startswith("field "):
                target_class = target_class.rsplit(".", 1)[0]
            if target_class == cname:
                key = "class_annotation_added" if ac.origin == "added" else "class_annotation_removed"
                lines.append(_Line(_fmt(key, name=ac.name, target=ac.target), "summary", _DROP_IN_CLASS))
        for ic in fd.inline_changes:
            if ic.class_name == cname:
                _inline_lines(ic, lines)
    return fd.package_name or prev_package


def _identifier_item(e: EmphasizedIdentifier) -> str:
    if len(e.split) == 1 and e.split[0] == e.raw:
        return e.raw
    return f"{e.raw} (split: {' '.join(e.split)})"


def _build_lines(
    commit: CommitInput,
    diff: StructuralDiff,
    change_type: ChangeType,
    comments: list[ElicitedComment],
    annotations: list[ElicitedAnnotation],
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

    inline_methods = {
        f"method {ic.class_name}.{ic.method_name}" for fd in diff.files for ic in fd.inline_changes
    }
    summarized = {
        (ac.target, ac.name, ac.argument_text, ac.origin) for fd in diff.files for ac in fd.annotation_changes
    }
    for a in annotations:
        if a.target in inline_methods:
            continue  # already summarized as a method inline change
        if (a.target, a.name, a.argument_text, a.origin) in summarized:
            continue  # already summarized as a class or field annotation change
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


def _prune_empty_sections(kept: list[_Line]) -> list[_Line]:
    out: list[_Line] = []
    for line in kept:
        if line.text == TEMPLATES["comments_header"] and not any(
            l.section == "comments" and l.text != TEMPLATES["comments_header"] for l in kept
        ):
            continue
        if line.text == TEMPLATES["identifiers_header"] and not any(
            l.section == "identifiers" and l.text != TEMPLATES["identifiers_header"] for l in kept
        ):
            continue
        out.append(line)
    return out


def render(
    commit: CommitInput,
    diff: StructuralDiff,
    change_type: ChangeType,
    comments: list[ElicitedComment],
    annotations: list[ElicitedAnnotation],
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
    kept = _prune_empty_sections([l for i, l in enumerate(lines) if alive[i]])

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


def template_to_dict(template: CondensedTemplate, change_type: ChangeType, rule: str | None = None) -> dict:
    out = {
        "header": template.header,
        "summarized_changes": template.summarized_changes,
        "comments_section": template.comments_section,
        "identifiers_section": template.identifiers_section,
        "full_text": template.full_text,
        "token_count": template.token_count,
        "change_type": change_type.value,
    }
    if rule is not None:
        out["rule"] = rule
    return out
