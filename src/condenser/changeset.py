"""Structural diff between parsed file versions and change-type classification.

The diff is entity-level: imports, classes, fields, annotations, methods,
and per-method inline changes (parameters, modifiers, statements, thrown
exceptions, annotations). A commit-wide diff is then classified into one of
twelve change types Ty0..Ty11 by an ordered rule list; thresholds live in
PipelineConfig so experiments can move them without touching code.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

from condenser.config import PipelineConfig
from condenser.diffing import FilePair
from condenser.javafacts import (
    ClassFacts,
    FieldFacts,
    MethodFacts,
    PRIMITIVE_TYPES,
    SourceFacts,
    StatementFacts,
    paired_statements,
)
from condenser.sequences import TOKEN_RE, lcs_rows

__all__ = [
    "AnnotationChange",
    "ChangeType",
    "FileDiff",
    "MethodInlineChange",
    "StructuralDiff",
    "CHANGE_TYPE_LABELS",
    "classify_change_explained",
    "detect_statement_moves",
    "diff_commit_facts",
    "diff_facts",
]


CHANGE_TYPE_LABELS = {
    "Ty0": "Structure Modification",
    "Ty1": "State Access Modification",
    "Ty2": "Update Modification",
    "Ty3": "Behavior Modification",
    "Ty4": "Object Creation Modification",
    "Ty5": "Relationship Modification",
    "Ty6": "Control Modification",
    "Ty7": "Large Modification",
    "Ty8": "Lazy Modification",
    "Ty9": "Degenerate Modification",
    "Ty10": "Small Modification",
    "Ty11": "Unknown Modification",
}


@dataclass(frozen=True)
class ChangeType:
    value: str  # Ty0..Ty11
    label: str

    def __post_init__(self):
        if CHANGE_TYPE_LABELS.get(self.value) != self.label:
            raise ValueError(f"unknown change type {self.value}/{self.label}")

    @staticmethod
    def of(value: str) -> "ChangeType":
        return ChangeType(value, CHANGE_TYPE_LABELS[value])


@dataclass(frozen=True)
class AnnotationChange:
    target: str  # e.g. "class C", "method C.m", "field C.f"
    name: str
    argument_text: str | None
    origin: str  # added | removed

    @property
    def owner(self) -> str:
        """Qualified name of the class the target is or belongs to."""
        kind, name = self.target.split(" ", 1)
        return name if kind == "class" else name.rsplit(".", 1)[0]


@dataclass(frozen=True)
class MethodInlineChange:
    class_name: str
    method_name: str
    old: MethodFacts
    new: MethodFacts
    param_retyped: tuple[tuple[str, str, str], ...] = ()  # (name, old type, new type)
    return_type_changed: tuple[str, str] | None = None  # (old, new)
    modifier_added: tuple[str, ...] = ()
    modifier_removed: tuple[str, ...] = ()
    stmt_added: tuple[StatementFacts, ...] = ()
    stmt_removed: tuple[StatementFacts, ...] = ()
    stmt_modified: tuple[tuple[StatementFacts, StatementFacts], ...] = ()
    stmt_moved: tuple[tuple[StatementFacts, StatementFacts], ...] = ()
    exception_added: tuple[str, ...] = ()
    exception_removed: tuple[str, ...] = ()
    annotation_added: tuple[tuple[str, str | None], ...] = ()
    annotation_removed: tuple[tuple[str, str | None], ...] = ()

    def statement_change_count(self) -> int:
        return len(self.stmt_added) + len(self.stmt_removed) + len(self.stmt_modified)

    def has_signature_change(self) -> bool:
        return bool(
            self.param_retyped or self.return_type_changed
            or self.modifier_added or self.modifier_removed
            or self.exception_added or self.exception_removed
        )

    def is_empty(self) -> bool:
        return not (
            self.has_signature_change()
            or self.stmt_added or self.stmt_removed or self.stmt_modified or self.stmt_moved
            or self.annotation_added or self.annotation_removed
        )


@dataclass(frozen=True)
class FileDiff:
    path: str
    status: str  # added | deleted | modified | renamed
    is_java: bool = True
    package_name: str | None = None
    single_class: bool = False
    path_old: str | None = None
    class_order: tuple[str, ...] = ()  # qualified names, new-version source order first
    import_added: tuple[str, ...] = ()
    import_removed: tuple[str, ...] = ()
    class_added: tuple[str, ...] = ()
    class_removed: tuple[str, ...] = ()
    class_renamed: tuple[tuple[str, str], ...] = ()
    field_added: tuple[tuple[str, FieldFacts], ...] = ()  # (class qname, facts)
    field_removed: tuple[tuple[str, FieldFacts], ...] = ()
    field_retyped: tuple[tuple[str, str, str, str], ...] = ()  # (class, name, old, new)
    annotation_changes: tuple[AnnotationChange, ...] = ()
    method_added: tuple[tuple[str, MethodFacts], ...] = ()
    method_removed: tuple[tuple[str, MethodFacts], ...] = ()
    inline_changes: tuple[MethodInlineChange, ...] = ()
    # (class qname, old, new) of each matched method whose body text differs
    body_changed: tuple[tuple[str, MethodFacts, MethodFacts], ...] = ()
    supertype_added: tuple[tuple[str, str, str], ...] = ()  # (class, extends|implements, type)
    supertype_removed: tuple[tuple[str, str, str], ...] = ()

    def is_empty(self) -> bool:
        return not (
            self.import_added or self.import_removed
            or self.class_added or self.class_removed or self.class_renamed
            or self.field_added or self.field_removed or self.field_retyped
            or self.annotation_changes
            or self.method_added or self.method_removed or self.inline_changes
            or self.supertype_added or self.supertype_removed
        )


@dataclass(frozen=True)
class StructuralDiff:
    files: tuple[FileDiff, ...]

    def is_empty(self) -> bool:
        return all(f.is_empty() for f in self.files)


# ---------------------------------------------------------------------------
# Structural diff
# ---------------------------------------------------------------------------


def _diff_annotations(old_annos, new_annos, target: str) -> list[AnnotationChange]:
    old_counts, new_counts = Counter(old_annos), Counter(new_annos)
    changes: list[AnnotationChange] = []
    for a in sorted(old_counts.keys() | new_counts.keys(), key=lambda a: (a.name, a.argument_text or "")):
        delta = new_counts[a] - old_counts[a]
        origin = "added" if delta > 0 else "removed"
        for _ in range(abs(delta)):
            changes.append(AnnotationChange(target=target, name=a.name, argument_text=a.argument_text, origin=origin))
    return changes


def _lcs_align(old: tuple[StatementFacts, ...], new: tuple[StatementFacts, ...]) -> tuple[list[StatementFacts], list[StatementFacts]]:
    """Residual removed/added statements after an order-preserving alignment.

    Statements matched in order by identical text survive unchanged;
    everything else is raw removed/added input for move and modify pairing.
    Ties prefer removal first.
    """
    a = [s.text for s in old]
    b = [s.text for s in new]
    la, lb = len(a), len(b)
    # bit-parallel rows over the reversed sequences: dp(i, j), the LCS of
    # a[i:] and b[j:], is read off row la - i over the first lb - j bits
    rows = list(lcs_rows(a[::-1], b[::-1]))

    def dp(i: int, j: int) -> int:
        n = lb - j
        return n - (rows[la - i] & ((1 << n) - 1)).bit_count()

    removed: list[StatementFacts] = []
    added: list[StatementFacts] = []
    i = j = 0
    while i < la and j < lb:
        if a[i] == b[j]:
            i += 1
            j += 1
        elif dp(i + 1, j) >= dp(i, j + 1):
            removed.append(old[i])
            i += 1
        else:
            added.append(new[j])
            j += 1
    removed.extend(old[i:])
    added.extend(new[j:])
    return removed, added


def detect_statement_moves(
    removed: list[StatementFacts], added: list[StatementFacts]
) -> tuple[list[tuple[StatementFacts, StatementFacts]], list[StatementFacts], list[StatementFacts]]:
    """Pair removed/added statements with identical text as moves.

    Within a text, the first min(r, a) of its r removed statements pair with
    the first min(r, a) of its a added ones, in input order.  The residual
    lists keep their input order and share no text, so modify pairing never
    pairs a statement with its own text.
    """
    unpaired: dict[str, list[int]] = {}  # text -> indices into added, last first
    for idx in range(len(added) - 1, -1, -1):
        unpaired.setdefault(added[idx].text, []).append(idx)
    moves: list[tuple[StatementFacts, StatementFacts]] = []
    residual_removed: list[StatementFacts] = []
    paired: set[int] = set()
    for s in removed:
        free = unpaired.get(s.text)
        if free:
            ai = free.pop()
            paired.add(ai)
            moves.append((s, added[ai]))
        else:
            residual_removed.append(s)
    residual_added = [s for i, s in enumerate(added) if i not in paired]
    return moves, residual_removed, residual_added


def _stmt_tokens(text: str) -> frozenset[str]:
    return frozenset(TOKEN_RE.findall(text))


def _jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    if not a and not b:
        return 1.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


def _min_overlap(size: int, threshold: float) -> int:
    """Smallest overlap o for which o / size >= threshold, decided by the
    same float comparison as _jaccard; size + 1 when none qualifies.

    A statement with `size` tokens reaches the threshold only with a partner
    it shares at least this many tokens with, since the union is never
    smaller than `size` and the quotient only falls as the union grows.
    """
    o = math.ceil(min(threshold, 1.0) * size)
    while o > 0 and (o - 1) / size >= threshold:
        o -= 1
    while o <= size and o / size < threshold:
        o += 1
    return o


def _similar_pairs(
    rem_tokens: list[frozenset[str]], add_tokens: list[frozenset[str]], threshold: float
) -> list[tuple[float, int, int]]:
    """Every (-similarity, i, j) whose Jaccard similarity reaches threshold.

    Prefix filtering (Bayardo, Ma & Srikant 2007): with the tokens of each
    set in one global order, two sets that share at least o tokens share a
    token within the first size - o + 1 of each. Only pairs that share a
    token of those prefixes are scored, which leaves the candidate set
    exact. Disjoint pairs qualify when threshold <= 0, so that case scores
    every pair.
    """
    if not threshold > 0:
        return [
            (-sim, i, j)
            for i, rt in enumerate(rem_tokens)
            for j, at in enumerate(add_tokens)
            if (sim := _jaccard(rt, at)) >= threshold
        ]
    # rarest tokens first keeps the posting lists short
    freq: dict[str, int] = {}
    for tokens in rem_tokens + add_tokens:
        for t in tokens:
            freq[t] = freq.get(t, 0) + 1

    def prefix(tokens: frozenset[str]) -> list[str]:
        ordered = sorted(tokens, key=lambda t: (freq[t], t))
        return ordered[: len(tokens) - _min_overlap(len(tokens), threshold) + 1]

    index: dict[str, list[int]] = {}
    empty_added: list[int] = []
    for j, at in enumerate(add_tokens):
        if not at:
            empty_added.append(j)
            continue
        for t in prefix(at):
            index.setdefault(t, []).append(j)
    candidates = []
    for i, rt in enumerate(rem_tokens):
        if not rt:
            # Jaccard of two empty sets is 1; an empty set scores 0 with any other
            if 1.0 >= threshold:
                candidates.extend((-1.0, i, j) for j in empty_added)
            continue
        partners = {j for t in prefix(rt) for j in index.get(t, ())}
        for j in partners:
            sim = _jaccard(rt, add_tokens[j])
            if sim >= threshold:
                candidates.append((-sim, i, j))
    return candidates


# beyond this many candidate pairs, modify-pairing degrades to positional
# matching; keeps worst-case commits (thousands of statements in one method)
# out of quadratic territory while realistic methods get the exact pairing
_MODIFY_PAIR_CAP = 250_000


def _pair_modifications(
    removed: list[StatementFacts],
    added: list[StatementFacts],
    threshold: float,
) -> tuple[list[tuple[StatementFacts, StatementFacts]], list[StatementFacts], list[StatementFacts]]:
    """Greedy best-similarity pairing of residual removed/added statements."""
    rem_tokens = [_stmt_tokens(s.text) for s in removed]
    add_tokens = [_stmt_tokens(s.text) for s in added]
    if len(removed) * len(added) > _MODIFY_PAIR_CAP:
        candidates = []
        for i, (rt, at) in enumerate(zip(rem_tokens, add_tokens)):
            sim = _jaccard(rt, at)
            if sim >= threshold:
                candidates.append((-sim, i, i))
    else:
        candidates = _similar_pairs(rem_tokens, add_tokens, threshold)
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


def _match_methods(
    old_methods: tuple[MethodFacts, ...], new_methods: tuple[MethodFacts, ...]
) -> tuple[list[tuple[MethodFacts, MethodFacts]], list[MethodFacts], list[MethodFacts]]:
    """Match methods across versions by exact signature first, then by
    (name, arity) with maximal parameter-type overlap. Leftovers are
    add/remove."""
    old_used = [False] * len(old_methods)
    new_used = [False] * len(new_methods)
    matched: list[tuple[MethodFacts, MethodFacts]] = []

    # the twin of a signature is its last new method; the first unused
    # method equal to it is the one consumed
    by_sig: dict[tuple, list[int]] = {}
    for k, c in enumerate(new_methods):
        by_sig.setdefault(c.signature(), []).append(k)
    for i, m in enumerate(old_methods):
        same = by_sig.get(m.signature())
        if not same:
            continue
        twin = new_methods[same[-1]]
        k = next((k for k in same if not new_used[k] and new_methods[k] == twin), None)
        if k is not None:
            matched.append((m, twin))
            old_used[i] = new_used[k] = True
    # same name + arity, best type-text overlap
    by_shape: dict[tuple[str, int], list[int]] = {}
    for k, c in enumerate(new_methods):
        by_shape.setdefault((c.name, len(c.parameters)), []).append(k)
    for i, m in enumerate(old_methods):
        if old_used[i]:
            continue
        candidates = [k for k in by_shape.get((m.name, len(m.parameters)), ()) if not new_used[k]]
        if not candidates:
            continue
        def overlap(k: int) -> int:
            return sum(
                1 for (t1, _), (t2, _) in zip(m.parameters, new_methods[k].parameters) if t1 == t2
            )
        best = max(candidates, key=overlap)
        matched.append((m, new_methods[best]))
        old_used[i] = new_used[best] = True
    old_left = [m for i, m in enumerate(old_methods) if not old_used[i]]
    new_left = [c for k, c in enumerate(new_methods) if not new_used[k]]
    return matched, old_left, new_left


def _inline_change(
    class_name: str, old: MethodFacts, new: MethodFacts, config: PipelineConfig
) -> MethodInlineChange | None:
    if old == new:
        return None  # the declaration says the same in both versions (they often share it)
    param_retyped = tuple(
        (new_name, old_type, new_type)
        for (old_type, _old_name), (new_type, new_name) in zip(old.parameters, new.parameters)
        if old_type != new_type
    )
    return_type_changed = None
    if old.return_type != new.return_type and old.return_type and new.return_type:
        return_type_changed = (old.return_type, new.return_type)
    modifier_added = tuple(sorted(new.modifiers - old.modifiers))
    modifier_removed = tuple(sorted(old.modifiers - new.modifiers))
    exception_added = tuple(sorted(set(new.thrown_exceptions) - set(old.thrown_exceptions)))
    exception_removed = tuple(sorted(set(old.thrown_exceptions) - set(new.thrown_exceptions)))
    if old.body_text == new.body_text:
        # equal bodies have equal statement texts, which is all the
        # alignment compares, so nothing is added, removed, moved or modified
        moves, modified, rest_removed, rest_added = [], [], [], []
    else:
        raw_removed, raw_added = _lcs_align(*paired_statements(old, new))
        moves, res_removed, res_added = detect_statement_moves(raw_removed, raw_added)
        modified, rest_removed, rest_added = _pair_modifications(
            res_removed, res_added, config.modify_similarity
        )
    annotations = _diff_annotations(old.annotations, new.annotations, f"method {class_name}.{new.name}")
    annotation_added = [(a.name, a.argument_text) for a in annotations if a.origin == "added"]
    annotation_removed = [(a.name, a.argument_text) for a in annotations if a.origin == "removed"]
    change = MethodInlineChange(
        class_name=class_name,
        method_name=new.name,
        old=old,
        new=new,
        param_retyped=param_retyped,
        return_type_changed=return_type_changed,
        modifier_added=modifier_added,
        modifier_removed=modifier_removed,
        stmt_added=tuple(rest_added),
        stmt_removed=tuple(rest_removed),
        stmt_modified=tuple(modified),
        stmt_moved=tuple(moves),
        exception_added=exception_added,
        exception_removed=exception_removed,
        annotation_added=tuple(annotation_added),
        annotation_removed=tuple(annotation_removed),
    )
    return None if change.is_empty() else change


# the missing side of an added or removed class
_EMPTY_CLASS = ClassFacts(
    name="", kind="class", modifiers=frozenset(), annotations=(), extends_types=(), implements_types=(),
    fields=(), methods=(), inner_classes=(),
)


def _members_fingerprint(cls: ClassFacts) -> frozenset:
    return frozenset(
        [("m",) + m.signature() for m in cls.methods]
        + [("f", f.name, f.type_text) for f in cls.fields]
    )


def _nested_suffixes(outer: str, names: list[str]) -> set[str] | None:
    """What follows outer in each of names, '' for outer itself; None when a
    name is neither outer nor a class nested in it."""
    if not all(name == outer or name.startswith(outer + ".") for name in names):
        return None
    return {name[len(outer) :] for name in names}


def diff_facts(
    old: SourceFacts,
    new: SourceFacts,
    path_old: str | None = "",
    path_new: str | None = "",
    config: PipelineConfig | None = None,
) -> StructuralDiff:
    """Structural diff of one file's old and new facts.

    The file's status follows from its two paths as FilePair.status does: a
    missing old path means added, a missing new path deleted, and two
    different paths renamed.  Either side may be SourceFacts.empty() for
    added/deleted files. Unchanged entities produce no records; the result
    satisfies the per-method exclusivity invariant (a method is added,
    removed, or inline-changed, never more than one).
    """
    config = config or PipelineConfig()
    old_imports = [_import_text(i) for i in old.imports]
    new_imports = [_import_text(i) for i in new.imports]
    old_import_set, new_import_set = set(old_imports), set(new_imports)
    import_added = tuple(i for i in new_imports if i not in old_import_set)
    import_removed = tuple(i for i in old_imports if i not in new_import_set)

    old_classes = dict(old.all_classes())
    new_classes = dict(new.all_classes())

    class_added = [name for name in new_classes if name not in old_classes]
    class_removed = [name for name in old_classes if name not in new_classes]
    # one renamed class: the added and the removed names are each one outer
    # class and the same classes nested in it, and the outer classes have
    # equal members; the nested classes pair by their names below the outer
    class_renamed: list[tuple[str, str]] = []
    renamed_map: dict[str, str] = {}
    if class_added and class_removed:
        old_name, new_name = class_removed[0], class_added[0]
        suffixes = _nested_suffixes(old_name, class_removed)
        if (
            suffixes is not None
            and suffixes == _nested_suffixes(new_name, class_added)
            and _members_fingerprint(old_classes[old_name]) == _members_fingerprint(new_classes[new_name])
        ):
            class_renamed.append((old_name, new_name))
            renamed_map = {old_name + suffix: new_name + suffix for suffix in suffixes}
            class_added = []
            class_removed = []

    field_added: list[tuple[str, FieldFacts]] = []
    field_removed: list[tuple[str, FieldFacts]] = []
    field_retyped: list[tuple[str, str, str, str]] = []
    annotation_changes: list[AnnotationChange] = []
    method_added: list[tuple[str, MethodFacts]] = []
    method_removed: list[tuple[str, MethodFacts]] = []
    inline_changes: list[MethodInlineChange] = []
    body_changed: list[tuple[str, MethodFacts, MethodFacts]] = []
    supertype_added: list[tuple[str, str, str]] = []
    supertype_removed: list[tuple[str, str, str]] = []

    # an added class is diffed against an empty class, a removed one the
    # other way round, before the classes present in both versions
    kept = ((renamed_map.get(name, name), old_cls) for name, old_cls in old_classes.items())
    class_pairs = (
        [(name, _EMPTY_CLASS, new_classes[name]) for name in class_added]
        + [(name, old_classes[name], _EMPTY_CLASS) for name in class_removed]
        + [(name, old_cls, new_classes[name]) for name, old_cls in kept if name in new_classes]
    )
    for cname, old_cls, new_cls in class_pairs:
        for kind_label, old_list, new_list in (
            ("extends", old_cls.extends_types, new_cls.extends_types),
            ("implements", old_cls.implements_types, new_cls.implements_types),
        ):
            for t in new_list:
                if t not in old_list:
                    supertype_added.append((cname, kind_label, t))
            for t in old_list:
                if t not in new_list:
                    supertype_removed.append((cname, kind_label, t))

        annotation_changes.extend(
            _diff_annotations(old_cls.annotations, new_cls.annotations, f"class {cname}")
        )

        old_fields = {f.name: f for f in old_cls.fields}
        new_fields = {f.name: f for f in new_cls.fields}
        for fname, f in new_fields.items():
            if fname not in old_fields:
                field_added.append((cname, f))
                annotation_changes.extend(_diff_annotations((), f.annotations, f"field {cname}.{fname}"))
        for fname, f in old_fields.items():
            if fname not in new_fields:
                field_removed.append((cname, f))
                annotation_changes.extend(_diff_annotations(f.annotations, (), f"field {cname}.{fname}"))
        for fname in new_fields:  # source order keeps output deterministic
            if fname not in old_fields:
                continue
            fo, fn = old_fields[fname], new_fields[fname]
            if fo.type_text != fn.type_text:
                field_retyped.append((cname, fname, fo.type_text, fn.type_text))
            annotation_changes.extend(
                _diff_annotations(fo.annotations, fn.annotations, f"field {cname}.{fname}")
            )

        matched, removed_m, added_m = _match_methods(old_cls.methods, new_cls.methods)
        for m in added_m:
            method_added.append((cname, m))
        for m in removed_m:
            method_removed.append((cname, m))
        for mo, mn in matched:
            if mo.body_text != mn.body_text:
                body_changed.append((cname, mo, mn))
            change = _inline_change(cname, mo, mn, config)
            if change is not None:
                inline_changes.append(change)

    package = new.package_name if new.package_name is not None else old.package_name
    class_order = tuple(new_classes) + tuple(n for n in old_classes if n not in new_classes and n not in renamed_map)
    pair = FilePair(path_old, path_new, None, None)
    file_diff = FileDiff(
        path=pair.path,
        status=pair.status,
        is_java=True,
        package_name=package,
        path_old=path_old if pair.status == "renamed" else None,
        class_order=class_order,
        single_class=len(new_classes or old_classes) == 1,
        import_added=import_added,
        import_removed=import_removed,
        class_added=tuple(class_added),
        class_removed=tuple(class_removed),
        class_renamed=tuple(class_renamed),
        field_added=tuple(field_added),
        field_removed=tuple(field_removed),
        field_retyped=tuple(field_retyped),
        annotation_changes=tuple(annotation_changes),
        method_added=tuple(method_added),
        method_removed=tuple(method_removed),
        inline_changes=tuple(inline_changes),
        body_changed=tuple(body_changed),
        supertype_added=tuple(supertype_added),
        supertype_removed=tuple(supertype_removed),
    )
    return StructuralDiff(files=(file_diff,))


def _import_text(imp) -> str:
    text = imp.name + (".*" if imp.is_wildcard else "")
    return ("static " if imp.is_static else "") + text


def diff_commit_facts(
    per_file: list[tuple[str | None, str | None, SourceFacts, SourceFacts]],
    config: PipelineConfig | None = None,
    skipped: list[tuple[str, str]] | None = None,
) -> StructuralDiff:
    """Diff a whole commit: (old path, new path, old facts, new facts) per
    Java file, plus (path, status) records for files carried through
    unsummarized."""
    files: list[FileDiff] = []
    for path_old, path_new, old, new in per_file:
        files.extend(diff_facts(old, new, path_old, path_new, config).files)
    for path, status in skipped or []:
        files.append(FileDiff(path=path, status=status, is_java=False))
    return StructuralDiff(files=tuple(files))


# ---------------------------------------------------------------------------
# Change-type classification
# ---------------------------------------------------------------------------


_JDK_VALUE_TYPES = {
    "String", "Integer", "Long", "Double", "Float", "Short", "Byte",
    "Character", "Boolean", "Object", "Number", "Void",
}


@dataclass(frozen=True)
class _TouchedMethod:
    class_name: str
    facts: MethodFacts  # the analyzed version (new side when available)
    owner_fields: frozenset[str]
    origin: str  # added | removed | inline


def _is_getter(m: MethodFacts, field_names: frozenset[str]) -> bool:
    if m.is_constructor or m.parameters or len(m.body_statements) != 1:
        return False
    stmt = m.body_statements[0]
    if stmt.kind != "return":
        return False
    target = stmt.text[len("return"):].strip().rstrip(";").strip()
    if target.startswith("this."):
        target = target[len("this."):]
    return bool(re.fullmatch(r"\w+", target)) and (not field_names or target in field_names)


def _is_setter(m: MethodFacts, field_names: frozenset[str]) -> bool:
    if m.is_constructor or len(m.body_statements) != 1 or len(m.parameters) != 1:
        return False
    stmt = m.body_statements[0]
    if stmt.kind != "assignment":
        return False
    match = re.fullmatch(r"(?:this\s*\.\s*)?(\w+)\s*=\s*(\w+)\s*;?", stmt.text)
    if not match:
        return False
    lhs, rhs = match.group(1), match.group(2)
    return rhs == m.parameters[0][1] and (not field_names or lhs in field_names)


def _is_accessor(t: _TouchedMethod) -> bool:
    return _is_getter(t.facts, t.owner_fields) or _is_setter(t.facts, t.owner_fields)


def _assigns_field(m: MethodFacts, field_names: frozenset[str]) -> bool:
    for stmt in m.body_statements:
        if stmt.kind != "assignment":
            continue
        assign = re.match(r"(?:this\s*\.\s*)?(\w+)\s*(?:=|\+=|-=|\*=|/=|%=|\|=|&=|\^=)(?!=)", stmt.text)
        if assign and (assign.group(1) in field_names or stmt.text.lstrip().startswith("this.")):
            return True
        bump = re.match(r"(?:this\s*\.\s*)?(\w+)\s*(?:\+\+|--)", stmt.text)
        if bump and (bump.group(1) in field_names or stmt.text.lstrip().startswith("this.")):
            return True
    return False


def _is_factory(m: MethodFacts, class_name: str) -> bool:
    if m.is_constructor:
        return True
    simple = class_name.rsplit(".", 1)[-1]
    return "static" in m.modifiers and (m.return_type or "").split("<")[0] == simple


_DOTTED_CALL = re.compile(r"^[A-Za-z_$][\w$]*(?:\s*\.\s*[\w$]+)+\s*\(")


def _is_external_invocation(text: str) -> bool:
    """A call whose receiver is some other object: `service.run()`,
    `this.worker.poke()`, `Util.max(...)`. Bare calls and `this.helper()`
    / `super.helper()` stay internal."""
    t = text.strip()
    for own in ("this", "super"):
        if t == own or t.startswith(own + ".") or t.startswith(own + " "):
            rest = t[len(own):].lstrip()
            if not rest.startswith("."):
                return False
            t = rest[1:].lstrip()
            break
    return bool(_DOTTED_CALL.match(t))


def _external_call_ratio(methods: list[_TouchedMethod]) -> float:
    calls = 0
    external = 0
    for t in methods:
        for stmt in t.facts.body_statements:
            if stmt.kind != "invocation":
                continue
            calls += 1
            if _is_external_invocation(stmt.text):
                external += 1
    return external / calls if calls else 0.0


def _is_association_type(type_text: str) -> bool:
    simple = type_text.split("<")[0].rstrip("[].")
    simple = simple.rsplit(".", 1)[-1]
    return simple not in PRIMITIVE_TYPES and simple not in _JDK_VALUE_TYPES


def _collect_touched(diff: StructuralDiff, field_names: dict[str, frozenset[str]]) -> list[_TouchedMethod]:
    """Every added, removed and inline-changed method; its owner's field
    names come from the full new facts where known (field_names)."""
    touched: list[_TouchedMethod] = []
    for fd in diff.files:
        for cname, m in fd.method_added:
            owner_fields = field_names.get(cname) or _fields_of(fd, cname, new_side=True)
            touched.append(_TouchedMethod(cname, m, owner_fields, "added"))
        for cname, m in fd.method_removed:
            owner_fields = field_names.get(cname) or _fields_of(fd, cname, new_side=False)
            touched.append(_TouchedMethod(cname, m, owner_fields, "removed"))
        for ic in fd.inline_changes:
            touched.append(_TouchedMethod(ic.class_name, ic.new, field_names.get(ic.class_name, frozenset()), "inline"))
    return touched


def _fields_of(fd: FileDiff, cname: str, new_side: bool) -> frozenset[str]:
    # best-effort field name set from diff records only; classification
    # falls back to pattern shape when the owner class is not in the diff
    names = set()
    source = fd.field_added if new_side else fd.field_removed
    for owner, f in source:
        if owner == cname:
            names.add(f.name)
    return frozenset(names)


def _field_names_by_class(all_new_facts: list[SourceFacts]) -> dict[str, frozenset[str]]:
    """Field names of every class in the new facts; the first class of a
    qualified name wins."""
    names: dict[str, frozenset[str]] = {}
    for facts in all_new_facts:
        for qname, cls in facts.all_classes():
            if qname not in names:
                names[qname] = frozenset(f.name for f in cls.fields)
    return names


def classify_change_explained(
    diff: StructuralDiff,
    all_new_facts: list[SourceFacts] | None = None,
    config: PipelineConfig | None = None,
) -> tuple[ChangeType, str]:
    """Classify a commit-wide diff; returns (change type, fired rule name).

    The rule list is ordered and total: the first matching rule wins and the
    fallback is Ty11. Threshold values come from the configuration.
    """
    config = config or PipelineConfig()
    all_new_facts = all_new_facts or []

    if diff.is_empty():
        return ChangeType.of("Ty11"), "unclassified"

    touched = _collect_touched(diff, _field_names_by_class(all_new_facts))

    total_stmt_changes = sum(ic.statement_change_count() for fd in diff.files for ic in fd.inline_changes)
    signature_changes = any(
        fd.method_added or fd.method_removed or any(ic.has_signature_change() for ic in fd.inline_changes)
        for fd in diff.files
    )
    structural_other = any(
        fd.import_added or fd.import_removed
        or fd.class_added or fd.class_removed or fd.class_renamed
        or fd.field_added or fd.field_removed or fd.field_retyped
        or fd.annotation_changes or fd.supertype_added or fd.supertype_removed
        for fd in diff.files
    )
    added_methods = [t for t in touched if t.origin == "added"]
    touched_classes = {t.class_name for t in touched}
    non_ctor = [t for t in touched if not t.facts.is_constructor]

    # 1. small tweak: a couple of statements, nothing structural
    if (
        0 < total_stmt_changes <= config.small_change_max_statements
        and not signature_changes
        and not structural_other
    ):
        return ChangeType.of("Ty10"), "small_change"

    # 2. wide-reaching commit
    if len(touched) >= config.large_change_min_methods and len(touched_classes) >= config.large_change_min_classes:
        return ChangeType.of("Ty7"), "large_change"

    # 3. scaffolding: only empty bodies added
    if added_methods and all(not t.facts.body_statements for t in added_methods):
        return ChangeType.of("Ty9"), "degenerate_additions"

    # 4. mostly accessors while real logic sits untouched
    if touched:
        accessor_count = sum(1 for t in touched if _is_accessor(t))
        if accessor_count / len(touched) > config.accessor_ratio and _untouched_non_accessor_exists(
            touched, all_new_facts
        ):
            return ChangeType.of("Ty8"), "lazy_accessors"

    # 5. pure accessor commit
    if touched and all(_is_accessor(t) for t in touched):
        return ChangeType.of("Ty0"), "accessor_only"

    # 6. state read without mutation
    if (
        non_ctor
        and len(non_ctor) == len(touched)
        and all((t.facts.return_type or "void") != "void" for t in non_ctor)
        and all(not _assigns_field(t.facts, t.owner_fields) for t in non_ctor)
    ):
        return ChangeType.of("Ty1"), "state_access_only"

    # 7. mutators throughout
    if (
        non_ctor
        and len(non_ctor) == len(touched)
        and all(_assigns_field(t.facts, t.owner_fields) for t in non_ctor)
    ):
        return ChangeType.of("Ty2"), "state_update_only"

    # 8. constructors and factories
    if touched and all(_is_factory(t.facts, t.class_name) for t in touched):
        return ChangeType.of("Ty4"), "object_creation_only"

    # 9. relationship edits: supertypes or association fields only
    if not touched and _only_relationship_changes(diff):
        return ChangeType.of("Ty5"), "relationship_only"

    # 10. delegating to other classes
    if touched and _external_call_ratio(touched) > config.external_call_ratio:
        return ChangeType.of("Ty6"), "external_control"

    # 11. some body changed in a way nothing above captured
    if total_stmt_changes > 0 or any(t.facts.body_statements for t in touched):
        return ChangeType.of("Ty3"), "behavior_change"

    return ChangeType.of("Ty11"), "unclassified"


def _only_relationship_changes(diff: StructuralDiff) -> bool:
    saw_any = False
    for fd in diff.files:
        if (
            fd.import_added or fd.import_removed
            or fd.class_added or fd.class_removed or fd.class_renamed
            or fd.annotation_changes or fd.method_added or fd.method_removed or fd.inline_changes
        ):
            return False
        if fd.supertype_added or fd.supertype_removed:
            saw_any = True
        for _cname, f in list(fd.field_added) + list(fd.field_removed):
            if not _is_association_type(f.type_text):
                return False
            saw_any = True
        for _cname, _fname, old_t, new_t in fd.field_retyped:
            if not (_is_association_type(old_t) or _is_association_type(new_t)):
                return False
            saw_any = True
    return saw_any


def _untouched_non_accessor_exists(touched: list[_TouchedMethod], all_new_facts: list[SourceFacts]) -> bool:
    touched_keys = {(t.class_name, t.facts.signature()) for t in touched}
    for facts in all_new_facts:
        for qname, cls in facts.all_classes():
            field_names = frozenset(f.name for f in cls.fields)
            for m in cls.methods:
                if (qname, m.signature()) in touched_keys:
                    continue
                probe = _TouchedMethod(qname, m, field_names, "context")
                if not _is_accessor(probe):
                    return True
    return False

