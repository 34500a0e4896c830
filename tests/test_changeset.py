"""Structural diff and change-type classifier tests."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from condenser.changeset import (
    CHANGE_TYPE_LABELS,
    ChangeType,
    classify_change_explained,
    detect_statement_moves,
    diff_facts,
)
from condenser.javafacts import SourceFacts, StatementFacts, parse_java
from oracles import max_moves_oracle
from typefixtures import ALL_TYPE_FIXTURES


def diff_sources(old_src: str, new_src: str):
    old = parse_java(old_src) if old_src.strip() else SourceFacts.empty()
    new = parse_java(new_src) if new_src.strip() else SourceFacts.empty()
    return old, new, diff_facts(old, new, "F.java", "F.java")


# --- diff_facts ------------------------------------------------------------------


def test_identical_facts_give_empty_diff():
    src = "class C { int x; void f() { x = 1; } }"
    _, _, diff = diff_sources(src, src)
    assert diff.is_empty()


def test_removed_method_recorded():
    _, _, diff = diff_sources(
        "class C { int f() { return 1; } int g() { return 2; } }",
        "class C { int g() { return 2; } }",
    )
    fd = diff.files[0]
    assert [(c, m.name) for c, m in fd.method_removed] == [("C", "f")]
    assert fd.method_added == ()
    assert fd.inline_changes == ()


def test_constructor_vararg_change_is_inline_retype():
    _, _, diff = diff_sources(
        "class RequestParams { RequestParams(String p) { init(p); } }",
        "class RequestParams { RequestParams(String... p) { init(p); } }",
    )
    fd = diff.files[0]
    assert fd.method_added == () and fd.method_removed == ()
    ic = fd.inline_changes[0]
    assert ic.method_name == "RequestParams"
    assert ic.param_retyped == (("p", "String", "String..."),)


def test_method_exclusivity_invariant():
    _, _, diff = diff_sources(
        "class C { void a() { } void b() { x(); } }",
        "class C { void b() { y(); } void c() { } }",
    )
    fd = diff.files[0]
    added = {m.name for _, m in fd.method_added}
    removed = {m.name for _, m in fd.method_removed}
    inline = {ic.method_name for ic in fd.inline_changes}
    assert added == {"c"} and removed == {"a"} and inline == {"b"}
    assert not (added & removed or added & inline or removed & inline)


def test_return_type_change_is_recorded_inline():
    _, _, diff = diff_sources(
        "class C { int f() { return 1; } }",
        "class C { long f() { return 1; } }",
    )
    ic = diff.files[0].inline_changes[0]
    assert ic.return_type_changed == ("int", "long")


def test_added_file_from_empty_sentinel():
    _, _, diff = diff_sources("", "class Fresh { int x; void go() { } }")
    fd = diff.files[0]
    assert fd.class_added == ("Fresh",)
    assert [(c, f.name) for c, f in fd.field_added] == [("Fresh", "x")]
    assert [(c, m.name) for c, m in fd.method_added] == [("Fresh", "go")]


def test_field_retype_and_annotation_changes():
    _, _, diff = diff_sources(
        "class C { @Deprecated int x; }",
        "class C { long x; }",
    )
    fd = diff.files[0]
    assert fd.field_retyped == (("C", "x", "int", "long"),)
    assert [(a.name, a.origin, a.target) for a in fd.annotation_changes] == [
        ("Deprecated", "removed", "field C.x")
    ]


def test_supertype_changes():
    _, _, diff = diff_sources(
        "class C extends Base { }",
        "class C extends Other implements Runnable { }",
    )
    fd = diff.files[0]
    assert ("C", "extends", "Other") in fd.supertype_added
    assert ("C", "extends", "Base") in fd.supertype_removed
    assert ("C", "implements", "Runnable") in fd.supertype_added


def test_class_rename_detection():
    _, _, diff = diff_sources(
        "class OldName { int x; void f() { } }",
        "class NewName { int x; void f() { } }",
    )
    fd = diff.files[0]
    assert fd.class_renamed == (("OldName", "NewName"),)
    assert fd.class_added == () and fd.class_removed == ()


def test_statement_move_detected_via_lcs_residuals():
    _, _, diff = diff_sources(
        "class C { void f() {\n  first();\n  second();\n  third();\n} }",
        "class C { void f() {\n  second();\n  third();\n  first();\n} }",
    )
    ic = diff.files[0].inline_changes[0]
    moved_texts = {old.text for old, _new in ic.stmt_moved}
    assert moved_texts == {"first();"}
    assert ic.stmt_added == () and ic.stmt_removed == ()


def test_pure_insertion_does_not_create_moves():
    _, _, diff = diff_sources(
        "class C { void f() { a(); b(); c(); } }",
        "class C { void f() { prelude(); a(); b(); c(); } }",
    )
    ic = diff.files[0].inline_changes[0]
    assert ic.stmt_moved == ()
    assert [s.text for s in ic.stmt_added] == ["prelude();"]


def test_statement_modify_by_jaccard():
    _, _, diff = diff_sources(
        'class C { void f() { log.warn("slow path taken", detail); } }',
        'class C { void f() { log.warn("slow path taken", extra); } }',
    )
    ic = diff.files[0].inline_changes[0]
    assert len(ic.stmt_modified) == 1
    assert ic.stmt_added == () and ic.stmt_removed == ()


# --- detect_statement_moves --------------------------------------------------------


def stmt(text: str) -> StatementFacts:
    return StatementFacts(kind="invocation", text=text)


def test_move_same_text_different_lines():
    moves, res_rem, res_add = detect_statement_moves([stmt("a();")], [stmt("a();")])
    assert len(moves) == 1 and res_rem == [] and res_add == []


def test_disjoint_texts_no_moves():
    removed = [stmt("a();")]
    added = [stmt("b();")]
    moves, res_rem, res_add = detect_statement_moves(removed, added)
    assert moves == [] and res_rem == removed and res_add == added


def test_same_line_same_text_is_a_move():
    # b(); moves down a line in a method that moves up one, so it sits on
    # line 5 in both versions
    old = "class A {\n int f;\n void m() {\n a();\n b();\n t();\n }\n}\n"
    new = "class A {\n void m() {\n a();\n t();\n b();\n }\n}\n"
    _old, _new, diff = diff_sources(old, new)
    (ic,) = diff.files[0].inline_changes
    assert [(o.text, n.text) for o, n in ic.stmt_moved] == [("b();", "b();")]
    assert ic.stmt_modified == () and ic.stmt_removed == () and ic.stmt_added == ()


def test_five_shuffled_statements_all_move():
    removed = [stmt(f"s{i}();") for i in range(5)]
    added = [stmt(f"s{(i + 2) % 5}();") for i in range(5)]
    moves, res_rem, res_add = detect_statement_moves(removed, added)
    assert len(moves) == 5 and res_rem == [] and res_add == []
    oracle = max_moves_oracle([s.text for s in removed], [s.text for s in added])
    assert len(moves) == oracle == 5


def test_moves_match_bipartite_oracle_on_random_inputs():
    random.seed(41)
    texts = ["a();", "b();", "c();"]
    for _ in range(120):
        removed = [stmt(random.choice(texts)) for _ in range(random.randint(0, 5))]
        added = [stmt(random.choice(texts)) for _ in range(random.randint(0, 5))]
        moves, res_rem, res_add = detect_statement_moves(removed, added)
        assert len(moves) == max_moves_oracle([s.text for s in removed], [s.text for s in added])
        assert len(res_rem) == len(removed) - len(moves)
        assert len(res_add) == len(added) - len(moves)
        for old_s, new_s in moves:
            assert old_s.text == new_s.text
        # so modify pairing never meets a statement's own text
        assert not {s.text for s in res_rem} & {s.text for s in res_add}


# --- symmetry ---------------------------------------------------------------------


SYMMETRY_SOURCES = [
    ("class C { int x; }", "class C { long y; }"),
    ("import a.A;\nclass C { void f() { } }", "import b.B;\nclass C { void g() { } }"),
    ("class C { }", "class C { int x; void f() { } }\nclass D { }"),
    ("@Tag class C extends A { }", "class C extends B { }"),
]


@pytest.mark.parametrize("left,right", SYMMETRY_SOURCES)
def test_diff_symmetry_add_vs_remove(left, right):
    a = parse_java(left)
    b = parse_java(right)
    forward = diff_facts(a, b, "F.java", "F.java").files[0]
    backward = diff_facts(b, a, "F.java", "F.java").files[0]
    assert forward.import_added == backward.import_removed
    assert forward.import_removed == backward.import_added
    assert set(forward.class_added) == set(backward.class_removed)
    assert {(c, f.name) for c, f in forward.field_added} == {(c, f.name) for c, f in backward.field_removed}
    assert {(c, m.signature()) for c, m in forward.method_added} == {
        (c, m.signature()) for c, m in backward.method_removed
    }
    assert set(forward.supertype_added) == set(backward.supertype_removed)


# --- classification ----------------------------------------------------------------


@pytest.mark.parametrize("expected,old_src,new_src", ALL_TYPE_FIXTURES)
def test_change_type_fixture(expected, old_src, new_src):
    old, new, diff = diff_sources(old_src, new_src)
    got, rule = classify_change_explained(diff, [new])
    assert got.value == expected, f"expected {expected}, got {got.value} via rule {rule}"


def test_classification_deterministic_across_runs():
    for expected, old_src, new_src in ALL_TYPE_FIXTURES:
        results = set()
        for _ in range(3):
            _, new, diff = diff_sources(old_src, new_src)
            results.add(classify_change_explained(diff, [new])[0].value)
        assert results == {expected}


def test_constructor_only_commit_is_object_creation():
    # adding only a constructor lands in the creation bucket
    _, new, diff = diff_sources(
        "class Request { String url; }",
        "class Request { String url; Request(String url) { this.url = url; } }",
    )
    assert classify_change_explained(diff, [new])[0].value == "Ty4"


def test_empty_diff_is_unknown():
    src = "class C { int x; }"
    _, new, diff = diff_sources(src, src)
    change_type, rule = classify_change_explained(diff, [new])
    assert change_type.value == "Ty11" and rule == "unclassified"


def test_large_commit_thresholds_are_configurable():
    from condenser.config import PipelineConfig

    _, new, diff = diff_sources(*ALL_TYPE_FIXTURES[7][1:])
    relaxed = PipelineConfig(large_change_min_methods=100)
    got = classify_change_explained(diff, [new], relaxed)[0]
    assert got.value != "Ty7"


def test_external_invocation_predicate():
    from condenser.changeset import _is_external_invocation

    assert _is_external_invocation("service.run();")
    assert _is_external_invocation("this.worker.poke();")
    assert _is_external_invocation("Util.max(a, b);")
    assert _is_external_invocation("log.info(name);")
    assert not _is_external_invocation("helper();")
    assert not _is_external_invocation("this.helper();")
    assert not _is_external_invocation("super.helper();")


def test_increment_counts_as_field_assignment():
    # `count++;` inside a touched method is a state update (3+ statement
    # changes keep this out of the small-change bucket)
    _, new, diff = diff_sources(
        "class Tally { int count; void bump() { count++; } void drop() { count--; } }",
        "class Tally { int count; void bump() { count++; count++; this.count++; }"
        " void drop() { count--; this.count--; } }",
    )
    assert classify_change_explained(diff, [new])[0].value == "Ty2"


@pytest.mark.parametrize(
    "fields,method,rule",
    [
        ("int v;", "int getV() { return v; }", "accessor_only"),
        ("int v;", "void setV(int x) { v = x; }", "accessor_only"),
        ("int v;", "void b() { v += 1; }", "state_update_only"),
        # a '$' is an identifier character (JLS 3.8)
        ("int $v;", "int get$v() { return $v; }", "accessor_only"),
        ("int $v;", "void set(int x) { $v = x; }", "accessor_only"),
        ("int $v;", "void b() { $v += 1; }", "state_update_only"),
        # every compound assignment updates the field (JLS 15.26)
        ("int v;", "void b() { v <<= 1; }", "state_update_only"),
        ("int v;", "void b() { v >>= 1; }", "state_update_only"),
        ("int v;", "void b() { v >>>= 1; }", "state_update_only"),
        # `this .v` names the field as `this.v` does
        ("int v;", "int getV() { return this .v; }", "accessor_only"),
        ("int v;", "void setV(int v) { this .v = v; }", "accessor_only"),
        ("int v;", "void b() { this .w = 1; }", "state_update_only"),
        # a getter returns an identifier, in a class without fields too
        ("", "int one() { return 1; }", "state_access_only"),
    ],
)
def test_an_added_method_reads_or_writes_the_field_by_its_rule(fields, method, rule):
    _, new, diff = diff_sources(f"class C {{ {fields} }}", f"class C {{ {fields} {method} }}")
    assert classify_change_explained(diff, [new])[1] == rule


def test_change_type_value_label_bijection():
    assert len(CHANGE_TYPE_LABELS) == 12
    for value, label in CHANGE_TYPE_LABELS.items():
        ct = ChangeType.of(value)
        assert ct.label == label
    with pytest.raises(ValueError):
        ChangeType("Ty0", "Wrong Label")


# --- reconstruction over declaration-level edits -------------------------------------


def identity_view(facts: SourceFacts):
    imports = set()
    for imp in facts.imports:
        imports.add(("static " if imp.is_static else "") + imp.name + (".*" if imp.is_wildcard else ""))
    classes = set()
    fields = set()
    methods = set()
    supers = set()
    annos: Counter = Counter()
    for qname, cls in facts.all_classes():
        classes.add(qname)
        for t in cls.extends_types:
            supers.add((qname, "extends", t))
        for t in cls.implements_types:
            supers.add((qname, "implements", t))
        for a in cls.annotations:
            annos[(f"class {qname}", a.name, a.argument_text)] += 1
        for f in cls.fields:
            fields.add((qname, f.name, f.type_text))
            for a in f.annotations:
                annos[(f"field {qname}.{f.name}", a.name, a.argument_text)] += 1
        for m in cls.methods:
            methods.add((qname, m.name, tuple(t for t, _ in m.parameters), m.return_type))
    return {
        "imports": imports,
        "classes": classes,
        "fields": fields,
        "methods": methods,
        "supers": supers,
        "annos": annos,
    }


def apply_file_diff(view, fd):
    out = {
        "imports": set(view["imports"]),
        "classes": set(view["classes"]),
        "fields": set(view["fields"]),
        "methods": set(view["methods"]),
        "supers": set(view["supers"]),
        "annos": Counter(view["annos"]),
    }
    rename = dict(fd.class_renamed)
    if rename:
        def rn(name):
            return rename.get(name, name)
        out["classes"] = {rn(c) for c in out["classes"]}
        out["fields"] = {(rn(c), n, t) for c, n, t in out["fields"]}
        out["methods"] = {(rn(c), n, p, r) for c, n, p, r in out["methods"]}
        out["supers"] = {(rn(c), k, t) for c, k, t in out["supers"]}
        renamed_annos: Counter = Counter()
        for (target, name, args), count in out["annos"].items():
            kind, _, rest = target.partition(" ")
            if kind == "class":
                rest = rn(rest)
            elif kind == "field":
                cls, _, fld = rest.rpartition(".")
                rest = f"{rn(cls)}.{fld}"
            renamed_annos[(f"{kind} {rest}", name, args)] = count
        out["annos"] = renamed_annos
    out["imports"] -= set(fd.import_removed)
    out["imports"] |= set(fd.import_added)
    out["classes"] -= set(fd.class_removed)
    out["classes"] |= set(fd.class_added)
    for cname, f in fd.field_removed:
        out["fields"].discard((cname, f.name, f.type_text))
    for cname, f in fd.field_added:
        out["fields"].add((cname, f.name, f.type_text))
    for cname, fname, old_t, new_t in fd.field_retyped:
        out["fields"].discard((cname, fname, old_t))
        out["fields"].add((cname, fname, new_t))
    for cname, m in fd.method_removed:
        out["methods"].discard((cname, m.name, tuple(t for t, _ in m.parameters), m.return_type))
    for cname, m in fd.method_added:
        out["methods"].add((cname, m.name, tuple(t for t, _ in m.parameters), m.return_type))
    for ic in fd.inline_changes:
        if ic.return_type_changed:
            old_r, new_r = ic.return_type_changed
            params_old = tuple(t for t, _ in ic.old.parameters)
            params_new = tuple(t for t, _ in ic.new.parameters)
            out["methods"].discard((ic.class_name, ic.old.name, params_old, old_r))
            out["methods"].add((ic.class_name, ic.new.name, params_new, new_r))
        elif ic.param_retyped:
            params_old = tuple(t for t, _ in ic.old.parameters)
            params_new = tuple(t for t, _ in ic.new.parameters)
            out["methods"].discard((ic.class_name, ic.old.name, params_old, ic.old.return_type))
            out["methods"].add((ic.class_name, ic.new.name, params_new, ic.new.return_type))
    out["supers"] -= set(fd.supertype_removed)
    out["supers"] |= set(fd.supertype_added)
    for ac in fd.annotation_changes:
        key = (ac.target, ac.name, ac.argument_text)
        if ac.origin == "removed":
            out["annos"][key] -= 1
            if out["annos"][key] <= 0:
                del out["annos"][key]
        else:
            out["annos"][key] += 1
    return out


TYPE_POOL = ["int", "long", "String", "boolean", "double", "java.util.List<String>"]
NAME_POOL = ["alpha", "beta", "gamma", "delta", "omega", "sigma"]


def _render_model(model) -> str:
    lines = []
    if model["package"]:
        lines.append(f"package {model['package']};")
    for imp in model["imports"]:
        lines.append(f"import {imp};")
    for cls in model["classes"]:
        for name, args in cls["annotations"]:
            lines.append(f"@{name}" + (f"({args})" if args else ""))
        head = f"class {cls['name']}"
        if cls["extends"]:
            head += f" extends {cls['extends']}"
        if cls["implements"]:
            head += " implements " + ", ".join(cls["implements"])
        lines.append(head + " {")
        for fname, ftype in cls["fields"]:
            lines.append(f"    {ftype} {fname};")
        for mname, ret, params in cls["methods"]:
            plist = ", ".join(f"{t} p{i}" for i, t in enumerate(params))
            lines.append(f"    {ret} {mname}({plist}) {{ }}")
        lines.append("}")
    return "\n".join(lines) + "\n"


def _random_model(rng: random.Random):
    classes = []
    for ci in range(rng.randint(1, 3)):
        fields = [(f"f{ci}{i}", rng.choice(TYPE_POOL)) for i in range(rng.randint(0, 3))]
        methods = [
            (f"m{ci}{i}", rng.choice(TYPE_POOL + ["void"]),
             tuple(rng.choice(TYPE_POOL) for _ in range(rng.randint(0, 2))))
            for i in range(rng.randint(0, 3))
        ]
        classes.append(
            {
                "name": f"Cls{ci}",
                "annotations": [("Tag", None)] if rng.random() < 0.3 else [],
                "extends": rng.choice([None, "Base", "Root"]),
                "implements": rng.sample(["Runnable", "Closeable"], rng.randint(0, 2)),
                "fields": fields,
                "methods": methods,
            }
        )
    return {
        "package": rng.choice([None, "app.core", "app.web"]),
        "imports": rng.sample(["java.util.List", "java.io.File", "java.util.Map"], rng.randint(0, 3)),
        "classes": classes,
    }


def _mutate_model(rng: random.Random, model):
    import copy

    out = copy.deepcopy(model)
    edits = rng.randint(1, 3)
    for _ in range(edits):
        kind = rng.choice(
            ["import_add", "import_remove", "field_add", "field_remove", "field_retype",
             "method_add", "method_remove", "class_add", "class_remove", "extends_change",
             "annotation_toggle", "rename_class"]
        )
        cls = rng.choice(out["classes"]) if out["classes"] else None
        if kind == "import_add":
            candidates = [i for i in ["java.net.URL", "java.time.Instant"] if i not in out["imports"]]
            if candidates:
                out["imports"].append(candidates[0])
        elif kind == "import_remove" and out["imports"]:
            out["imports"].pop(rng.randrange(len(out["imports"])))
        elif kind == "field_add" and cls:
            cls["fields"].append((f"extra{rng.randint(0, 99)}", rng.choice(TYPE_POOL)))
        elif kind == "field_remove" and cls and cls["fields"]:
            cls["fields"].pop(rng.randrange(len(cls["fields"])))
        elif kind == "field_retype" and cls and cls["fields"]:
            i = rng.randrange(len(cls["fields"]))
            name, old_t = cls["fields"][i]
            new_t = rng.choice([t for t in TYPE_POOL if t != old_t])
            cls["fields"][i] = (name, new_t)
        elif kind == "method_add" and cls:
            cls["methods"].append((f"fresh{rng.randint(0, 99)}", "void", ()))
        elif kind == "method_remove" and cls and cls["methods"]:
            cls["methods"].pop(rng.randrange(len(cls["methods"])))
        elif kind == "class_add":
            out["classes"].append(
                {"name": f"Extra{rng.randint(0, 99)}", "annotations": [], "extends": None,
                 "implements": [], "fields": [("v", "int")], "methods": []}
            )
        elif kind == "class_remove" and len(out["classes"]) > 1:
            out["classes"].pop(rng.randrange(len(out["classes"])))
        elif kind == "extends_change" and cls:
            cls["extends"] = rng.choice([None, "Base", "Root", "Trunk"])
        elif kind == "annotation_toggle" and cls:
            cls["annotations"] = [] if cls["annotations"] else [("Tag", None)]
        elif kind == "rename_class" and cls and edits == 1:
            # only as a lone edit, so the member fingerprint stays identical
            cls["name"] = cls["name"] + "X"
    return out


def test_reconstruction_on_30_declaration_level_pairs():
    """Applying diff records to the old identity view reproduces the new one."""
    produced = 0
    seed = 0
    while produced < 30:
        seed += 1
        rng = random.Random(seed)
        old_model = _random_model(rng)
        new_model = _mutate_model(rng, old_model)
        old_src = _render_model(old_model)
        new_src = _render_model(new_model)
        if old_src == new_src:
            continue
        # duplicate member names can arise from random edits; skip those
        try:
            old = parse_java(old_src)
            new = parse_java(new_src)
        except Exception:
            continue
        produced += 1
        diff = diff_facts(old, new, "F.java", "F.java")
        reconstructed = apply_file_diff(identity_view(old), diff.files[0])
        assert reconstructed == identity_view(new), f"seed {seed}\nOLD:\n{old_src}\nNEW:\n{new_src}"
