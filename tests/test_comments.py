"""Comment elicitation and categorization tests."""

from __future__ import annotations

from condenser.changeset import diff_facts
from condenser.comments import (
    ElicitedComment,
    categorize_comment,
    elicit_annotations,
    elicit_comments,
    normalize_comment_text,
)
from condenser.javafacts import CommentFacts, parse_java
from test_lexer_oracle import all_comments


def comment(kind: str, text: str, attachment: str = "file") -> CommentFacts:
    return CommentFacts(
        kind=kind,
        text=text,
        token_count=len(text.split()),
        attachment=attachment,
    )


def run_elicit(old_src: str, new_src: str):
    old = parse_java(old_src)
    new = parse_java(new_src)
    diff = diff_facts(old, new, "F.java", "F.java")
    return elicit_comments(old, new, diff)


# --- categorization rules ---------------------------------------------------------


def test_license_keyword_case_insensitive():
    assert categorize_comment(comment("block", "Apache LICENSE 2.0 terms")) == "license"
    assert categorize_comment(comment("line", "see license file")) == "license"


def test_todo_keyword():
    assert categorize_comment(comment("line", "TODO fix later")) == "todo"


def test_priority_license_beats_todo():
    assert categorize_comment(comment("line", "TODO check license header")) == "license"


def test_priority_todo_beats_javadoc():
    # priority order is fixed: todo comes before the javadoc length rule
    long_text = "todo " + " ".join(f"w{i}" for i in range(30))
    assert categorize_comment(comment("javadoc", long_text)) == "todo"


def test_javadoc_needs_more_than_20_tokens():
    exactly_20 = " ".join(f"w{i}" for i in range(20))
    twenty_one = " ".join(f"w{i}" for i in range(21))
    assert categorize_comment(comment("javadoc", exactly_20)) == "general"  # strict >20
    assert categorize_comment(comment("javadoc", twenty_one)) == "javadoc"
    assert categorize_comment(comment("block", twenty_one)) == "javadoc"
    # line comments never reach the javadoc bucket on length alone
    assert categorize_comment(comment("line", twenty_one)) == "general"


def test_general_fallback():
    assert categorize_comment(comment("line", "small note")) == "general"


def test_normalize_strips_gutters_and_whitespace():
    raw = "\n * first line\n *   second   line\n "
    assert normalize_comment_text(raw) == "first line second line"


# --- elicitation ------------------------------------------------------------------


OLD_CALLER = """
class Dialer {
    void display(String caller) {
        show(caller);
    }
}
"""

NEW_CALLER = """
class Dialer {
    void display(String caller) {
        // handle callers without callerid so they display as unknown
        show(orUnknown(caller));
    }
}
"""


def test_added_line_comment_is_elicited_with_origin_added():
    elicited = run_elicit(OLD_CALLER, NEW_CALLER)
    texts = [(c.text, c.origin, c.category) for c in elicited]
    assert ("handle callers without callerid so they display as unknown", "added", "general") in texts


def test_removed_comment_gets_origin_removed():
    elicited = run_elicit(NEW_CALLER, OLD_CALLER)
    assert [(c.origin, c.category) for c in elicited] == [("removed", "general")]


def test_unchanged_javadoc_on_changed_method_is_context():
    doc = " ".join(f"word{i}" for i in range(30))
    old_src = f"class C {{\n    /** {doc} */\n    int f() {{ return 1; }}\n}}"
    new_src = f"class C {{\n    /** {doc} */\n    int f() {{ return 2; }}\n}}"
    elicited = run_elicit(old_src, new_src)
    context = [c for c in elicited if c.origin == "context"]
    assert len(context) == 1
    assert context[0].category == "javadoc"
    assert context[0].attachment == "method:C.f"


def test_unchanged_comment_on_untouched_method_not_elicited():
    src_template = (
        "class C {{\n"
        "    /** stable doc that is long enough {pad} */\n"
        "    int f() {{ return 1; }}\n"
        "    int g() {{ return {val}; }}\n"
        "}}"
    )
    pad = " ".join(f"w{i}" for i in range(20))
    elicited = run_elicit(
        src_template.format(pad=pad, val=1),
        src_template.format(pad=pad, val=2),
    )
    assert all(c.attachment != "method:C.f" for c in elicited)


def test_context_license_comment_suppressed():
    license_header = "/* Licensed under the Apache License, Version 2.0 */"
    old_src = f"{license_header}\nclass C {{\n    int f() {{ return 1; }}\n}}"
    new_src = f"{license_header}\nclass C {{\n    int f() {{ return 2; }}\n}}"
    elicited = run_elicit(old_src, new_src)
    assert all(c.category != "license" for c in elicited)


def test_added_license_comment_still_elicited():
    old_src = "class C { }"
    new_src = "/* Licensed under MIT license */\nclass C { }"
    elicited = run_elicit(old_src, new_src)
    assert [(c.category, c.origin) for c in elicited] == [("license", "added")]


def test_duplicates_emitted_once():
    old_src = "class C { void f() { } }"
    new_src = "class C {\n    // note\n    void f() { }\n    // note\n    void g() { }\n}"
    elicited = run_elicit(old_src, new_src)
    notes = [c for c in elicited if c.text == "note"]
    # same text at two attachments stays two records; same (text, attachment) collapses
    attachments = {c.attachment for c in notes}
    assert len(notes) == len(attachments)


def test_comment_at_the_end_of_a_body_belongs_to_that_body():
    # 'done' ends two lines above b(); it used to attach to b and be elicited
    # as context whenever b changed
    old_src = "class C {\n  void a() {\n    x(); // done\n  }\n  void b() { y(); }\n}"
    new_src = old_src.replace("y();", "y(); z();")
    assert run_elicit(old_src, new_src) == []
    assert parse_java(old_src).comments == ()
    assert [c.attachment for c in all_comments(old_src)] == ["inline:C.a"]


def test_renamed_class_keeps_its_comments():
    old_src = (
        "class A {\n"
        "    /** Doc for m. */\n"
        "    void m() {\n"
        "        // keep the count\n"
        "        count++;\n"
        "    }\n"
        "}\n"
    )
    new_src = old_src.replace("class A", "class B")
    old, new = parse_java(old_src), parse_java(new_src)
    diff = diff_facts(old, new, "F.java", "F.java")
    assert diff.files[0].class_renamed == (("A", "B"),)
    assert elicit_comments(old, new, diff) == []
    # a changed comment of the renamed class is named after the new class
    edited = parse_java(new_src.replace("keep the count", "count calls"))
    elicited = elicit_comments(old, edited, diff_facts(old, edited, "F.java", "F.java"))
    assert [(c.origin, c.text, c.attachment) for c in elicited] == [
        ("added", "count calls", "inline:B.m"),
        ("removed", "keep the count", "inline:B.m"),
    ]


def test_renamed_class_with_an_inner_class_is_one_rename():
    # the outer classes have equal members and the nested ones pair by name
    old_src = "class A {\n  class I { }\n  /** Doc for m. */\n  void m() { n++; }\n}\n"
    new_src = old_src.replace("class A", "class B")
    old, new = parse_java(old_src), parse_java(new_src)
    fd = diff_facts(old, new, "F.java", "F.java").files[0]
    assert fd.class_renamed == (("A", "B"),)
    assert fd.class_added == fd.class_removed == ()
    assert fd.method_added == fd.method_removed == fd.inline_changes == ()
    assert fd.class_order == ("B", "B.I")
    assert run_elicit(old_src, new_src) == []
    # a nested class's edit is diffed under its new name
    edited = new_src.replace("class I { }", "class I { int k; }")
    fd = diff_facts(old, parse_java(edited), "F.java", "F.java").files[0]
    assert fd.class_renamed == (("A", "B"),)
    assert [(c, f.name) for c, f in fd.field_added] == [("B.I", "k")]


def test_renamed_class_whose_inner_class_is_renamed_too_is_no_rename():
    old_src = "class A {\n  class I { }\n  void m() { n++; }\n}\n"
    new_src = old_src.replace("class A", "class B").replace("class I", "class J")
    fd = diff_facts(parse_java(old_src), parse_java(new_src), "F.java", "F.java").files[0]
    assert fd.class_renamed == ()
    assert (fd.class_added, fd.class_removed) == (("B", "B.J"), ("A", "A.I"))


def test_comment_only_body_edit_is_elicited():
    # no statement changes, so no inline change; the body text still differs
    old_src = "class C {\n  void f() {\n    // old note\n    g();\n  }\n  void f(int k) {\n    // old note\n  }\n}"
    new_src = old_src.replace("// old note\n    g();", "// new note\n    g();")
    old, new = parse_java(old_src), parse_java(new_src)
    fd = diff_facts(old, new, "F.java", "F.java").files[0]
    assert fd.inline_changes == () and [(c, o.name) for c, o, _n in fd.body_changed] == [("C", "f")]
    # the overload f(int) keeps 'old note', so that key is in both versions
    assert [(c.origin, c.text) for c in run_elicit(old_src, new_src)] == [("added", "new note")]


def test_every_elicited_text_comes_from_real_comments():
    elicited = run_elicit(OLD_CALLER, NEW_CALLER)
    normalized_pool = {normalize_comment_text(c.text) for c in all_comments(OLD_CALLER) + all_comments(NEW_CALLER)}
    for c in elicited:
        assert c.text in normalized_pool


def test_category_partition_is_reproducible():
    elicited = run_elicit(OLD_CALLER, NEW_CALLER)
    for c in elicited:
        assert c.category in ("javadoc", "license", "todo", "general")
        recomputed = categorize_comment(
            CommentFacts("line", c.text, len(c.text.split()), c.attachment)
        )
        if "license" in c.text.lower():
            assert recomputed == "license"
        elif "todo" in c.text.lower():
            assert recomputed == "todo"


# --- annotations -------------------------------------------------------------------


def test_added_class_annotation_elicited():
    old = parse_java("class T { void t() { } }")
    new = parse_java('@SqlConfig(commentPrefix = "--")\nclass T { void t() { } }')
    records = diff_facts(old, new).files[0].annotation_changes
    assert len(records) == 1
    rec = records[0]
    assert rec.name == "SqlConfig" and rec.origin == "added" and rec.target == "class T"


def test_identical_annotations_give_empty_list():
    src = "@Deprecated class T { @Override public String toString() { return \"t\"; } }"
    facts = parse_java(src)
    fd = diff_facts(facts, facts).files[0]
    assert fd.annotation_changes == () and fd.inline_changes == ()
    assert elicit_annotations(fd) == []


def test_override_moved_between_methods_gives_two_records():
    old = parse_java("class C { @Override void a() { } void b() { } }")
    new = parse_java("class C { void a() { } @Override void b() { } }")
    fd = diff_facts(old, new).files[0]
    by_method = {ic.method_name: (ic.annotation_removed, ic.annotation_added) for ic in fd.inline_changes}
    assert by_method == {"a": ((("Override", None),), ()), "b": ((), (("Override", None),))}
    assert elicit_annotations(fd) == []


def test_annotation_argument_change_is_remove_plus_add():
    old = parse_java('@Config(size = 1)\nclass C { }')
    new = parse_java('@Config(size = 2)\nclass C { }')
    records = diff_facts(old, new).files[0].annotation_changes
    assert sorted((r.origin, r.argument_text) for r in records) == [("added", "size = 2"), ("removed", "size = 1")]
    assert all(r.name == "Config" and r.target == "class C" for r in records)


def test_elicit_annotations_reads_added_and_removed_methods():
    old = parse_java("class A { @Deprecated void r() { } @Inject void m(int a) { } void k() { } }")
    new = parse_java(
        "class A { @Inject void m(String s, int b) { } void k() { }"
        " @Override public String toString() { return \"a\"; } }\n"
        "@Deprecated class N { @Test void t() { } }"
    )
    fd = diff_facts(old, new).files[0]
    records = [(r.target, r.name, r.origin) for r in elicit_annotations(fd)]
    assert records == [
        ("method A.m", "Inject", "removed"),
        ("method A.m", "Inject", "added"),
        ("method A.r", "Deprecated", "removed"),
        ("method A.toString", "Override", "added"),
        ("method N.t", "Test", "added"),
    ]
    # the added class's own annotation is a summary record, not an elicited one
    assert [(ac.target, ac.name) for ac in fd.annotation_changes] == [("class N", "Deprecated")]
