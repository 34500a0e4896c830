"""Parser tests: declaration extraction, invariants, and the comment-region oracle."""

from __future__ import annotations

import pytest

from condenser.javafacts import (
    ParseError,
    SourceFacts,
    parse_java,
    sort_modifiers,
)
from oracles import comment_chars_oracle
from test_lexer_oracle import all_comments, method_spans


# --- basic parsing -------------------------------------------------------------


def test_minimal_program():
    facts = parse_java("package a.b; class C { int x; }")
    assert facts.package_name == "a.b"
    assert len(facts.classes) == 1
    cls = facts.classes[0]
    assert cls.name == "C"
    assert [(f.name, f.type_text) for f in cls.fields] == [("x", "int")]


def test_doc_comment_token_count_21():
    # 21 whitespace-separated tokens, counted by hand
    src = (
        "class C {\n"
        "    /** returns the id token count is big enough to cross the twenty"
        " token threshold with one extra word for this test */\n"
        "    int id() { return 1; }\n"
        "}\n"
    )
    facts = parse_java(src)
    assert facts.classes[0].methods[0].name == "id"
    [doc] = [c for c in facts.comments if c.attachment == "method:C.id"]
    assert doc.kind == "javadoc"
    assert doc.token_count == 21


def test_empty_string_is_parse_error():
    with pytest.raises(ParseError):
        parse_java("")


def test_whitespace_only_is_parse_error():
    with pytest.raises(ParseError):
        parse_java("   \n\t  ")


def test_unbalanced_braces_raise():
    with pytest.raises(ParseError):
        parse_java("class C { void f() { }")
    with pytest.raises(ParseError):
        parse_java("class C { } }")


def test_unterminated_comment_raises():
    with pytest.raises(ParseError):
        parse_java("class C { } /* never closed")


def test_unterminated_string_raises():
    with pytest.raises(ParseError):
        parse_java('class C { String s = "oops; }')


def test_duplicate_method_signature_raises():
    with pytest.raises(ParseError):
        parse_java("class C { void f(int a) {} void f(int b) {} }")


def test_overloads_are_fine():
    facts = parse_java("class C { void f(int a) {} void f(String b) {} }")
    assert len(facts.classes[0].methods) == 2


def test_duplicate_field_raises():
    with pytest.raises(ParseError):
        parse_java("class C { int x; long x; }")


def test_duplicate_parameter_name_raises():
    with pytest.raises(ParseError):
        parse_java("class C { void f(int a, String a) {} }")


def test_imports_preserve_source_order_and_flags():
    src = (
        "import z.Z;\n"
        "import static a.B.c;\n"
        "import a.b.*;\n"
        "class C { }\n"
    )
    facts = parse_java(src)
    assert [(i.name, i.is_static, i.is_wildcard) for i in facts.imports] == [
        ("z.Z", False, False),
        ("a.B.c", True, False),
        ("a.b", False, True),
    ]


def test_constructor_has_no_return_type():
    facts = parse_java("class C { C(int x) {} int f() { return 1; } }")
    ctor, f = facts.classes[0].methods
    assert ctor.is_constructor and ctor.return_type is None
    assert not f.is_constructor and f.return_type == "int"


def test_varargs_parameter_type():
    facts = parse_java("class C { C(String... parts) {} }")
    assert facts.classes[0].methods[0].parameters == (("String...", "parts"),)


def test_annotated_varargs_parameter_type():
    # type annotations on the '...' (JLS 9.7.4) are dropped, like parameter annotations
    facts = parse_java("class C { void f(String @A ... xs) {} void g(int n, @B String @A @C(1) ... ys) {} }")
    assert [m.parameters for m in facts.classes[0].methods] == [
        (("String...", "xs"),),
        (("int", "n"), ("String...", "ys")),
    ]


def test_generic_types_kept_as_text():
    facts = parse_java("class C { java.util.Map<String,java.util.List<Integer>> m; }")
    # canonical whitespace: one space after commas, none inside name chains
    assert facts.classes[0].fields[0].type_text == "java.util.Map<String, java.util.List<Integer>>"


def test_throws_clause():
    facts = parse_java("class C { void f() throws java.io.IOException, RuntimeException {} }")
    assert facts.classes[0].methods[0].thrown_exceptions == ("java.io.IOException", "RuntimeException")


def test_interface_and_enum_kinds():
    facts = parse_java(
        "interface I { int f(); }\n"
        "enum E { A, B; int v; }\n"
    )
    iface, enum = facts.classes
    assert iface.kind == "interface"
    assert iface.methods[0].body_statements == ()
    assert enum.kind == "enum"
    constants = [f for f in enum.fields if f.is_enum_constant]
    assert [c.name for c in constants] == ["A", "B"]
    assert [f.name for f in enum.fields if not f.is_enum_constant] == ["v"]


def test_annotation_declaration_kind():
    facts = parse_java("@interface Marker { String value(); }")
    assert facts.classes[0].kind == "annotation-decl"


def test_annotation_type_element_defaults():
    # JLS 9.6.2: an element value after 'default' is dropped
    src = (
        "@interface Config {\n"
        "  int value() default 1;\n"
        '  String[] names() default {"a"};\n'
        "  Class<?> type() default Object.class;\n"
        "  String plain();\n"
        "}\n"
    )
    methods = parse_java(src).classes[0].methods
    assert [(m.name, m.return_type, m.body_text, m.body_statements) for m in methods] == [
        ("value", "int", "", ()),
        ("names", "String[]", "", ()),
        ("type", "Class<?>", "", ()),
        ("plain", "String", "", ()),
    ]
    start, _m, _body, end = method_spans(parse_java(src))[1]
    assert src[start:end] == 'String[] names() default {"a"};'


def test_element_value_after_equals_is_a_parse_error():
    # '= value' is not Java; it was accepted before 'default' was
    with pytest.raises(ParseError) as exc:
        parse_java("@interface A { int value() = 1; }")
    assert exc.value.message == "expected ';' after abstract method"


def test_annotations_with_arguments():
    src = (
        '@SqlConfig(commentPrefix = "--")\n'
        "class T {\n"
        "    @Override\n"
        "    public String toString() { return \"t\"; }\n"
        "}\n"
    )
    facts = parse_java(src)
    cls = facts.classes[0]
    assert cls.annotations[0].name == "SqlConfig"
    assert "commentPrefix" in cls.annotations[0].argument_text
    assert cls.methods[0].annotations[0].name == "Override"
    assert cls.methods[0].annotations[0].argument_text is None


def test_extends_and_implements_captured():
    facts = parse_java("class C extends Base implements Runnable, java.io.Serializable { }")
    cls = facts.classes[0]
    assert cls.extends_types == ("Base",)
    assert cls.implements_types == ("Runnable", "java.io.Serializable")


def test_doc_comment_attaches_through_annotations():
    src = (
        "/** class doc */\n"
        "@Component\n"
        "@Named(\"svc\")\n"
        "public class Svc {\n"
        "    /** method doc */\n"
        "    @Override\n"
        "    public void run() { }\n"
        "}\n"
    )
    facts = parse_java(src)
    assert [(c.attachment, c.text) for c in facts.comments] == [("class:Svc", " class doc "), ("method:Svc.run", " method doc ")]


def test_doc_comment_attaches_through_annotations_to_inner_class():
    src = 'class Outer {\n  /** Doc. */\n  @Deprecated\n  @SuppressWarnings("x")\n  static class Inner { }\n}'
    facts = parse_java(src)
    assert [(c.attachment, c.text) for c in facts.comments] == [("class:Outer.Inner", " Doc. ")]
    [inner] = facts.classes[0].inner_classes
    assert inner.modifiers == {"static"}
    assert [(a.name, a.argument_text) for a in inner.annotations] == [("Deprecated", None), ("SuppressWarnings", '"x"')]


def test_dimensions_after_the_parameter_list_belong_to_the_return_type():
    # JLS 8.4 keeps `int m()[]` for compatibility: m returns int[]
    facts = parse_java("class C {\n  int m()[] { return null; }\n  String[] n(int k)[][] throws E;\n}")
    assert [(m.name, m.return_type, m.parameters, m.thrown_exceptions) for m in facts.classes[0].methods] == [
        ("m", "int[]", (), ()),
        ("n", "String[][][]", (("int", "k"),), ("E",)),
    ]
    for src in ("class C { C()[] { } }", "class C { void m()[] { } }"):  # no type to take them
        with pytest.raises(ParseError, match="expected ';' after abstract method"):
            parse_java(src)


def test_array_types_render_tight():
    facts = parse_java("class C { int[] grid; String names[]; void f(byte[] raw) { } }")
    cls = facts.classes[0]
    assert [(f.name, f.type_text) for f in cls.fields] == [("grid", "int[]"), ("names", "String[]")]
    assert cls.methods[0].parameters == (("byte[]", "raw"),)


def test_duplicate_top_level_class_raises():
    with pytest.raises(ParseError):
        parse_java("class A { } class A { }")


def test_multiple_declarators_become_separate_fields():
    facts = parse_java("class C { int a, b = f(2, new int[] {3, 4}), c; }")
    fields = facts.classes[0].fields
    assert [(f.name, f.type_text) for f in fields] == [("a", "int"), ("b", "int"), ("c", "int")]


def test_statement_kinds():
    src = """
class C {
    int f(int n) {
        int total = 0;
        total = total + n;
        if (n > 0) {
            for (int i = 0; i < n; i++) {
                helper.accumulate(i);
            }
        } else {
            total--;
        }
        try {
            risky();
        } catch (RuntimeException e) {
            throw new IllegalStateException(e);
        }
        while (total > 100) {
            total = total / 2;
        }
        return total;
    }
    void risky() { }
}
"""
    facts = parse_java(src)
    stmts = facts.classes[0].methods[0].body_statements
    kinds = [s.kind for s in stmts]
    assert kinds == [
        "declaration", "assignment", "branch", "loop", "invocation", "branch",
        "assignment", "try", "invocation", "try", "throw", "loop", "assignment", "return",
    ]
    for s in stmts:
        assert "\n" not in s.text
        assert "  " not in s.text


def test_lines_count_the_newline_inside_a_wrapped_literal():
    # a backslash-newline inside a string is not Java, but it is accepted;
    # the newline it hides is still a line
    facts = parse_java('class A {\n  String s = "ab\\\ncd";\n  void m() {\n    x();\n  }\n}')
    method = facts.classes[0].methods[0]
    assert [s.text for s in method.body_statements] == ["x();"]
    with pytest.raises(ParseError) as exc:
        parse_java('class A {\n  String s = "ab\\\ncd";\n  void m() {\n    x();\n  }\n  int ;\n}')
    assert exc.value.line == 7


def test_anonymous_class_stays_one_statement():
    src = (
        "class C { void f() {\n"
        "    Runnable r = new Runnable() { public void run() { x(); } };\n"
        "    r.run();\n"
        "} }"
    )
    facts = parse_java(src)
    stmts = facts.classes[0].methods[0].body_statements
    assert len(stmts) == 2
    assert stmts[0].kind == "declaration"
    assert stmts[1].kind == "invocation"


def test_byte_ranges_nested():
    src = (
        "class Outer {\n"
        "    int x;\n"
        "    class Inner {\n"
        "        class Innermost { }\n"
        "    }\n"
        "    void f() { g(); }\n"
        "}\n"
    )
    facts = parse_java(src)
    outer = facts.classes[0]
    inner = outer.inner_classes[0]
    assert [c.name for c in inner.inner_classes] == ["Innermost"]
    [(start, method, body, end)] = method_spans(facts)
    assert method is outer.methods[0] and src[start:end] == "void f() { g(); }"
    assert src[body:end] == method.body_text == "{ g(); }"


def test_inner_class_containment_is_a_forest():
    src = (
        "class A { class B { } class C { class D { } } }\n"
        "class E { }\n"
    )
    facts = parse_java(src)
    names = [q for q, _ in facts.all_classes()]
    assert names == ["A", "A.B", "A.C", "A.C.D", "E"]
    assert len(names) == len(set(names))


# --- comment extraction ----------------------------------------------------------


def test_line_comment_attaches_to_following_method():
    src = (
        "class C {\n"
        "    // todo fix later\n"
        "    void f() { }\n"
        "}\n"
    )
    comments = all_comments(src)
    assert len(comments) == 1
    assert comments[0].kind == "line"
    assert comments[0].attachment == "method:C.f"


def test_string_literal_is_not_a_comment():
    facts = parse_java('class C { String s = "/* nope */"; }')
    assert facts.comments == ()


def test_25_token_javadoc_attaches_to_class():
    # exactly 25 whitespace tokens inside the javadoc, counted by hand
    words = " ".join(
        "one two three four five six seven eight nine ten eleven twelve thirteen"
        " fourteen fifteen sixteen seventeen eighteen nineteen twenty alpha beta"
        " gamma delta epsilon".split()
    )
    src = f"/** {words} */\nclass C {{ }}\n"
    comments = all_comments(src)
    assert len(comments) == 1
    assert comments[0].kind == "javadoc"
    assert comments[0].token_count == 25
    assert comments[0].attachment == "class:C"


def test_comment_inside_method_is_inline():
    src = (
        "class C {\n"
        "    void f() {\n"
        "        // handle callers without callerid so they display as unknown\n"
        "        display(caller);\n"
        "    }\n"
        "    void g() { }\n"
        "}\n"
    )
    comments = all_comments(src)
    # the comment sits 1 line above g()? no: g is 3 lines below; f() encloses it
    assert comments[0].attachment == "inline:C.f"


def test_body_comments_are_built_on_first_read_with_their_lines():
    src = (
        "class C {\n"
        "    class D {\n"
        "        void f() { // first\n"
        "            /* second\n"
        "               spans two lines */ g();\n"
        "            h(); // last\n"
        "        }\n"
        "        void g() { }\n"
        "    }\n"
        "}\n"
    )
    facts = parse_java(src)
    assert facts.comments == ()
    method = facts.classes[0].inner_classes[0].methods[0]
    # spans are offsets into the body text
    assert [method.body_text[s:e] for _group, s, e in method.body_comments][::2] == ["// first", "// last"]
    assert "inline_comments" not in vars(method)
    assert [(c.kind, c.text, c.attachment) for c in method.inline_comments] == [
        ("line", " first", "inline:C.D.f"),
        ("block", " second\n               spans two lines ", "inline:C.D.f"),
        ("line", " last", "inline:C.D.f"),
    ]
    assert method.inline_comments is method.inline_comments
    # the last comment ends two lines above g(), but the body it sits in owns it
    assert all_comments(src) == list(method.inline_comments)


def test_comment_far_from_decls_attaches_to_enclosing_class():
    src = (
        "class C {\n"
        "    int x;\n"
        "    // drifting note\n"
        "\n"
        "\n"
        "\n"
        "    void f() { }\n"
        "}\n"
    )
    comments = all_comments(src)
    assert comments[0].attachment == "class:C"


def test_file_level_comment():
    src = "// header note\n\n\n\nclass C { }\n"
    comments = all_comments(src)
    assert comments[0].attachment == "file"
    facts = parse_java(src)
    assert [c.attachment for c in facts.comments] == ["file"]


def test_comment_token_count_matches_whitespace_runs():
    src = "class C { }\n// a  b\tc   d\n"
    comments = all_comments(src)
    assert comments[-1].token_count == len(comments[-1].text.split())


COMMENT_FIXTURES = [
    "class C { /* a */ int x; // b\n }",
    'class C { String s = "// not"; /* real */ }',
    "/** doc */ class C { /** m doc */ void f() { /* in */ g(); } }",
    "// only\nclass C { }",
    "class C { }\n/* trailing */",
    "class C { char c = '\"'; // after a char quote\n }",
    "class C { String s = \"\\\" /* not */\"; /* yes */ }",
]


@pytest.mark.parametrize("src", COMMENT_FIXTURES)
def test_comment_completeness_against_4_state_oracle(src):
    # every character inside a comment region appears in the extracted texts,
    # and nothing from outside does (order preserved)
    extracted = "".join(c.text for c in all_comments(src))
    assert extracted == comment_chars_oracle(src)


# --- idempotence: parse(render-back) == declaration view --------------------------


def render_skeleton(facts: SourceFacts) -> str:
    """Canonical declaration-only rendering of parsed facts."""
    lines: list[str] = []
    if facts.package_name:
        lines.append(f"package {facts.package_name};")
    for imp in facts.imports:
        static = "static " if imp.is_static else ""
        wildcard = ".*" if imp.is_wildcard else ""
        lines.append(f"import {static}{imp.name}{wildcard};")

    def emit_class(cls, indent: int) -> None:
        pad = "    " * indent
        for a in cls.annotations:
            args = f"({a.argument_text})" if a.argument_text else ""
            lines.append(f"{pad}@{a.name}{args}")
        mods = " ".join(sort_modifiers(cls.modifiers))
        keyword = {"class": "class", "interface": "interface", "enum": "enum", "annotation-decl": "@interface"}[cls.kind]
        head = f"{pad}{mods + ' ' if mods else ''}{keyword} {cls.name}"
        if cls.extends_types:
            head += " extends " + ", ".join(cls.extends_types)
        if cls.implements_types:
            head += " implements " + ", ".join(cls.implements_types)
        lines.append(head + " {")
        inner_pad = pad + "    "
        constants = [f.name for f in cls.fields if f.is_enum_constant]
        if constants:
            lines.append(inner_pad + ", ".join(constants) + ";")
        for f in cls.fields:
            if f.is_enum_constant:
                continue
            for a in f.annotations:
                args = f"({a.argument_text})" if a.argument_text else ""
                lines.append(f"{inner_pad}@{a.name}{args}")
            mods = " ".join(sort_modifiers(f.modifiers))
            lines.append(f"{inner_pad}{mods + ' ' if mods else ''}{f.type_text} {f.name};")
        for m in cls.methods:
            for a in m.annotations:
                args = f"({a.argument_text})" if a.argument_text else ""
                lines.append(f"{inner_pad}@{a.name}{args}")
            mods = " ".join(sort_modifiers(m.modifiers))
            params = ", ".join(f"{t} {n}" for t, n in m.parameters)
            ret = f"{m.return_type} " if m.return_type else ""
            throws = f" throws {', '.join(m.thrown_exceptions)}" if m.thrown_exceptions else ""
            lines.append(f"{inner_pad}{mods + ' ' if mods else ''}{ret}{m.name}({params}){throws};")
        for inner in cls.inner_classes:
            emit_class(inner, indent + 1)
        lines.append(pad + "}")

    for cls in facts.classes:
        emit_class(cls, 0)
    return "\n".join(lines) + "\n"


def decl_view(facts: SourceFacts):
    def class_view(cls):
        return (
            cls.name,
            cls.kind,
            tuple(sort_modifiers(cls.modifiers)),
            tuple((a.name, a.argument_text) for a in cls.annotations),
            cls.extends_types,
            cls.implements_types,
            tuple(
                (f.name, f.type_text, tuple(sort_modifiers(f.modifiers)), f.is_enum_constant)
                for f in cls.fields
            ),
            tuple(
                (
                    m.name,
                    m.return_type,
                    m.parameters,
                    tuple(sort_modifiers(m.modifiers)),
                    m.thrown_exceptions,
                    tuple((a.name, a.argument_text) for a in m.annotations),
                )
                for m in cls.methods
            ),
            tuple(class_view(i) for i in cls.inner_classes),
        )

    return (facts.package_name, facts.imports, tuple(class_view(c) for c in facts.classes))


IDEMPOTENCE_SOURCES = [
    "package a.b; class C { int x; }",
    """
package demo.app;
import java.util.List;
import static java.lang.Math.max;

@Deprecated
public class Wide extends Base implements Runnable, AutoCloseable {
    private static final java.util.Map<String, List<Integer>> CACHE = new java.util.HashMap<>();
    protected int count = 0;
    String label;

    public Wide(String label, int... counts) throws IllegalArgumentException {
        this.label = label;
    }

    @Override
    public void run() {
        for (int i = 0; i < count; i++) { tick(i); }
    }

    public void close() { }

    static class Inner {
        boolean flag;
        Inner(boolean flag) { this.flag = flag; }
    }
}
""",
    "interface Api { int VERSION = 2; String describe(java.util.List<String> parts); }",
    "enum Level { LOW, MEDIUM, HIGH; private int rank; int rank() { return rank; } }",
    "@interface Tag { String value(); }",
]


@pytest.mark.parametrize("src", IDEMPOTENCE_SOURCES)
def test_parse_render_parse_is_idempotent(src):
    first = parse_java(src)
    rendered = render_skeleton(first)
    second = parse_java(rendered)
    assert decl_view(second) == decl_view(first)


def test_empty_facts_sentinel():
    empty = SourceFacts.empty()
    assert empty.classes == () and empty.imports == () and empty.package_name is None


RICH_SOURCE = '''package com.acme.svc;

import java.util.List;
import java.util.Map;
import java.util.concurrent.*;
import static java.util.Objects.requireNonNull;

@Component
@SuppressWarnings({"unchecked", "rawtypes"})
public class BatchService<T extends Comparable<? super T>> extends AbstractService
        implements Runnable, AutoCloseable {

    private static final Map<String, List<? extends Number>> LIMITS =
            new ConcurrentHashMap<>();
    protected volatile int batchSize = 16;
    int[] histogram = new int[]{1, 2, 3};
    String label, owner = "none";

    static {
        LIMITS.put("default", List.of(1, 2));
    }

    { histogram[0] = 1; }

    public BatchService(String label, int... sizes) throws IllegalArgumentException {
        this.label = requireNonNull(label);
    }

    @Override
    public void run() {
        outer:
        for (int i = 0; i < batchSize; i++) {
            int taken = 0;
            do {
                taken++;
            } while (taken < 3);
            switch (taken) {
                case 1:
                    handleOne();
                    break;
                default:
                    handleMany(taken);
                    break;
            }
            Runnable task = () -> { drainOnce(); };
            executor.submit(task);
            String note = taken > 2 ? "big" : "small";
        }
        try (AutoCloseable guard = open()) {
            flush();
        } catch (Exception e) {
            throw new IllegalStateException("flush failed", e);
        } finally {
            cleanup();
        }
    }

    public <R> R map(Function<? super T, R> fn) {
        return fn.apply(null);
    }

    enum Phase {
        @Deprecated IDLE,
        DRAIN("fast") {
        },
        DONE;

        private final String tag;

        Phase() { this.tag = ""; }
        Phase(String tag) { this.tag = tag; }
    }
}

interface Sink<T> {
    int CAPACITY = 64;
    void accept(T item) throws java.io.IOException;
    default boolean ready() { return true; }
}
'''


def test_rich_realistic_file():
    facts = parse_java(RICH_SOURCE, "BatchService.java")
    svc, sink = facts.classes
    assert svc.extends_types == ("AbstractService",)
    assert svc.implements_types == ("Runnable", "AutoCloseable")
    assert [a.name for a in svc.annotations] == ["Component", "SuppressWarnings"]
    assert [(f.name, f.type_text) for f in svc.fields] == [
        ("LIMITS", "Map<String, List<? extends Number>>"),
        ("batchSize", "int"),
        ("histogram", "int[]"),
        ("label", "String"),
        ("owner", "String"),
    ]
    ctor, run, map_m = svc.methods
    assert ctor.is_constructor and ctor.parameters == (("String", "label"), ("int...", "sizes"))
    assert ctor.thrown_exceptions == ("IllegalArgumentException",)
    kinds = [s.kind for s in run.body_statements]
    assert kinds.count("loop") == 3  # for, do, while
    assert kinds.count("branch") == 3  # switch, case, default
    assert kinds.count("try") == 3  # try, catch, finally
    assert "throw" in kinds
    # lambda assignment stays a single declaration statement
    lambda_stmt = next(s for s in run.body_statements if "drainOnce" in s.text)
    assert lambda_stmt.kind == "declaration"
    assert map_m.return_type == "R"
    phase = svc.inner_classes[0]
    assert phase.kind == "enum"
    assert [f.name for f in phase.fields if f.is_enum_constant] == ["IDLE", "DRAIN", "DONE"]
    assert sink.kind == "interface"
    assert [(m.name, len(m.body_statements)) for m in sink.methods] == [("accept", 0), ("ready", 1)]


def test_parser_totality_under_random_mutation():
    """Corrupted input may only ever raise ParseError, never crash."""
    import random

    base = (
        "package p;\n"
        "import java.util.List;\n"
        "/** doc */\n"
        "@Tag(value = \"x\")\n"
        "public class Subject extends Base implements Runnable {\n"
        "    int count = 0;\n"
        "    String label;\n"
        "    Subject(String label) { this.label = label; }\n"
        "    public void run() {\n"
        "        for (int i = 0; i < count; i++) { tick(i); }\n"
        "        if (label == null) { throw new IllegalStateException(); }\n"
        "    }\n"
        "    enum Kind { A, B }\n"
        "}\n"
    )
    rng = random.Random(31)
    for _ in range(400):
        chars = list(base)
        for _ in range(rng.randint(1, 6)):
            op = rng.choice(("delete", "duplicate", "swap", "insert"))
            pos = rng.randrange(len(chars))
            if op == "delete":
                del chars[pos]
            elif op == "duplicate":
                chars.insert(pos, chars[pos])
            elif op == "swap" and len(chars) > pos + 1:
                chars[pos], chars[pos + 1] = chars[pos + 1], chars[pos]
            else:
                chars.insert(pos, rng.choice("{}();\"/*@<>=.,x "))
        mutated = "".join(chars)
        try:
            parse_java(mutated)
        except ParseError:
            pass
