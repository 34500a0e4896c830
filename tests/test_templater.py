"""Template rendering: wordings, budget truncation, grammar, determinism."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condenser.changeset import ChangeType, diff_facts
from condenser.comments import elicit_annotations, elicit_comments
from condenser.config import PipelineConfig
from condenser.corpus import condense_commit, load_corpus
from condenser.diffing import CommitInput, FilePair
from condenser.identifiers import IdentifierFilter, apply_filter, extract_identifiers
from condenser.javafacts import parse_java
from condenser.templater import (
    TEMPLATES,
    BudgetError,
    count_tokens,
    render,
    template_to_dict,
)
import workloads
from grammar import check_template
from oracles import count_tokens_oracle, render_oracle


def render_single_file(old_src: str, new_src: str, repo="r", commit_hash="h", budget=1024, path="F.java"):
    old = parse_java(old_src) if old_src.strip() else None
    new = parse_java(new_src) if new_src.strip() else None
    from condenser.javafacts import SourceFacts

    old_f = old or SourceFacts.empty()
    new_f = new or SourceFacts.empty()
    diff = diff_facts(old_f, new_f, path, path)
    from condenser.changeset import classify_change_explained

    change_type, _rule = classify_change_explained(diff, [new_f])
    comments = elicit_comments(old_f, new_f, diff)
    annotations = elicit_annotations(diff.files[0])
    identifiers = apply_filter(
        extract_identifiers(diff),
        IdentifierFilter(stoplist=PipelineConfig().stoplist),
    )
    commit = CommitInput(repo, commit_hash, (FilePair(path, path, old_src, new_src),))
    return render(commit, diff, change_type, comments, annotations, identifiers, budget=budget)


# --- count_tokens ---------------------------------------------------------------


def test_count_tokens_empty():
    assert count_tokens("") == 0


def test_count_tokens_whitespace_rule():
    assert count_tokens("add method") == 2


def test_count_tokens_punctuation_counts_alone():
    assert count_tokens("stop() now!") == 5  # stop ( ) now !


def test_count_tokens_matches_alternate_splitter_on_300_words():
    words = []
    for i in range(300):
        words.append(f"word{i}" if i % 7 else f"mark{i};")
    text = " ".join(words)
    assert count_tokens(text) == count_tokens_oracle(text)


# --- golden wordings ---------------------------------------------------------------

# The canonical sub-template wordings, frozen. data/templates.txt is the
# runtime source; this golden copy pins every line against accidental edits.
GOLDEN_TEMPLATES = {
    "header": "Repository: {repo} Change type: {label} {ty} ChangeScribeStart",
    "header_blank_type": "Repository: {repo} Change type: {ty} ChangeScribeStart",
    "end_marker": "End change part",
    "package_line": "Changes to {package}",
    "file_modified": "change in {file}",
    "file_added": "change adding file {file}",
    "file_deleted": "change removing file {file}",
    "file_renamed": "change renaming {old_file} to {file}",
    "file_skipped": "change in {file} (not summarized)",
    "fallback_other_change": "Other changes in {file}",
    "class_context": "Change in {cls}",
    "class_added": "Add a class {cls}",
    "class_removed": "Remove a class {cls}",
    "class_renamed": "Rename class {old_cls} to {cls}",
    "import_added": "Add import {name}",
    "import_removed": "Remove import {name}",
    "field_added": "Add a field {field} of type {type}",
    "field_removed": "Remove a field {field} of type {type}",
    "field_retyped": "Change type of field {field} from {old_type} to {new_type}",
    "supertype_added_extends": "Make {cls} extend {type}",
    "supertype_removed_extends": "Make {cls} no longer extend {type}",
    "supertype_added_implements": "Make {cls} implement {type}",
    "supertype_removed_implements": "Make {cls} no longer implement {type}",
    "class_annotation_added": "Add annotation @{name} to {target}",
    "class_annotation_removed": "Remove annotation @{name} from {target}",
    "method_added": "Add a method {method} with return type {type}",
    "method_added_params": "Add a method {method} with return type {type} taking {params}",
    "constructor_added": "Add a constructor {method}",
    "constructor_added_params": "Add a constructor {method} taking {params}",
    "method_removed": "Remove a method {method} with return type {type}",
    "method_removed_params": "Remove a method {method} with return type {type} taking {params}",
    "constructor_removed": "Remove a constructor {method}",
    "constructor_removed_params": "Remove a constructor {method} taking {params}",
    "param_retyped": "In method {method}, change parameter {name} from type {old_type} to {new_type}",
    "return_retyped": "In method {method}, change return type from {old_type} to {new_type}",
    "modifier_added": "Make method {method} {modifier}",
    "modifier_removed": "Make method {method} not {modifier}",
    "stmt_added": "In method {method}, add a {kind} statement {text}",
    "stmt_removed": "In method {method}, remove a {kind} statement {text}",
    "stmt_modified": "In method {method}, modify a {kind} statement {old_text} to {new_text}",
    "stmt_moved": "In method {method}, move a {kind} statement {text}",
    "exception_added": "Method {method} now throws {type}",
    "exception_removed": "Method {method} no longer throws {type}",
    "method_annotation_added": "Add annotation @{name} to method {method}",
    "method_annotation_removed": "Remove annotation @{name} from method {method}",
    "comments_header": "Comments:",
    "comment_added": "Added {category} comment: {text}",
    "comment_removed": "Removed {category} comment: {text}",
    "comment_context": "Context {category} comment: {text}",
    "annotation_added": "Added annotation @{name} on {target}",
    "annotation_removed": "Removed annotation @{name} on {target}",
    "identifiers_header": "Identifiers:",
    "identifier_line": "{category}: {items}",
}


def test_shipped_templates_match_golden():
    assert TEMPLATES == GOLDEN_TEMPLATES


# --- rendering ----------------------------------------------------------------------


def test_added_void_method_line_and_no_class_context():
    template = render_single_file(
        "public class Runner { void start() { go(); } }",
        "public class Runner { void start() { go(); } public void stop() { } }",
    )
    lines = template.full_text.split("\n")
    assert "Add a method stop with return type void" in lines
    assert not any(line.startswith("Change in ") for line in lines)  # single class file


def test_multi_class_file_gets_class_context_lines():
    template = render_single_file(
        "class A { int x; }\nclass B { int y; }",
        "class A { int x; int z; }\nclass B { int y; int w; }",
    )
    lines = template.full_text.split("\n")
    assert "Change in A" in lines
    assert "Change in B" in lines


def test_unknown_type_header_leaves_label_blank():
    template = render_single_file(
        "class Quiet { int x; }",
        "// note\nclass Quiet { int x; }",
    )
    assert template.header == "Repository: r Change type: Ty11 ChangeScribeStart"
    assert "Unknown" not in template.header


def test_header_carries_repo_type_and_marker():
    template = render_single_file(
        "class C { int f() { return 1; } }",
        "class C { int f() { return 2; } }",
        repo="acme/widgets",
    )
    assert template.header.startswith("Repository: acme/widgets ")
    assert "Ty10" in template.header
    assert template.header.endswith("ChangeScribeStart")


def test_summary_ends_with_end_marker():
    template = render_single_file(
        "class C { int x; }",
        "class C { long x; }",
    )
    assert template.summarized_changes.endswith("End change part")


def test_full_text_is_section_concatenation():
    template = render_single_file(
        "class C { void f() { a(); } }",
        "class C { void f() { b(); } void g() { } }",
    )
    parts = [template.header, template.summarized_changes]
    if template.comments_section:
        parts.append(template.comments_section)
    if template.identifiers_section:
        parts.append(template.identifiers_section)
    assert template.full_text == "\n".join(parts)


def test_listener_case_mentions_file_and_new_class():
    old = """package t;
public class ElasticsearchLuceneTestCase {
    void setupSuite() { init(); }
}
"""
    new = """package t;
public class ElasticsearchLuceneTestCase {
    void setupSuite() { init(); listeners.add(new LoggingListener()); }
    static class LoggingListener {
        void testStarted(String name) { log.info(name); }
    }
}
"""
    template = render_single_file(old, new, path="ElasticsearchLuceneTestCase.java")
    assert "ElasticsearchLuceneTestCase" in template.full_text
    assert "LoggingListener" in template.full_text
    assert "Add a class LoggingListener" in template.full_text.split("\n")


def test_visibility_change_uses_make_phrasing():
    template = render_single_file(
        "class W { public void drain() { tick(); } }",
        "class W { private void drain() { tick(); } }",
    )
    lines = template.full_text.split("\n")
    assert "Make method drain private" in lines
    assert "Make method drain not public" in lines


def test_class_annotation_change_renders_once():
    template = render_single_file(
        "class A { int x; void f() { x = 1; } }",
        "@Deprecated class A { int x; void f() { x = 1; } }",
    )
    assert "Add annotation @Deprecated to class A" in template.summarized_changes.split("\n")
    assert "Deprecated" not in template.comments_section


def test_field_annotation_change_renders_once():
    template = render_single_file(
        "class A { @Deprecated @Nullable int x; void f() { x = 1; } }",
        "class A { @Nullable int x; void f() { x = 1; } }",
    )
    assert "Remove annotation @Deprecated from field A.x" in template.summarized_changes.split("\n")
    assert "Deprecated" not in template.comments_section


def test_renamed_annotated_class_renders_only_the_rename():
    template = render_single_file(
        "@Deprecated class A { int x; void m() { } }",
        "@Deprecated class B { int x; void m() { } }",
    )
    assert "Rename class A to B" in template.summarized_changes.split("\n")
    assert template.comments_section == ""


def test_renamed_class_keeps_method_annotations_silent():
    body = 'int x; void m() { } @Override public String toString() { return "a"; }'
    template = render_single_file(
        f"@Deprecated class A {{ {body} }}",
        f"@Deprecated class B {{ {body} }}",
    )
    assert "Rename class A to B" in template.summarized_changes.split("\n")
    assert template.comments_section == ""


def test_added_overload_annotation_survives_inline_change_of_its_namesake():
    template = render_single_file(
        "class A { void m(int a) { a(); } }",
        "class A { void m(int a) { b(); } @Deprecated void m(String s) { } }",
    )
    assert "Added annotation @Deprecated on method A.m" in template.comments_section.split("\n")


def test_renamed_file_line():
    old = parse_java("class S { int t() { return 1; } }")
    new = parse_java("class S { int t() { return 2; } }")
    diff = diff_facts(old, new, "Old.java", "New.java")
    assert (diff.files[0].status, diff.files[0].path_old) == ("renamed", "Old.java")
    commit = CommitInput("r", "h", (FilePair("Old.java", "New.java", "x", "y"),))
    template = render(commit, diff, ChangeType.of("Ty10"), [], [], [])
    assert "change renaming Old.java to New.java" in template.full_text.split("\n")


def test_non_java_files_listed_as_skipped():
    commit = CommitInput("r", "h", (FilePair("README.md", "README.md", "a", "b"),))
    result = condense_commit(commit)
    assert "change in README.md (not summarized)" in result.template.full_text.split("\n")
    assert result.template.summarized_changes.endswith("End change part")


def test_template_to_dict_round_trip_fields():
    template = render_single_file("class C { int x; }", "class C { long x; }")
    payload = template_to_dict(template, ChangeType.of("Ty11"), rule="unclassified")
    assert payload["full_text"] == template.full_text
    assert payload["change_type"] == "Ty11"
    assert payload["rule"] == "unclassified"
    assert payload["token_count"] == template.token_count


# --- budget and truncation ------------------------------------------------------------


HUB_DOC = (
    "/** this documentation block definitely clears the twenty token threshold"
    " because it keeps rambling about responsibilities and guarantees for a"
    " while longer */"
)

BIG_OLD = f"""package big;

{HUB_DOC}
class Hub {{
    int a;
    void keepOne() {{ a = 1; }}
    void keepTwo() {{ a = 2; }}
}}
"""

BIG_NEW = f"""package big;

import java.util.List;

{HUB_DOC}
class Hub extends Base {{
    int a;
    long total;
    Service service;

    void keepOne() {{
        // drains in batches
        a = 11;
        log.trace("one");
        unusualConstructHere: ;
    }}

    void keepTwo() {{
        a = 22;
        service.poke();
    }}

    // todo tighten the retry budget
    int drain(RetryBudget batch) {{
        return batch.size();
    }}

    void fanOut() {{ }}
}}
"""


def _render_big(budget: int):
    return render_single_file(BIG_OLD, BIG_NEW, budget=budget)


def test_budget_below_64_rejected():
    with pytest.raises(BudgetError):
        _render_big(32)


def test_header_alone_over_budget_raises():
    long_repo = ".".join(f"seg{i}" for i in range(40))  # dots count as tokens
    with pytest.raises(BudgetError):
        render_single_file(
            "class C { int x; }", "class C { long x; }", repo=long_repo, budget=64
        )


def test_token_count_within_budget_for_all_budgets():
    for budget in (64, 80, 100, 150, 300, 1024):
        template = _render_big(budget)
        assert template.token_count <= budget
        assert count_tokens(template.full_text) == template.token_count


@pytest.fixture(scope="module")
def fixture_results(corpus_path):
    return [(s.commit_input(), condense_commit(s.commit_input())) for s in load_corpus(corpus_path)]


@settings(max_examples=40, deadline=None)
@given(budget=st.integers(64, 2048))
def test_render_fits_any_budget_or_raises(fixture_results, budget):
    for commit, r in fixture_results:
        try:
            template = render(
                commit, r.diff, r.change_type, list(r.comments), list(r.annotations), list(r.identifiers),
                budget=budget,
            )
        except BudgetError:
            continue
        assert template.token_count <= budget
        assert count_tokens(template.full_text) == template.token_count


def test_truncation_never_drops_protected_lines():
    tight = _render_big(64)
    lines = tight.full_text.split("\n")
    assert lines[0].endswith("ChangeScribeStart")
    assert "End change part" in lines
    # method add lines survive even under the tightest legal budget
    assert any(line.startswith("Add a method drain") for line in lines)


def test_truncation_monotone_across_budgets():
    budgets = [64, 80, 100, 150, 300, 1024]
    renderings = [set(_render_big(b).full_text.split("\n")) for b in budgets]
    for smaller, larger in zip(renderings, renderings[1:]):
        assert smaller <= larger
    # and surviving lines keep their relative order
    for b_small, b_large in zip(budgets, budgets[1:]):
        small_lines = _render_big(b_small).full_text.split("\n")
        large_lines = _render_big(b_large).full_text.split("\n")
        it = iter(large_lines)
        assert all(line in it for line in small_lines)


def test_fallback_statement_lines_drop_first():
    full = _render_big(1024).full_text.split("\n")
    other_lines = [l for l in full if " a other statement " in l]
    assert other_lines, "fixture must produce a kind-other statement line"
    # any budget that forces one drop removes the kind-other line first
    for budget in range(64, 1025):
        lines = _render_big(budget).full_text.split("\n")
        if len(lines) == len(full):
            continue
        assert all(l not in lines for l in other_lines)
        break


def _drop_class_of(line: str) -> int | None:
    if " a other statement " in line or line.startswith("Other changes in"):
        return 1
    if line.startswith("Context "):
        return 2
    if line.startswith(("TypeName:", "Other:")):
        return 3
    if line.startswith(("Added general comment:", "Removed general comment:")):
        return 4
    if (
        line.startswith(("In method ", "Make method "))
        or " now throws " in line
        or " no longer throws " in line
    ):
        return 5
    return None


def test_truncation_drop_order_across_classes():
    """Lines drop class by class: a dropped class-k line implies every line
    of all lower classes is already gone."""
    full_lines = _render_big(1024).full_text.split("\n")
    by_class: dict[int, list[str]] = {}
    for line in full_lines:
        klass = _drop_class_of(line)
        if klass is not None:
            by_class.setdefault(klass, []).append(line)
    # the fixture exercises all five drop classes
    assert set(by_class) == {1, 2, 3, 4, 5}, sorted(by_class)

    for budget in range(64, 1025, 7):
        lines = set(_render_big(budget).full_text.split("\n"))
        dropped_classes = {
            k for k, klines in by_class.items() if any(l not in lines for l in klines)
        }
        for k in dropped_classes:
            for j in range(1, k):
                assert all(l not in lines for l in by_class[j]), (
                    f"budget {budget}: class {k} dropped while class {j} lines remain"
                )


def test_rendering_is_deterministic():
    a = _render_big(200)
    b = _render_big(200)
    assert a.full_text == b.full_text


# --- grammar across the fixture corpus ---------------------------------------------


def test_big_fixture_passes_grammar():
    template = _render_big(1024)
    assert check_template(template.full_text) == []


def test_tight_budgets_still_pass_grammar():
    for budget in (64, 96, 128):
        template = _render_big(budget)
        assert check_template(template.full_text) == [], template.full_text


def test_corpus_templates_pass_grammar(corpus_path):
    samples = load_corpus(corpus_path)
    cfg = PipelineConfig()
    for sample in samples:
        result = condense_commit(sample.commit_input(), cfg)
        problems = check_template(result.template.full_text)
        assert problems == [], f"{sample.repo}@{sample.hash}: {problems}\n{result.template.full_text}"


# --- one-pass renderer against the two-pass original -------------------------------

ORACLE_BUDGETS = (64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096)


def _render_or_error(render_fn, commit, r, budget):
    try:
        return render_fn(
            commit, r.diff, r.change_type, list(r.comments), list(r.annotations), list(r.identifiers), budget=budget
        )
    except BudgetError as exc:
        return f"BudgetError: {exc}"


def test_render_matches_two_pass_oracle(corpus_path, tmp_path):
    samples = load_corpus(corpus_path)
    for seed in (1, 2, 3):
        for workload in ("corpus-typical", "rewrite-heavy"):
            out = tmp_path / f"{workload}-{seed}"
            workloads.build(workload, seed, "full", out)
            samples += load_corpus(out / "corpus.jsonl")
    cases = truncated = 0
    for sample in samples:
        commit = sample.commit_input()
        r = condense_commit(commit)
        whole = render_oracle(
            commit, r.diff, r.change_type, list(r.comments), list(r.annotations), list(r.identifiers), budget=10**9
        )
        for budget in ORACLE_BUDGETS:
            expected = _render_or_error(render_oracle, commit, r, budget)
            assert _render_or_error(render, commit, r, budget) == expected, (sample.repo, sample.hash, budget)
            cases += 1
            truncated += expected != whole
    assert cases == 152 * len(ORACLE_BUDGETS)
    assert truncated > 500
