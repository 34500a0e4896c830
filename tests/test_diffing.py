"""Unified diff parsing and file pairing tests."""

from __future__ import annotations

import pytest

from condenser.diffing import (
    CommitInput,
    DiffFormatError,
    FilePair,
    Hunk,
    MissingSnapshot,
    apply_hunks,
    parse_unified_diff,
    reconstruct_pairs,
)
from oracles import apply_patch_oracle


SIMPLE_DIFF = """\
diff --git a/A.java b/A.java
--- a/A.java
+++ b/A.java
@@ -1,1 +1,2 @@
 class A { }
+// trailing note
"""

ADDED_DIFF = """\
diff --git a/B.java b/B.java
new file mode 100644
--- /dev/null
+++ b/B.java
@@ -0,0 +1,1 @@
+class B { }
"""

TWO_FILE_DIFF = """\
diff --git a/src/A.java b/src/A.java
--- a/src/A.java
+++ b/src/A.java
@@ -1,3 +1,3 @@
 package p;
-class A { int x; }
+class A { long x; }
 // end\fof A
diff --git a/src/B.java b/src/B.java
--- a/src/B.java
+++ b/src/B.java
@@ -2,2 +2,3 @@
 class B {
+    int y;
 }
"""


def test_hunk_header_arithmetic():
    diff = parse_unified_diff(SIMPLE_DIFF)
    hunk = diff.file_sections[0].hunks[0]
    assert (hunk.old_start, hunk.old_len, hunk.new_start, hunk.new_len) == (1, 1, 1, 2)


def test_dev_null_marks_added():
    diff = parse_unified_diff(ADDED_DIFF)
    section = diff.file_sections[0]
    assert section.path_old is None
    assert section.path_new == "B.java"
    commit = reconstruct_pairs(diff, {}, {"B.java": "class B { }\n"})
    assert commit.file_pairs[0].status == "added"


def test_two_file_diff_sections_and_counts():
    diff = parse_unified_diff(TWO_FILE_DIFF)
    assert len(diff.file_sections) == 2
    for section in diff.file_sections:
        for hunk in section.hunks:
            # independent line-counting oracle over the hunk body
            olds = sum(1 for l in hunk.lines if l[0] in " -")
            news = sum(1 for l in hunk.lines if l[0] in " +")
            assert olds == hunk.old_len
            assert news == hunk.new_len


def test_diff_u_sections_without_git_headers_are_all_kept():
    # `diff -ruN a b` (or concatenated `diff -u` runs): each section opens
    # with its `---` header and no `diff --git` line
    text = (
        "diff -ruN a/A.java b/A.java\n"
        "--- a/A.java\t2024-01-01 00:00:00\n"
        "+++ b/A.java\t2024-01-02 00:00:00\n"
        "@@ -1 +1 @@\n"
        "-class A { }\n"
        "+class A { int x; }\n"
        "--- a/B.java\n"
        "+++ b/B.java\n"
        "@@ -1,2 +1,2 @@\n"
        " class B {\n"
        "-}\n"
        "+int y; }\n"
    )
    sections = parse_unified_diff(text).file_sections
    assert [(s.path_old, s.path_new, [h.lines for h in s.hunks]) for s in sections] == [
        ("A.java", "A.java", [("-class A { }", "+class A { int x; }")]),
        ("B.java", "B.java", [(" class B {", "-}", "+int y; }")]),
    ]


def test_count_mismatch_is_diff_format_error():
    bad = "--- a/A.java\n+++ b/A.java\n@@ -1,2 +1,1 @@\n class A { }\n"
    with pytest.raises(DiffFormatError):
        parse_unified_diff(bad)


def test_malformed_hunk_header_is_error():
    bad = "--- a/A.java\n+++ b/A.java\n@@ nonsense @@\n"
    with pytest.raises(DiffFormatError):
        parse_unified_diff(bad)


def test_orphan_old_header_is_error():
    with pytest.raises(DiffFormatError):
        parse_unified_diff("--- a/A.java\nclass A { }\n")


def test_hunk_before_header_is_error():
    with pytest.raises(DiffFormatError):
        parse_unified_diff("@@ -1,1 +1,1 @@\n class A { }\n")


def test_binary_section_skipped_with_parse_surviving():
    text = SIMPLE_DIFF + "Binary files a/logo.png and b/logo.png differ\n"
    diff = parse_unified_diff(text)
    assert [s.is_binary for s in diff.file_sections] == [False, True]
    commit = reconstruct_pairs(
        diff, {"A.java": "class A { }\n"}, {"A.java": "class A { }\n// trailing note\n"}
    )
    assert len(commit.file_pairs) == 1  # binary dropped


def test_reconstruct_modified_single_file():
    diff = parse_unified_diff(SIMPLE_DIFF)
    commit = reconstruct_pairs(
        diff,
        {"A.java": "class A { }\n"},
        {"A.java": "class A { }\n// trailing note\n"},
        repo_name="r",
        commit_hash="h",
    )
    assert len(commit.file_pairs) == 1
    pair = commit.file_pairs[0]
    assert pair.status == "modified"
    assert pair.path == "A.java"


def test_reconstruct_rename_identical_content():
    text = (
        "diff --git a/B.java b/C.java\n"
        "similarity index 100%\n"
        "rename from B.java\n"
        "rename to C.java\n"
    )
    diff = parse_unified_diff(text)
    commit = reconstruct_pairs(diff, {"B.java": "class B { }\n"}, {"C.java": "class B { }\n"})
    pair = commit.file_pairs[0]
    assert pair.status == "renamed"
    assert (pair.path_old, pair.path_new) == ("B.java", "C.java")
    assert pair.content_old == pair.content_new


def test_missing_snapshot_raises():
    diff = parse_unified_diff(SIMPLE_DIFF)
    with pytest.raises(MissingSnapshot):
        reconstruct_pairs(diff, {}, {"A.java": "x"})


def test_diff_N_sections_of_added_and_deleted_files_pair_with_no_side():
    # `diff -ruN a b` writes an absent file as its real path, with an epoch
    # timestamp, over a '-0,0' or '+0,0' hunk
    text = (
        "diff -ruN a/N.java b/N.java\n"
        "--- a/N.java\t1970-01-01 00:00:00.000000000 +0000\n"
        "+++ b/N.java\t2024-01-02 00:00:00.000000000 +0000\n"
        "@@ -0,0 +1,1 @@\n"
        "+class N { }\n"
        "diff -ruN a/D.java b/D.java\n"
        "--- a/D.java\t2024-01-01 00:00:00.000000000 +0000\n"
        "+++ b/D.java\t1970-01-01 00:00:00.000000000 +0000\n"
        "@@ -1,1 +0,0 @@\n"
        "-class D { }\n"
    )
    commit = reconstruct_pairs(parse_unified_diff(text), {"D.java": "class D { }\n"}, {"N.java": "class N { }\n"})
    assert [(p.status, p.path_old, p.path_new) for p in commit.file_pairs] == [
        ("added", None, "N.java"),
        ("deleted", "D.java", None),
    ]
    assert (commit.file_pairs[0].content_new, commit.file_pairs[1].content_old) == ("class N { }\n", "class D { }\n")
    # a side that has a snapshot is read as usual
    commit = reconstruct_pairs(parse_unified_diff(text), {"N.java": "", "D.java": "class D { }\n"},
                               {"N.java": "class N { }\n", "D.java": ""})
    assert [p.status for p in commit.file_pairs] == ["modified", "modified"]


def test_patch_consistency_for_modified_pairs():
    old_contents = {
        "src/A.java": "package p;\nclass A { int x; }\n// end\fof A\n",
        "src/B.java": "// head\nclass B {\n}\n",
    }
    new_contents = {
        "src/A.java": "package p;\nclass A { long x; }\n// end\fof A\n",
        "src/B.java": "// head\nclass B {\n    int y;\n}\n",
    }
    diff = parse_unified_diff(TWO_FILE_DIFF)
    commit = reconstruct_pairs(diff, old_contents, new_contents)
    for section, pair in zip(diff.file_sections, commit.file_pairs):
        assert pair.status == "modified"
        # applying each hunk to content_old reproduces content_new
        assert apply_patch_oracle(pair.content_old, section.hunks) == pair.content_new
        assert apply_hunks(pair.content_old, section.hunks) == pair.content_new


def test_file_pair_status_follows_paths():
    assert [FilePair(*paths, None, None).status for paths in (("A", "A"), ("A", "B"), (None, "A"), ("A", None))] == [
        "modified", "renamed", "added", "deleted"
    ]
    with pytest.raises(ValueError, match="at least one path"):
        FilePair(None, None, None, None)
    with pytest.raises(ValueError):
        FilePair(None, "A.java", "x", "y")  # an added file has no old content
    with pytest.raises(ValueError):
        FilePair("A.java", None, "x", "y")  # a deleted file has no new content


def test_diff_with_both_sides_dev_null_is_rejected():
    text = "diff --git a/A.java b/A.java\n--- /dev/null\n+++ /dev/null\n@@ -0,0 +1 @@\n+x\n"
    with pytest.raises(DiffFormatError) as err:
        parse_unified_diff(text)
    assert err.value.line == 2


def test_commit_input_invariants():
    pair = FilePair("A.java", "A.java", "x", "y")
    with pytest.raises(ValueError):
        CommitInput("", "h", (pair,))
    with pytest.raises(ValueError):
        CommitInput("r", "h", ())


def test_parser_never_panics_on_malformed_text():
    import random

    rng = random.Random(8)
    fragments = [
        "--- a/X.java", "+++ b/X.java", "@@ -1,2 +1,1 @@", "@@ nonsense @@",
        " context", "-gone", "+fresh", "diff --git a/X b/X", "rename from A",
        "rename to B", "Binary files a/p and b/p differ", "\\ No newline at end of file",
        "index abc..def 100644", "random prose", "",
    ]
    for _ in range(300):
        text = "\n".join(rng.choice(fragments) for _ in range(rng.randint(0, 12)))
        try:
            parse_unified_diff(text)
        except DiffFormatError:
            pass  # the only acceptable failure mode


def test_blank_context_lines_survive():
    text = (
        "--- a/A.java\n"
        "+++ b/A.java\n"
        "@@ -1,3 +1,3 @@\n"
        " class A {\n"
        "\n"
        "-}\n"
        "+} // done\n"
    )
    diff = parse_unified_diff(text)
    hunk = diff.file_sections[0].hunks[0]
    assert hunk.old_len == 3 and hunk.new_len == 3
    assert apply_hunks("class A {\n\n}\n", (hunk,)) == "class A {\n\n} // done\n"


FORM_FEED_OLD = "class A {\n  int x;\f int y;\n  void m() { }\n}\n"
FORM_FEED_NEW = "class A {\n  int x;\f int y;\n  void m() { n(); }\n}\n"


def test_form_feed_stays_inside_its_hunk_line():
    # a form feed is whitespace inside a Java line (JLS 3.6), not a line end
    text = (
        "--- a/A.java\n"
        "+++ b/A.java\n"
        "@@ -1,4 +1,4 @@\n"
        " class A {\n"
        "   int x;\f int y;\n"
        "-  void m() { }\n"
        "+  void m() { n(); }\n"
        " }\n"
    )
    [section] = parse_unified_diff(text).file_sections
    [hunk] = section.hunks
    assert hunk.lines == (" class A {", "   int x;\f int y;", "-  void m() { }", "+  void m() { n(); }", " }")
    assert apply_hunks(FORM_FEED_OLD, section.hunks) == FORM_FEED_NEW


def test_apply_hunks_keeps_a_form_feed_inside_its_line():
    hunk = Hunk(3, 1, 3, 1, ("-  void m() { }", "+  void m() { n(); }"))
    assert apply_hunks(FORM_FEED_OLD, (hunk,)) == FORM_FEED_NEW
