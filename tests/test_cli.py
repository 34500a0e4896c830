"""CLI behavior: exit codes, stdout purity, flags, config files."""

from __future__ import annotations

import ast
import importlib
import json
import pkgutil
import re
import runpy
import shlex
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import condenser
from condenser.cli import _build_parser, _parse_args, _resolve_config, main
from condenser.config import ConfigError, PipelineConfig, load_config, load_stoplist
from grammar import check_template


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def tree_pair(tmp_path) -> tuple[Path, Path]:
    old_dir = tmp_path / "old"
    new_dir = tmp_path / "new"
    (old_dir / "src").mkdir(parents=True)
    (new_dir / "src").mkdir(parents=True)
    (old_dir / "src" / "Runner.java").write_text(
        "public class Runner { void start() { go(); } }\n", encoding="utf-8"
    )
    (new_dir / "src" / "Runner.java").write_text(
        "public class Runner { void start() { go(); } public void stop() { } }\n",
        encoding="utf-8",
    )
    return old_dir, new_dir


def test_condense_dirs_to_stdout(capsys, tree_pair):
    old_dir, new_dir = tree_pair
    code, out, err = run_cli(
        capsys, "condense", "--old-dir", str(old_dir), "--new-dir", str(new_dir),
        "--repo", "acme/tools", "--hash", "beefcafe1234",
    )
    assert code == 0
    assert "Add a method stop with return type void" in out
    assert out.split("\n")[0].startswith("Repository: acme/tools ")
    assert check_template(out.rstrip("\n")) == []


def test_condense_stdout_purity(capsys, tree_pair):
    old_dir, new_dir = tree_pair
    code, out, err = run_cli(
        capsys, "--verbose", "condense", "--old-dir", str(old_dir), "--new-dir", str(new_dir),
        "--repo", "r", "--hash", "h",
    )
    assert code == 0
    # stdout holds only the rendered template; anything chatty goes to stderr
    assert check_template(out.rstrip("\n")) == []


def test_condense_json_format(capsys, tree_pair):
    old_dir, new_dir = tree_pair
    code, out, _ = run_cli(
        capsys, "condense", "--old-dir", str(old_dir), "--new-dir", str(new_dir),
        "--repo", "r", "--hash", "h", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["change_type"] == "Ty9"  # empty body addition
    assert payload["full_text"].split("\n")[0].endswith("ChangeScribeStart")
    assert payload["token_count"] <= 1024


def test_condense_explain_type_goes_to_stderr(capsys, tree_pair):
    old_dir, new_dir = tree_pair
    code, out, err = run_cli(
        capsys, "condense", "--old-dir", str(old_dir), "--new-dir", str(new_dir),
        "--repo", "r", "--hash", "h", "--explain-type",
    )
    assert code == 0
    assert "rule" in err and "Ty9" in err
    assert "rule" not in out


def test_condense_from_diff_and_snapshots(capsys, tmp_path, tree_pair):
    old_dir, new_dir = tree_pair
    diff_text = (
        "diff --git a/src/Runner.java b/src/Runner.java\n"
        "--- a/src/Runner.java\n"
        "+++ b/src/Runner.java\n"
        "@@ -1,1 +1,1 @@\n"
        "-public class Runner { void start() { go(); } }\n"
        "+public class Runner { void start() { go(); } public void stop() { } }\n"
    )
    diff_file = tmp_path / "change.diff"
    diff_file.write_text(diff_text, encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "condense", "--diff", str(diff_file),
        "--old-dir", str(old_dir), "--new-dir", str(new_dir),
        "--repo", "r", "--hash", "h",
    )
    assert code == 0
    assert "Add a method stop with return type void" in out


def test_condense_reads_every_section_of_a_recursive_diff_u(capsys, tmp_path):
    old_dir, new_dir = tmp_path / "a", tmp_path / "b"
    old_dir.mkdir()
    new_dir.mkdir()
    for name in ("A", "B"):
        (old_dir / f"{name}.java").write_text(f"class {name} {{ }}\n", encoding="utf-8")
        (new_dir / f"{name}.java").write_text(f"class {name} {{ void run{name}() {{ }} }}\n", encoding="utf-8")
    # `diff -ruN a b` output: no `diff --git` line between the sections
    diff_text = "".join(
        f"diff -ruN a/{name}.java b/{name}.java\n"
        f"--- a/{name}.java\t2024-01-01 00:00:00.000000000 +0000\n"
        f"+++ b/{name}.java\t2024-01-02 00:00:00.000000000 +0000\n"
        "@@ -1 +1 @@\n"
        f"-class {name} {{ }}\n"
        f"+class {name} {{ void run{name}() {{ }} }}\n"
        for name in ("A", "B")
    )
    diff_file = tmp_path / "change.diff"
    diff_file.write_text(diff_text, encoding="utf-8")
    code, out, err = run_cli(
        capsys, "condense", "--diff", str(diff_file),
        "--old-dir", str(old_dir), "--new-dir", str(new_dir),
        "--repo", "r", "--hash", "h",
    )
    assert (code, err) == (0, "")
    assert "change in A.java" in out and "change in B.java" in out
    assert "runA" in out and "runB" in out


def test_condense_reads_files_that_diff_ruN_adds_and_deletes(capsys, tmp_path):
    old_dir, new_dir = tmp_path / "a", tmp_path / "b"
    old_dir.mkdir()
    new_dir.mkdir()
    (old_dir / "D.java").write_text("class D { void gone() { } }\n", encoding="utf-8")
    (new_dir / "N.java").write_text("class N { void fresh() { } }\n", encoding="utf-8")
    # what `diff -ruN a b` prints: the absent side keeps its path, dated at the epoch
    diff_text = (
        "diff -ruN a/D.java b/D.java\n"
        "--- a/D.java\t2024-01-01 00:00:00.000000000 +0000\n"
        "+++ b/D.java\t1970-01-01 00:00:00.000000000 +0000\n"
        "@@ -1 +0,0 @@\n"
        "-class D { void gone() { } }\n"
        "diff -ruN a/N.java b/N.java\n"
        "--- a/N.java\t1970-01-01 00:00:00.000000000 +0000\n"
        "+++ b/N.java\t2024-01-02 00:00:00.000000000 +0000\n"
        "@@ -0,0 +1 @@\n"
        "+class N { void fresh() { } }\n"
    )
    diff_file = tmp_path / "change.diff"
    diff_file.write_text(diff_text, encoding="utf-8")
    code, out, err = run_cli(
        capsys, "condense", "--diff", str(diff_file),
        "--old-dir", str(old_dir), "--new-dir", str(new_dir),
        "--repo", "r", "--hash", "h",
    )
    assert (code, err) == (0, "")
    assert "change adding file N.java" in out and "change removing file D.java" in out, out


def _write_trees(tmp_path: Path, old_files: dict[str, str], new_files: dict[str, str]) -> tuple[Path, Path]:
    old_dir, new_dir = tmp_path / "old", tmp_path / "new"
    for root, files in ((old_dir, old_files), (new_dir, new_files)):
        root.mkdir()
        for name, text in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text, encoding="utf-8")
    return old_dir, new_dir


_CALL_TREES = {
    "stale": ("class A {\n  void m() {\n    p();\n  }\n}\n", "class A {\n  void m() {\n    q();\n  }\n}\n"),
    "no-newline": ("class A {\n  void m() {\n    p(); } }", "class A {\n  void m() {\n    q(); } }"),
}


def _condense_diff(capsys, tmp_path, trees: str, diff_text: str) -> tuple[int, str, str]:
    old_dir, new_dir = _write_trees(tmp_path, {"A.java": _CALL_TREES[trees][0]}, {"A.java": _CALL_TREES[trees][1]})
    diff_file = tmp_path / "change.diff"
    diff_file.write_text(f"--- a/A.java\n+++ b/A.java\n{diff_text}", encoding="utf-8")
    return run_cli(
        capsys, "condense", "--diff", str(diff_file), "--old-dir", str(old_dir), "--new-dir", str(new_dir),
        "--repo", "r", "--hash", "h",
    )


@pytest.mark.parametrize("diff_text", [
    "@@ -3 +3 @@\n-    x();\n+    y();\n",  # the trees hold p() -> q()
    "@@ -2,2 +2,2 @@\n   void m() {\n-    p();\n+    r();\n",
    "@@ -2,2 +2,2 @@\n   void n() {\n-    p();\n+    q();\n",
], ids=["both-sides", "new-side", "context"])
def test_a_diff_whose_hunk_does_not_match_the_trees_exits_2(capsys, tmp_path, diff_text):
    code, out, err = _condense_diff(capsys, tmp_path, "stale", diff_text)
    assert (code, out) == (2, "")
    header = diff_text.split("\n")[0].replace(" -3 +3 ", " -3,1 +3,1 ")
    assert err.splitlines() == [f"error: A.java: hunk {header} does not match the snapshot"]


def test_a_diff_whose_last_line_has_no_newline_matches_the_trees(capsys, tmp_path):
    diff_text = (
        "@@ -3 +3 @@\n-    p(); } }\n\\ No newline at end of file\n+    q(); } }\n\\ No newline at end of file\n"
    )
    code, out, err = _condense_diff(capsys, tmp_path, "no-newline", diff_text)
    assert (code, err) == (0, "")
    assert "modify a invocation statement p(); to q();" in out, out


def test_condense_renders_a_class_and_method_header_change(capsys, tmp_path):
    old_dir, new_dir = _write_trees(
        tmp_path,
        {"A.java": "package p;\nclass A extends Base implements Runnable { @Deprecated int m() throws java.io.IOException"
                   " { return 1; } public void run() { } }\n"},
        {"A.java": "package p;\nclass A { long m() { return 1; } public void run() { } }\n"},
    )
    code, out, err = run_cli(
        capsys, "condense", "--old-dir", str(old_dir), "--new-dir", str(new_dir), "--repo", "r", "--hash", "h"
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[lines.index("change in A.java") + 1 : lines.index("End change part")] == [
        "Make A no longer extend Base",
        "Make A no longer implement Runnable",
        "In method m, change return type from int to long",
        "Method m no longer throws java.io.IOException",
        "Remove annotation @Deprecated from method m",
    ], out


def test_condense_reads_a_moved_file_as_a_rename(capsys, tmp_path):
    body = "package web;\n\nclass SessionStore {\n    int timeout() {\n        return %d;\n    }\n}\n"
    old_dir, new_dir = _write_trees(
        tmp_path, {"src/SessionHolder.java": body % 30}, {"src/SessionStore.java": body % 60}
    )
    code, out, err = run_cli(
        capsys, "condense", "--old-dir", str(old_dir), "--new-dir", str(new_dir), "--repo", "r", "--hash", "h"
    )
    assert (code, err) == (0, "")
    assert "change renaming src/SessionHolder.java to src/SessionStore.java" in out, out
    assert "In method timeout, add a return statement return 60;" in out, out
    assert "adding file" not in out and "removing file" not in out, out


def test_condense_keeps_an_unrelated_added_and_removed_file_apart(capsys, tmp_path):
    old_dir, new_dir = _write_trees(
        tmp_path, {"D.java": "class D { void gone() { } }\n"}, {"N.java": "class N { void fresh() { } }\n"}
    )
    code, out, err = run_cli(
        capsys, "condense", "--old-dir", str(old_dir), "--new-dir", str(new_dir), "--repo", "r", "--hash", "h"
    )
    assert (code, err) == (0, "")
    assert "change adding file N.java" in out and "change removing file D.java" in out, out
    assert "renaming" not in out, out


def test_condense_missing_inputs_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "condense", "--repo", "r", "--hash", "h")
    assert code == 2
    assert "error" in err.lower()
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    (["--budget", "10"], "budget must be >= 64, got 10"),
    (["--attempts", "0"], "attempts must be >= 1"),
    (["--modify-similarity", "2"], "modify_similarity must be in [0, 1]"),
    (["--config", "{tmp}/bogus.conf"], "{tmp}/bogus.conf:1: unknown config key 'bogus'"),
    (["--config", "{tmp}/unsplit.conf"], "{tmp}/unsplit.conf:1: expected key=value, got 'budget 100'"),
    (["--old-dir", "{tmp}/nowhere"], "not a directory: {tmp}/nowhere"),
    # the header fits in 64 tokens, but not with the end marker after it
    (["--repo", " ".join("a" * 54), "--budget", "64"], "cannot fit template into 64 tokens"),
], ids=["budget", "attempts", "modify-similarity", "unknown-key", "no-equals", "no-old-dir", "cannot-fit"])
def test_a_condense_input_it_cannot_use_exits_2(capsys, tmp_path, tree_pair, argv, message):
    (tmp_path / "bogus.conf").write_text("bogus = 1\n", encoding="utf-8")
    (tmp_path / "unsplit.conf").write_text("budget 100\n", encoding="utf-8")
    old_dir, new_dir = tree_pair
    code, out, err = run_cli(
        capsys, "condense", "--old-dir", str(old_dir), "--new-dir", str(new_dir), "--repo", "r", "--hash", "h",
        *(arg.format(tmp=tmp_path) for arg in argv),
    )
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {message.format(tmp=tmp_path)}"]


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["condense", "--does-not-exist"])
    assert exc.value.code == 2


def test_budget_flag_respected(capsys, tree_pair):
    old_dir, new_dir = tree_pair
    code, out, _ = run_cli(
        capsys, "condense", "--old-dir", str(old_dir), "--new-dir", str(new_dir),
        "--repo", "r", "--hash", "h", "--budget", "64", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["token_count"] <= 64


def test_config_file_and_flag_override(capsys, tmp_path, tree_pair):
    old_dir, new_dir = tree_pair
    cfg = tmp_path / "condenser.conf"
    cfg.write_text("budget = 128\n# comment line\njobs = 2\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "condense", "--old-dir", str(old_dir), "--new-dir", str(new_dir),
        "--repo", "r", "--hash", "h", "--config", str(cfg), "--budget", "96",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["token_count"] <= 96  # flag wins over file


# every command that takes --config, with its required arguments; the files
# need not exist, because only the configuration is resolved
_CONFIG_COMMANDS = {
    "condense": ["condense", "--repo", "r", "--hash", "h"],
    "corpus run": ["corpus", "run", "--corpus", "c.jsonl"],
    "corpus stats": ["corpus", "stats", "--corpus", "c.jsonl"],
    "export-sft": ["export-sft", "--corpus", "c.jsonl", "--out", "sft.jsonl"],
    "generate": ["generate", "--sft", "sft.jsonl", "--endpoint", "http://127.0.0.1:9/"],
}


def _resolved(argv: list[str]) -> PipelineConfig:
    return _resolve_config(_build_parser().parse_args(argv))


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _knob_text(f, step: int) -> str:
    """A valid value other than the default for a scalar knob, as text."""
    if f.type == "str":
        return f"{f.default}_{step}"
    return str(f.default + (step if f.type == "int" else 0.125 * step))


@pytest.mark.parametrize("command", list(_CONFIG_COMMANDS))
def test_every_knob_is_a_config_key_and_a_flag(command, tmp_path):
    base = _CONFIG_COMMANDS[command]
    conf = tmp_path / "knobs.conf"
    knobs = [f for f in fields(PipelineConfig) if f.name != "stoplist"]
    assert len(knobs) == 17
    for f in knobs:
        conf.write_text(f"{f.name} = {_knob_text(f, 1)}\n", encoding="utf-8")
        from_file = getattr(_resolved(base + ["--config", str(conf)]), f.name)
        from_flag = getattr(_resolved(base + [_flag(f.name), _knob_text(f, 1)]), f.name)
        assert from_file == from_flag != f.default, f.name
        flag_only = getattr(_resolved(base + [_flag(f.name), _knob_text(f, 2)]), f.name)
        both = getattr(_resolved(base + ["--config", str(conf), _flag(f.name), _knob_text(f, 2)]), f.name)
        assert both == flag_only != from_file, f"{f.name}: the flag must override the file"


@pytest.mark.parametrize("command", list(_CONFIG_COMMANDS))
def test_stoplist_is_a_config_key_and_a_flag(command, tmp_path):
    base = _CONFIG_COMMANDS[command]
    words = tmp_path / "words.txt"
    words.write_text("# project words\nFoo\nbar\n", encoding="utf-8")
    other = tmp_path / "other.txt"
    other.write_text("baz\n", encoding="utf-8")
    conf = tmp_path / "knobs.conf"
    conf.write_text(f"stoplist = {words}\n", encoding="utf-8")
    assert _resolved(base + ["--config", str(conf)]).stoplist == frozenset({"foo", "bar"})
    assert _resolved(base + ["--stoplist", str(words)]).stoplist == frozenset({"foo", "bar"})
    assert _resolved(base + ["--config", str(conf), "--stoplist", str(other)]).stoplist == frozenset({"baz"})


def test_config_comment_holding_a_form_feed_stays_one_line(tmp_path):
    conf = tmp_path / "knobs.conf"
    conf.write_text("budget = 100  # was 200\fbudget = 200\n", encoding="utf-8")
    assert load_config(conf).budget == 100


def test_stoplist_entry_holding_a_form_feed_is_one_bad_entry(tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("foo\fbar\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="single words"):
        load_stoplist(words)


def test_stoplist_entry_holding_a_no_break_space_exits_2(capsys, tmp_path, tree_pair):
    old_dir, new_dir = tree_pair
    words = tmp_path / "words.txt"
    words.write_text("foo\u00a0bar\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "condense", "--old-dir", str(old_dir), "--new-dir", str(new_dir),
        "--repo", "r", "--hash", "h", "--stoplist", str(words),
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "--stoplist" in err and "Traceback" not in err


@pytest.mark.parametrize("line", ["budget = abc", "temperature = hot", "stoplist ="])
def test_bad_config_value_exits_2(capsys, tmp_path, tree_pair, line):
    old_dir, new_dir = tree_pair
    conf = tmp_path / "bad.conf"
    conf.write_text(f"# knobs\n{line}\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "condense", "--old-dir", str(old_dir), "--new-dir", str(new_dir),
        "--repo", "r", "--hash", "h", "--config", str(conf),
    )
    assert code == 2
    assert out == ""
    assert f"{conf}:2:" in err and line.split()[0] in err


@pytest.mark.parametrize("argv", [
    ["generate", "--timeout", "0"],
    ["generate", "--backoff-base", "-1"],
    ["export-sft", "--target-tokens", "0"],
    ["export-sft", "--target-tokens", "-1"],
])
def test_out_of_range_knob_exits_2(capsys, tmp_path, corpus_path, argv):
    sft_path = tmp_path / "sft.jsonl"
    sft_path.write_text('{"repo": "r", "hash": "h", "prompt": "p", "target": "t"}\n', encoding="utf-8")
    inputs = {
        "generate": ["--sft", str(sft_path), "--endpoint", "http://127.0.0.1:9/", "--attempts", "2"],
        "export-sft": ["--corpus", str(corpus_path), "--out", str(tmp_path / "again.jsonl")],
    }
    code, out, err = run_cli(capsys, *argv[:1], *inputs[argv[0]], *argv[1:])
    assert code == 2
    assert out == ""
    assert argv[1].lstrip("-").replace("-", "_") in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_2(capsys, corpus_path, jobs):
    code, out, err = run_cli(capsys, "corpus", "stats", "--corpus", str(corpus_path), "--jobs", jobs)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "jobs" in err


def test_readme_configuration_table_names_every_knob():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Configuration", 1)[1].split("\n#", 1)[0]
    rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    assert {key for row in rows for key in re.findall(r"`(\w+)`", row)} == {f.name for f in fields(PipelineConfig)}


# a representative argv of every command, config flags included
_EXAMPLES = {
    "condense": ["--verbose", "condense", "--repo", "r", "--hash", "h", "--diff", "-", "--budget", "96", "--format", "json"],
    "corpus run": ["corpus", "run", "--corpus", "c.jsonl", "--config", "k.conf", "--out", "t.jsonl"],
    "corpus stats": ["corpus", "stats", "--corpus", "c.jsonl", "--stoplist", "stop.txt"],
    "export-sft": ["export-sft", "--corpus", "c.jsonl", "--out", "sft.jsonl", "--target-tokens", "64"],
    "generate": ["generate", "--sft", "sft.jsonl", "--endpoint", "http://127.0.0.1:9/", "--jobs", "4", "--temperature", "0.5"],
    "eval": ["eval", "--candidates", "c.txt", "--references", "r.txt", "--out", "scores.json"],
}


@pytest.mark.parametrize("command", list(_EXAMPLES))
def test_a_parser_built_for_one_command_parses_and_helps_like_the_full_one(command, capsys):
    argv = _EXAMPLES[command]
    full, own = _build_parser(), _build_parser(command.split()[0])
    assert own.parse_args(argv) == full.parse_args(argv) == _parse_args(argv)
    helps = []
    for parser in (own, full):
        with pytest.raises(SystemExit):
            parser.parse_args(command.split() + ["--help"])
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    assert ("--temperature" in helps[0]) == (command != "eval")


def test_every_readme_example_parses():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"```bash\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if "condenser" in words:
                examples.append(words[words.index("condenser") + 1 :])
    assert len(examples) == 7
    for argv in examples:
        assert _parse_args(argv) == _build_parser().parse_args(argv), argv


@pytest.mark.parametrize("name", ["condenser"] + [m.name for m in pkgutil.iter_modules(condenser.__path__, "condenser.")])
def test_every_exported_and_reexported_name_resolves(name):
    module = importlib.import_module(name)
    for exported in getattr(module, "__all__", ()):
        assert hasattr(module, exported), exported
    if name == "condenser":
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        imported = [
            (node.module, alias.name)
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        ]
        assert len(imported) > 30
        for source, imported_name in imported:
            assert hasattr(importlib.import_module(source), imported_name), (source, imported_name)


def test_corpus_run_jsonl(capsys, corpus_path):
    code, out, _ = run_cli(capsys, "corpus", "run", "--corpus", str(corpus_path))
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 20
    for line in lines:
        payload = json.loads(line)
        assert check_template(payload["full_text"]) == []


def test_corpus_run_text_format(capsys, corpus_path):
    code, out, _ = run_cli(capsys, "corpus", "run", "--corpus", str(corpus_path), "--format", "text")
    assert code == 0
    assert out.count("ChangeScribeStart") == 20
    assert out.count("End change part") == 20


@pytest.mark.parametrize(
    "command, out_lines",
    [(("corpus", "run"), 5), (("corpus", "stats"), 6), (("export-sft",), 5)],
    ids=["corpus-run", "corpus-stats", "export-sft"],
)
def test_bad_record_exits_1(capsys, tmp_path, bad_corpus_path, command, out_lines):
    out_path = tmp_path / "out"
    code, _, err = run_cli(capsys, *command, "--corpus", str(bad_corpus_path), "--out", str(out_path))
    assert code == 1
    assert "skipping record" in err
    # the good records still produce output
    assert len(out_path.read_text(encoding="utf-8").splitlines()) == out_lines


def test_file_entry_without_a_path_is_skipped(capsys, tmp_path):
    good = {"repo": "r", "hash": "h1", "message": "add stop", "files": [
        {"path_old": "A.java", "path_new": "A.java",
         "content_old": "class A { }\n", "content_new": "class A { void stop() { } }\n"}]}
    corpus = tmp_path / "corpus.jsonl"
    no_path = {"repo": "r", "hash": "h2", "message": "m", "files": [{}]}
    corpus.write_text(json.dumps(good) + "\n" + json.dumps(no_path) + "\n")
    code, out, err = run_cli(capsys, "corpus", "run", "--corpus", str(corpus))
    assert code == 1
    assert "skipping record: file pair needs at least one path" in err
    assert [json.loads(line)["hash"] for line in out.splitlines()] == ["h1"]
    assert "change in  (not summarized)" not in out


def test_diff_with_both_paths_dev_null_exits_2(capsys, tmp_path):
    diff_file = tmp_path / "change.diff"
    diff_file.write_text("diff --git a/A.java b/A.java\n--- /dev/null\n+++ /dev/null\n@@ -0,0 +1 @@\n+x\n")
    code, out, err = run_cli(capsys, "condense", "--diff", str(diff_file), "--repo", "r", "--hash", "h")
    assert (code, out) == (2, "")
    assert err.startswith("error: line 2: ")


@pytest.mark.parametrize(
    "diff_text",
    ["", "index 1234567..89abcde 100644\n", "Binary files a/logo.png and b/logo.png differ\n"],
    ids=["empty", "no-header", "binary-only"],
)
def test_a_diff_that_names_no_text_file_exits_2(capsys, tmp_path, tree_pair, diff_text):
    diff_file = tmp_path / "change.diff"
    diff_file.write_text(diff_text, encoding="utf-8")
    old_dir, new_dir = tree_pair
    code, out, err = run_cli(
        capsys, "condense", "--diff", str(diff_file), "--old-dir", str(old_dir), "--new-dir", str(new_dir),
        "--repo", "r", "--hash", "h",
    )
    assert (code, out) == (2, "")
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: no differing text files in the diff"
    ]


def test_corpus_run_to_file_deterministic(tmp_path, capsys, corpus_path):
    out1 = tmp_path / "run1.jsonl"
    out2 = tmp_path / "run2.jsonl"
    assert run_cli(capsys, "corpus", "run", "--corpus", str(corpus_path), "--out", str(out1))[0] == 0
    assert run_cli(capsys, "corpus", "run", "--corpus", str(corpus_path), "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_corpus_stats_table(capsys, corpus_path):
    code, out, _ = run_cli(capsys, "corpus", "stats", "--corpus", str(corpus_path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "category\toccurrences\toccurrences_after_splitting"
    assert len(lines) == 6
    assert lines[1].startswith("MethodName\t")


def test_export_sft_then_generate_against_mock(capsys, tmp_path, corpus_path):
    sft_path = tmp_path / "sft.jsonl"
    code, out, _ = run_cli(
        capsys, "export-sft", "--corpus", str(corpus_path), "--out", str(sft_path)
    )
    assert code == 0
    assert out.strip() == "20"
    records = [json.loads(l) for l in sft_path.read_text().splitlines()]
    assert all(set(r) == {"repo", "hash", "prompt", "target"} for r in records)


def test_generate_cli_against_mock_endpoint(capsys, tmp_path, corpus_path):
    import http.server
    import threading

    from test_corpus import _ScriptedHandler

    sft_path = tmp_path / "sft.jsonl"
    run_cli(capsys, "export-sft", "--corpus", str(corpus_path), "--out", str(sft_path))

    _ScriptedHandler.script = [("ok", f"msg {i}") for i in range(20)]
    _ScriptedHandler.calls = []
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    url = f"http://127.0.0.1:{server.server_address[1]}/generate"
    try:
        out_path = tmp_path / "gen.jsonl"
        code, out, _ = run_cli(
            capsys, "generate", "--sft", str(sft_path), "--endpoint", url,
            "--out", str(out_path), "--jobs", "4", "--backoff-base", "0.01",
            "--prompt-field", "input_text", "--max-new-tokens", "7",
        )
        assert code == 0
        # the endpoint settings come from the resolved PipelineConfig
        assert all(set(c["body"]) == {"input_text", "max_new_tokens", "temperature"} for c in _ScriptedHandler.calls)
        assert {c["body"]["max_new_tokens"] for c in _ScriptedHandler.calls} == {7}
        rows = [json.loads(l) for l in out_path.read_text().splitlines()]
        assert len(rows) == 20
        # output order matches the sft input order by (repo, hash)
        sft_rows = [json.loads(l) for l in sft_path.read_text().splitlines()]
        assert [(r["repo"], r["hash"]) for r in rows] == [(r["repo"], r["hash"]) for r in sft_rows]
        assert all(r["generated"].startswith("msg ") for r in rows)
        assert all(r["latency"] >= 0 for r in rows)
    finally:
        server.shutdown()


def test_generate_cli_failure_exits_1_with_partial_output(capsys, tmp_path, corpus_path):
    import http.server
    import threading

    from test_corpus import _ScriptedHandler

    sft_path = tmp_path / "sft.jsonl"
    run_cli(capsys, "export-sft", "--corpus", str(corpus_path), "--out", str(sft_path))
    # keep only two records; the second request will 404
    lines = sft_path.read_text().splitlines()[:2]
    sft_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    _ScriptedHandler.script = [("ok", "fine"), ("status", 404)]
    _ScriptedHandler.calls = []
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        out_path = tmp_path / "gen.jsonl"
        code, _, err = run_cli(
            capsys, "generate", "--sft", str(sft_path),
            "--endpoint", f"http://127.0.0.1:{server.server_address[1]}/generate",
            "--out", str(out_path), "--backoff-base", "0.01",
        )
        assert code == 1
        rows = [json.loads(l) for l in out_path.read_text().splitlines()]
        assert len(rows) == 1 and rows[0]["generated"] == "fine"
        assert "404" in err
    finally:
        server.shutdown()


@pytest.mark.parametrize(
    "line", ['{"prompt": "p"}', "not json", '["p", "t", "r", "h"]', '{"prompt": null, "target": 7, "repo": "r", "hash": "h"}']
)
def test_generate_rejects_a_malformed_sft_line_before_any_request(capsys, tmp_path, monkeypatch, line):
    sft_path = tmp_path / "sft.jsonl"
    good = json.dumps({"prompt": "p", "target": "t", "repo": "r", "hash": "h"})
    sft_path.write_text(f"{good}\n{line}\n", encoding="utf-8")
    requests = []
    monkeypatch.setattr("condenser.cli.generate_remote", lambda *args: requests.append(args))
    code, out, err = run_cli(capsys, "generate", "--sft", str(sft_path), "--endpoint", "http://127.0.0.1:9/")
    assert (code, out, requests) == (2, "", [])
    assert err.startswith(f"error: {sft_path}:2: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["eval", "--candidates", "{dir}", "--references", "{file}"],
    ["corpus", "run", "--corpus", "{dir}"],
    ["export-sft", "--corpus", "{dir}", "--out", "{tmp}/sft.jsonl"],
    ["generate", "--sft", "{sft}", "--endpoint", "notaurl"],
], ids=["eval-dir", "corpus-run-dir", "export-sft-dir", "generate-bad-url"])
def test_an_input_that_cannot_be_read_or_reached_exits_2(capsys, tmp_path, argv):
    # the bad URL fails before any connection is made
    (tmp_path / "dir").mkdir()
    (tmp_path / "file.txt").write_text("fix bug\n", encoding="utf-8")
    sft = json.dumps({"prompt": "p", "target": "t", "repo": "r", "hash": "h"})
    (tmp_path / "sft.jsonl").write_text(sft + "\n", encoding="utf-8")
    paths = {"dir": tmp_path / "dir", "file": tmp_path / "file.txt", "sft": tmp_path / "sft.jsonl", "tmp": tmp_path}
    code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_eval_reports_json(capsys, tmp_path):
    cand = tmp_path / "cand.txt"
    ref = tmp_path / "ref.txt"
    cand.write_text("add a new test\nfix bug\n", encoding="utf-8")
    ref.write_text("add a new test\nfix the bug\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "eval", "--candidates", str(cand), "--references", str(ref))
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"bleu_norm", "meteor", "rouge_l", "n"}
    assert report["n"] == 2
    assert 0 <= report["bleu_norm"] <= 100


def test_eval_warns_when_the_meteor_search_hits_its_cap(capsys, tmp_path, monkeypatch):
    cand = tmp_path / "cand.txt"
    ref = tmp_path / "ref.txt"
    # the second pair's greedy alignment (2 chunks) is above the lower bound
    # (1 chunk), so proving it takes more than one search node
    cand.write_text("add a new test\nadd a a test\n", encoding="utf-8")
    ref.write_text("add a new test\nadd a test\n", encoding="utf-8")
    argv = ("eval", "--candidates", str(cand), "--references", str(ref))
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    monkeypatch.setattr("condenser.metrics._METEOR_SEARCH_CAP", 1)
    capped_code, capped_out, capped_err = run_cli(capsys, *argv)
    assert (capped_code, capped_out) == (code, out)
    assert capped_err == "warning: METEOR search cap hit on 1 pair(s); their chunk counts are upper bounds\n"


def test_eval_misaligned_files_exit_2(capsys, tmp_path):
    cand = tmp_path / "cand.txt"
    ref = tmp_path / "ref.txt"
    cand.write_text("a\nb\n", encoding="utf-8")
    ref.write_text("a\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "eval", "--candidates", str(cand), "--references", str(ref))
    assert code == 2
    assert "error" in err


def test_eval_names_the_line_of_a_blank_reference(capsys, tmp_path):
    cand = tmp_path / "cand.txt"
    ref = tmp_path / "ref.txt"
    cand.write_text("add a new test\nfix bug\nbump\n", encoding="utf-8")
    ref.write_text("add a new test\n  \n\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "eval", "--candidates", str(cand), "--references", str(ref))
    assert (code, out, err) == (2, "", "error: line 2: reference must be non-empty\n")


def test_python_dash_m_condenser_runs_the_command_line(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["condenser", "no-such-command"])
    monkeypatch.delitem(sys.modules, "condenser.__main__", raising=False)  # as a fresh interpreter has it
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("condenser", run_name="__main__")
    assert exc.value.code == 2
    assert "invalid choice: 'no-such-command'" in capsys.readouterr().err


def test_eval_splits_lines_at_newlines_only(capsys, tmp_path):
    # a form feed, U+2028 or U+001C inside a message separates words, not messages
    files = {
        "cand.txt": "add a\ftest\nfix bug\u2028now\n",
        "ref.txt": "add a test\nfix the\x1cbug\n",
        "plain_cand.txt": "add a test\nfix bug now\n",
        "plain_ref.txt": "add a test\nfix the bug\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "eval", "--candidates", str(tmp_path / "cand.txt"),
                             "--references", str(tmp_path / "ref.txt"))
    assert (code, err) == (0, "")
    plain = run_cli(capsys, "eval", "--candidates", str(tmp_path / "plain_cand.txt"),
                    "--references", str(tmp_path / "plain_ref.txt"))
    assert plain == (0, out, "")


def test_condense_with_unparseable_file_exits_1_with_partial_output(capsys, tmp_path):
    old_dir = tmp_path / "old"
    new_dir = tmp_path / "new"
    old_dir.mkdir()
    new_dir.mkdir()
    (old_dir / "Ok.java").write_text("class Ok { int x; }\n", encoding="utf-8")
    (new_dir / "Ok.java").write_text("class Ok { long x; }\n", encoding="utf-8")
    (old_dir / "Broken.java").write_text("class Broken { }\n", encoding="utf-8")
    (new_dir / "Broken.java").write_text("class Broken { /* unterminated\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "condense", "--old-dir", str(old_dir), "--new-dir", str(new_dir),
        "--repo", "r", "--hash", "h",
    )
    assert code == 1  # partial output, per-file failure reported
    assert "Change type of field x from int to long" in out
    assert "change in Broken.java (not summarized)" in out
    assert "Broken.java" in err


def test_condense_accepts_real_git_diff_output(capsys, tmp_path):
    import shutil
    import subprocess

    if shutil.which("git") is None:
        pytest.skip("git not available")
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    env = {
        "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
        "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
        "HOME": str(tmp_path), "PATH": "/usr/bin:/bin",
    }

    def git(*args):
        subprocess.run(["git", *args], cwd=repo, env=env, check=True, capture_output=True)

    old_src = "public class Runner { void start() { go(); } }\n"
    new_src = (
        "public class Runner {\n"
        "    void start() { go(); }\n"
        "    public void stop() { halt(); }\n"
        "}\n"
    )
    git("init", "-q")
    (repo / "src" / "Runner.java").write_text(old_src, encoding="utf-8")
    git("add", ".")
    git("commit", "-qm", "base")
    old_dir = tmp_path / "old"
    (old_dir / "src").mkdir(parents=True)
    (old_dir / "src" / "Runner.java").write_text(old_src, encoding="utf-8")
    (repo / "src" / "Runner.java").write_text(new_src, encoding="utf-8")
    diff_text = subprocess.run(
        ["git", "diff"], cwd=repo, env=env, check=True, capture_output=True, text=True
    ).stdout
    new_dir = tmp_path / "new"
    (new_dir / "src").mkdir(parents=True)
    (new_dir / "src" / "Runner.java").write_text(new_src, encoding="utf-8")
    diff_file = tmp_path / "real.diff"
    diff_file.write_text(diff_text, encoding="utf-8")

    code, out, _ = run_cli(
        capsys, "condense", "--diff", str(diff_file),
        "--old-dir", str(old_dir), "--new-dir", str(new_dir),
        "--repo", "acme/tools", "--hash", "deadbeef00",
    )
    assert code == 0
    assert "Add a method stop with return type void" in out
    assert check_template(out.rstrip("\n")) == []


def test_missing_corpus_file_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "corpus", "run", "--corpus", str(tmp_path / "nope.jsonl"))
    assert code == 2
    assert "error" in err
