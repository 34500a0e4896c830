"""The command line's contract over mutated fixture corpora and diffs.

Each example draws 1-3 records of tests/corpusdata.py, mutates them (a
character edit to either side of a Java file, a dropped or retyped JSON
field, an oversized repo name, a blank message or reference line) and runs
`corpus run --format json`, `export-sft`, `corpus stats` and `eval` in
process. Whatever the input:

- no exception escapes `main`;
- the exit code follows the README's rule: 2 when no record loads or a
  loaded record's header alone is over the budget (nothing is written), else
  1 when a record was skipped, else 0; a file that fails to parse is logged
  and does not change the exit code; `eval` exits 2 on a blank reference;
- stdout holds data only: one JSON record per loaded sample in input order,
  the export count, the statistics table, one JSON report;
- each file that fails to parse gets exactly one `repo@hash: could not
  parse ...` line on stderr.

`condense --diff` runs on one fixture commit written as a `git diff` (`a/`
and `b/` paths) over its snapshot trees, the diff cut at a line or a byte,
short of one hunk line, or empty. No exception escapes `main`, and the run
exits 0 or 1 with a template on stdout, or 2 with one `error:` line and
nothing on stdout.
"""

from __future__ import annotations

import contextlib
import copy
import difflib
import io
import json
import re
import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from condenser.cli import main
from condenser.javafacts import ParseError, parse_java
from corpusdata import COMMITS

OVERSIZED_REPO = "big/" + "a." * 600  # 1,200 budget tokens in the header alone
EDIT_ALPHABET = "{}()[];/*\"'<>@=.,a1 \n"
EDIT_TEXT = st.text(alphabet=EDIT_ALPHABET, max_size=3)
NOT_TEXT = (7, None, ["x"], {"k": "v"})
_FAILURE_LINE = re.compile(r"^WARNING: (\S+@\S+): could not parse (.+); summarized as file-level change$", re.M)
_STATS_ROW = re.compile(r"^\w+\t\d+\t\d+$")


def _edit_java(draw, record: dict) -> bool:
    """Edit 1-3 spans of one side of one Java file."""
    sides = [
        (entry, side)
        for entry in record["files"]
        if (entry["path_new"] or entry["path_old"]).endswith(".java")
        for side in ("content_old", "content_new")
        if entry[side]
    ]
    if sides:
        entry, side = draw(st.sampled_from(sides))
        text = entry[side]
        for _ in range(draw(st.integers(1, 3))):
            start = draw(st.integers(0, len(text)))
            end = draw(st.integers(start, min(len(text), start + 3)))
            text = text[:start] + draw(EDIT_TEXT) + text[end:]
        entry[side] = text
    return True


def _field(draw, record: dict) -> bool:
    """Drop or retype a record field, or retype a file entry's field."""
    if draw(st.booleans()):
        key = draw(st.sampled_from(("repo", "hash", "message", "files")))
        if draw(st.booleans()):
            del record[key]
        else:
            record[key] = draw(st.sampled_from(NOT_TEXT + ("",) if key != "files" else NOT_TEXT + ([],)))
    else:
        entry = draw(st.sampled_from(record["files"]))
        entry[draw(st.sampled_from(sorted(entry)))] = draw(st.sampled_from((7, ["x"], {"k": "v"})))
    return False


def _oversized_repo(draw, record: dict) -> bool:
    record["repo"] = OVERSIZED_REPO
    return True


def _blank_message(draw, record: dict) -> bool:
    record["message"] = draw(st.sampled_from(("", " ", "\t\n")))
    return False


# each with its chance in 10 per record, returning whether the record still
# loads; applied in this order, so that a dropped or retyped field stays so
MUTATIONS = ((_edit_java, 6), (_oversized_repo, 1), (_blank_message, 1), (_field, 2))


@st.composite
def _case(draw):
    """(records, whether each should load, JSONL text, candidates, references)."""
    originals = [COMMITS[i] for i in draw(st.lists(st.integers(0, len(COMMITS) - 1), min_size=1, max_size=3))]
    records, valid = [], []
    for original in originals:
        record = copy.deepcopy(original)
        ok = True
        for mutate, chance in MUTATIONS:
            if draw(st.integers(0, 9)) >= 10 - chance:
                ok = mutate(draw, record) and ok
        records.append(record)
        valid.append(ok)
    lines = [json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n" for record in records]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "\n")
    messages = [original["message"].split("\n")[0] for original in originals]
    blank = st.lists(st.sampled_from((False, False, False, True)), min_size=len(messages), max_size=len(messages))
    candidates = [" " if gone else m for m, gone in zip(messages, draw(blank))]
    references = [" " if gone else m for m, gone in zip(messages[1:] + messages[:1], draw(blank))]
    return records, valid, "".join(lines), candidates, references


def _loaded(records: list[dict], valid: list[bool]) -> list[dict]:
    """The records that load: valid ones, the first of each (repo, hash)."""
    seen: set[tuple[str, str]] = set()
    loaded = []
    for record, ok in zip(records, valid):
        if ok and (record["repo"], record["hash"]) not in seen:
            seen.add((record["repo"], record["hash"]))
            loaded.append(record)
    return loaded


def _parses(source: str | None) -> bool:
    if source:
        try:
            parse_java(source)
        except ParseError:
            return False
    return True


def _parse_failures(loaded: list[dict]) -> Counter:
    return Counter(
        (f"{record['repo']}@{record['hash']}", entry["path_new"] or entry["path_old"])
        for record in loaded
        for entry in record["files"]
        if (entry["path_new"] or entry["path_old"]).endswith(".java")
        and not (_parses(entry["content_old"]) and _parses(entry["content_new"]))
    )


def _run(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _assert_corpus_contract(code: int, out: str, err: str, expected_code: int, failures: Counter) -> None:
    logged = Counter(_FAILURE_LINE.findall(err))
    assert set(logged) <= set(failures) and all(n == 1 for n in logged.values()), (logged, failures)
    assert code == expected_code, err
    if code == 2:
        assert out == ""
        assert err.splitlines()[-1].startswith("error: ")
    else:
        assert logged == failures, err


@settings(max_examples=100, deadline=None)
@given(_case())
def test_corpus_commands_keep_the_contract_on_mutated_corpora(case):
    records, valid, jsonl, candidates, references = case
    loaded = _loaded(records, valid)
    failures = _parse_failures(loaded)
    if not loaded or any(record["repo"] == OVERSIZED_REPO for record in loaded):
        expected = 2
    else:
        expected = 1 if len(loaded) < len(records) else 0
    keys = [[record["repo"], record["hash"]] for record in loaded]
    with tempfile.TemporaryDirectory() as tmp:
        corpus, sft = Path(tmp) / "corpus.jsonl", Path(tmp) / "sft.jsonl"
        corpus.write_text(jsonl, encoding="utf-8")

        code, out, err = _run("corpus", "run", "--corpus", str(corpus), "--format", "json")
        _assert_corpus_contract(code, out, err, expected, failures)
        if code != 2:
            assert [[r["repo"], r["hash"]] for r in map(json.loads, out.splitlines())] == keys

        code, out, err = _run("export-sft", "--corpus", str(corpus), "--out", str(sft))
        _assert_corpus_contract(code, out, err, expected, failures)
        if code == 2:
            assert not sft.exists()
        else:
            assert out == f"{len(loaded)}\n"
            written = sft.read_text(encoding="utf-8").splitlines()
            assert [[r["repo"], r["hash"]] for r in map(json.loads, written)] == keys

        code, out, err = _run("corpus", "stats", "--corpus", str(corpus))
        _assert_corpus_contract(code, out, err, expected, failures)
        if code != 2:
            header, *rows = out.splitlines()
            assert header == "category\toccurrences\toccurrences_after_splitting"
            assert rows and all(_STATS_ROW.match(row) for row in rows), rows

        cand, ref = Path(tmp) / "cand.txt", Path(tmp) / "ref.txt"
        cand.write_text("".join(line + "\n" for line in candidates), encoding="utf-8")
        ref.write_text("".join(line + "\n" for line in references), encoding="utf-8")
        code, out, err = _run("eval", "--candidates", str(cand), "--references", str(ref))
        if any(not line.strip() for line in references):
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1, err
        else:
            assert code == 0, err
            assert json.loads(out)["n"] == len(references)
            assert out.count("\n") == 1


def _git_diff(record: dict) -> str:
    """A record's files as `git diff` output: a section per differing file,
    with `a/` and `b/` paths and /dev/null for an absent side."""
    chunks = []
    for entry in record["files"]:
        path_old, path_new = entry["path_old"], entry["path_new"]
        lines = list(difflib.unified_diff(
            (entry["content_old"] or "").splitlines(keepends=True),
            (entry["content_new"] or "").splitlines(keepends=True),
            f"a/{path_old}" if path_old else "/dev/null",
            f"b/{path_new}" if path_new else "/dev/null",
        ))
        if lines:
            chunks.append(f"diff --git a/{path_old or path_new} b/{path_new or path_old}\n")
            chunks += (line if line.endswith("\n") else line + "\n\\ No newline at end of file\n" for line in lines)
    return "".join(chunks)


@st.composite
def _diff_case(draw):
    """(fixture record, diff bytes): the record's diff cut at a line or a
    byte, short of one hunk line, or empty."""
    record = draw(st.sampled_from(COMMITS))
    lines = _git_diff(record).splitlines(keepends=True)
    how = draw(st.sampled_from(("line", "byte", "drop", "empty")))
    if how == "line":
        lines = lines[: draw(st.integers(0, len(lines)))]
    elif how == "drop":
        body = [i for i, line in enumerate(lines) if line[0] in " -+" and not line.startswith(("--- ", "+++ "))]
        del lines[draw(st.sampled_from(body))]
    elif how == "empty":
        lines = []
    diff = "".join(lines).encode("utf-8")
    if how == "byte":
        diff = diff[: draw(st.integers(0, len(diff)))]
    return record, diff


@settings(max_examples=50, deadline=None)
@given(_diff_case())
def test_condense_diff_keeps_the_contract_on_cut_diffs(case):
    record, diff = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "old").mkdir()
        (root / "new").mkdir()
        for entry in record["files"]:
            for side, path, content in (("old", entry["path_old"], entry["content_old"]),
                                        ("new", entry["path_new"], entry["content_new"])):
                if path:
                    (root / side / path).parent.mkdir(parents=True, exist_ok=True)
                    (root / side / path).write_text(content, encoding="utf-8")
        (root / "change.diff").write_bytes(diff)
        code, out, err = _run(
            "condense", "--diff", str(root / "change.diff"), "--old-dir", str(root / "old"),
            "--new-dir", str(root / "new"), "--repo", record["repo"], "--hash", record["hash"], "--format", "json",
        )
    if code == 2:
        assert out == ""
        assert sum(line.startswith("error: ") for line in err.splitlines()) == 1, err
    else:
        assert code in (0, 1), err
        assert json.loads(out)["full_text"]
