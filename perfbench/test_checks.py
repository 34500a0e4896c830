"""The benchmark's own tests: small-size runs pass every check, and each
check rejects a corrupted output.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402  (puts the program's source on sys.path)

from condenser import cli  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_small_run_passes(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "0.1",
         "--trace", str(trace), "--size", "small"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"], proc.stderr
    if workload == "corpus-typical":
        assert line["failed"] * 5 == line["attempted"]  # 2 of 10 commits use Java 16+ syntax
    else:
        assert line["failed"] == 0
    names = [n for n, _u in spans.PER_LAYER] if trace else ["items_per_s", "setup_s", "peak_rss_mb"]
    assert sorted(line["metrics"]) == sorted(names)
    assert all(math.isfinite(m["value"]) for m in line["metrics"].values())


def test_same_seed_same_inputs(tmp_path):
    a = workloads.build("corpus-typical", 3, "small", tmp_path / "a")
    b = workloads.build("corpus-typical", 3, "small", tmp_path / "b")
    c = workloads.build("corpus-typical", 4, "small", tmp_path / "c")
    read = lambda built: Path(built["argv"][2]).read_text(encoding="utf-8")  # noqa: E731
    assert read(a) == read(b) != read(c)


def _produce(workload: str, tmp_path: Path) -> tuple[dict, dict, str]:
    built = workloads.build(workload, 11, "small", tmp_path)
    spec = run.worker_spec(built)
    result = {"passes": [worker.one_pass(cli.main, spec) for _ in range(2)]}
    if workload == "rewrite-heavy":
        result["rewrites"] = worker.rewrite_dump(spec)
    if workload == "eval-messages":
        result["meteor_sample"] = worker.meteor_sample(spec)
    return built, result, Path(built["output"]).read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return _produce("corpus-typical", tmp_path_factory.mktemp("corpus"))


@pytest.fixture(scope="module")
def rewrite(tmp_path_factory):
    return _produce("rewrite-heavy", tmp_path_factory.mktemp("rewrite"))


@pytest.fixture(scope="module")
def evaluated(tmp_path_factory):
    return _produce("eval-messages", tmp_path_factory.mktemp("eval"))


def _edit_prompt(output: str, index: int, edit) -> str:
    lines = output.splitlines()
    rec = json.loads(lines[index])
    edit(rec)
    lines[index] = json.dumps(rec)
    return "\n".join(lines) + "\n"


def _first_with_method_line(output: str) -> int:
    for index, raw in enumerate(output.splitlines()):
        if any(checks._METHOD_LINE.match(l) for l in json.loads(raw)["prompt"].split("\n")):
            return index
    raise AssertionError("no prompt names a method")


def test_uncorrupted_outputs_pass(corpus, rewrite, evaluated):
    for built, result, output in (corpus, rewrite):
        failed = set(result["passes"][-1]["failed"])
        assert checks.check_sft(built["commits"], output, failed) == []
        assert checks.check_failures(built["commits"], [set(p["failed"]) for p in result["passes"]]) == []
        assert checks.check_exit(result["passes"], built["items"], counts_on_stdout=True) == []
    built, result, output = rewrite
    assert checks.check_rewrites(built["commits"], result["rewrites"]) == []
    built, result, output = evaluated
    sample = {int(i): v for i, v in result["meteor_sample"].items()}
    assert len(sample) >= 10
    assert checks.check_eval(built["pairs"], output, sample) == []
    assert checks.check_exit(result["passes"], built["items"], counts_on_stdout=False) == []


def _drop_method_line(rec):
    lines = rec["prompt"].split("\n")
    lines.remove(next(l for l in lines if checks._METHOD_LINE.match(l)))
    rec["prompt"] = "\n".join(lines)


def _add_method_line(rec):
    lines = rec["prompt"].split("\n")
    lines.insert(1, "Add a method unplanted with return type void")
    rec["prompt"] = "\n".join(lines)


def _rename_repo(rec):
    rec["prompt"] = rec["prompt"].replace("Repository: ", "Repository: other/", 1)


def _drop_end_marker(rec):
    rec["prompt"] = rec["prompt"].replace(checks.END_MARKER, "End of changes")


def _overflow(rec):
    rec["prompt"] += "\n" + " ".join(["word"] * checks.BUDGET)


def _retarget(rec):
    rec["target"] = rec["target"] + " extra"


@pytest.mark.parametrize("edit", [_drop_method_line, _add_method_line, _rename_repo, _drop_end_marker,
                                  _overflow, _retarget])
def test_sft_check_rejects_corrupt_prompt(corpus, edit):
    built, result, output = corpus
    bad = _edit_prompt(output, _first_with_method_line(output), edit)
    assert checks.check_sft(built["commits"], bad, set(result["passes"][-1]["failed"]))


def test_sft_check_rejects_missing_and_reordered_records(corpus):
    built, result, output = corpus
    failed = set(result["passes"][-1]["failed"])
    lines = output.splitlines()
    assert checks.check_sft(built["commits"], "\n".join(lines[1:]) + "\n", failed)
    lines[0], lines[1] = lines[1], lines[0]
    assert checks.check_sft(built["commits"], "\n".join(lines) + "\n", failed)


def test_sft_check_expects_java16_methods_once_they_parse(corpus):
    built, _result, output = corpus
    assert checks.check_sft(built["commits"], output, failed=set())


def test_failure_check_rejects_a_parsable_commit(corpus):
    built, result, _output = corpus
    plain = next(c for c in built["commits"] if not c["java16"])
    failed = set(result["passes"][0]["failed"])
    assert checks.check_failures(built["commits"], [failed | {checks.commit_id(plain["repo"], plain["hash"])}])
    assert checks.check_failures(built["commits"], [failed, set()])


def test_exit_and_identity_checks_reject(corpus):
    built, result, _output = corpus
    p = dict(result["passes"][0])
    assert checks.check_exit([dict(p, rc=2)], built["items"], counts_on_stdout=True)
    assert checks.check_exit([dict(p, rc=1, failed=[])], built["items"], counts_on_stdout=True)
    assert checks.check_exit([dict(p, stdout="3\n")], built["items"], counts_on_stdout=True)
    assert checks.check_exit([dict(p, rc=1)], built["items"], counts_on_stdout=True) == []
    assert checks.check_identical(["a", "a", "b"])


def test_rewrite_check_rejects(rewrite):
    built, result, _output = rewrite
    commits = built["commits"]

    def corrupt(edit):
        dumps = json.loads(json.dumps(result["rewrites"]))
        edit(dumps[0][0])
        return checks.check_rewrites(commits, dumps)

    changed = set(commits[0]["changed"])

    def unreport(ch):
        for kind in ("removed",):
            ch[kind] = [s for s in ch[kind] if s not in changed]
        ch["modified"] = [[o, n] for o, n in ch["modified"] if o not in changed]

    assert corrupt(unreport)
    assert corrupt(lambda ch: ch["removed"].append("int notInTheOldMethod = 1;"))
    assert corrupt(lambda ch: ch["added"].append(commits[0]["changed"][0]))
    assert corrupt(lambda ch: ch.update(method="someOtherMethod"))


def test_eval_check_rejects(evaluated):
    built, result, output = evaluated
    sample = {int(i): v for i, v in result["meteor_sample"].items()}
    report = json.loads(output)
    for key, delta in (("bleu_norm", 0.01), ("rouge_l", -0.01), ("meteor", 100.0), ("n", 1)):
        bad = dict(report, **{key: report[key] + delta})
        assert checks.check_eval(built["pairs"], json.dumps(bad), sample), key
    some = next(iter(sample))
    assert checks.check_eval(built["pairs"], output, sample | {some: sample[some] + 0.5})


def test_exhaustive_meteor_matches_hand_counts():
    # "a b c" against "c a b": matches come first, so three matches in two
    # chunks ("a b", "c") rather than two in one
    assert checks.meteor_exhaustive(["a", "b", "c"], ["c", "a", "b"]) == checks.meteor_score(3, 2, 3, 3)
    assert checks.meteor_exhaustive(["a", "a"], ["a"]) == checks.meteor_score(1, 1, 2, 1)
    assert checks.meteor_exhaustive(["x"], ["y"]) == 0.0
