"""Golden outputs of the command line, and digests of the benchmark's outputs.

    python tests/golden/regen.py            # rewrite every golden file
    python tests/golden/regen.py NAME       # print one golden as the program makes it now

Each golden file holds, for one command on the 20-commit fixture corpus
(tests/corpusdata.py), every call's arguments, exit code, stdout, stderr and
the files it wrote.  Temporary paths read as '<tmp>'.  digests.json holds
the sha256 of the output file (sft.jsonl or scores.json) of each benchmark
workload for seeds 1-3, with the inputs built by perfbench/workloads.py.
tests/test_golden.py compares the program with all of them.  Every call runs
condenser.cli.main in this process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
TESTS = GOLDEN.parent
ROOT = TESTS.parent
for _path in (ROOT / "src", TESTS, ROOT / "perfbench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import workloads  # noqa: E402
from condenser import cli  # noqa: E402
from corpusdata import COMMITS, write_corpus, write_corpus_with_bad_record  # noqa: E402

SEEDS = (1, 2, 3)
DIGESTS = "digests.json"


def _trees(tmp: Path, commit: dict) -> tuple[Path, Path]:
    """The commit's old and new snapshots as two directory trees."""
    old, new = tmp / commit["hash"] / "old", tmp / commit["hash"] / "new"
    for root, side in ((old, "old"), (new, "new")):
        root.mkdir(parents=True)
        for f in commit["files"]:
            if f[f"path_{side}"] is not None:
                path = root / f[f"path_{side}"]
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(f[f"content_{side}"], encoding="utf-8")
    return old, new


def _calls(name: str, tmp: Path) -> list[list[str]]:
    """The argument lists of one golden's calls, with their inputs written under tmp."""
    if name == "condense-json.txt":
        calls = []
        for commit in COMMITS:
            old, new = _trees(tmp, commit)
            calls.append(["condense", "--old-dir", str(old), "--new-dir", str(new), "--repo", commit["repo"],
                          "--hash", commit["hash"], "--format", "json", "--explain-type"])
        return calls
    good, bad = write_corpus(tmp / "corpus20.jsonl"), write_corpus_with_bad_record(tmp / "corpus_bad.jsonl")
    command = {
        "corpus-run-json.txt": ["corpus", "run", "--format", "json"],
        "corpus-run-text.txt": ["corpus", "run", "--format", "text"],
        "corpus-stats.txt": ["corpus", "stats"],
        "export-sft.txt": ["export-sft", "--out", str(tmp / "sft.jsonl")],
    }[name]
    return [command + ["--corpus", str(corpus)] for corpus in (good, bad)]


FIXTURE_GOLDENS = ("condense-json.txt", "corpus-run-json.txt", "corpus-run-text.txt", "corpus-stats.txt",
                   "export-sft.txt")


def _call(argv: list[str], tmp: Path) -> str:
    """One call's record: arguments, exit code, stdout, stderr and the file
    its --out names, if any."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    parts = ["$ " + " ".join(argv), f"exit {code}", "--- stdout", out.getvalue(), "--- stderr", err.getvalue()]
    if "--out" in argv:
        written = Path(argv[argv.index("--out") + 1])
        parts += [f"--- {written}", written.read_text(encoding="utf-8")]
        written.unlink()
    return "\n".join(parts).replace(str(tmp), "<tmp>") + "\n"


def render_golden(name: str, tmp: Path) -> str:
    """What the golden file `name` holds for the program as it is now."""
    tmp.mkdir(parents=True, exist_ok=True)
    return "".join(_call(argv, tmp) for argv in _calls(name, tmp))


def workload_digests(tmp: Path) -> dict[str, dict[str, str]]:
    """sha256 of each workload's output file, per seed."""
    digests: dict[str, dict[str, str]] = {}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            built = workloads.build(workload, seed, "full", tmp / f"{workload}-{seed}")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(built["argv"])
            assert code == 0, (workload, seed, code)
            digests.setdefault(workload, {})[str(seed)] = hashlib.sha256(Path(built["output"]).read_bytes()).hexdigest()
    return digests


def main(argv: list[str]) -> int:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        if argv:
            sys.stdout.write(render_golden(argv[0], Path(tmp)))
            return 0
        for k, name in enumerate(FIXTURE_GOLDENS):
            (GOLDEN / name).write_bytes(render_golden(name, Path(tmp) / str(k)).encode("utf-8"))
        digests = workload_digests(Path(tmp) / "workloads")
        (GOLDEN / DIGESTS).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
