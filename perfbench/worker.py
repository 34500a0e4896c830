"""Run one workload through `condenser.cli.main` in this process.

Started by run.py in a fresh interpreter so that the generator's data is not
resident here: the peak RSS this process reports is the program's.  It makes
one untimed warm-up pass, then timed passes, each a whole CLI call over the
same input files, until the requested seconds are spent.  With --trace 1 it
alternates untraced and traced passes instead.  After the passes it collects
what the checks need from the program and writes a JSON result.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json SECONDS TRACE
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import re
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402  (the benchmark's own modules, next to this file)
import speed  # noqa: E402

from condenser import cli  # noqa: E402

MIN_PASSES = 3
_COMMIT_REF = re.compile(r"(\S+@[0-9A-Za-z]+)")


def one_pass(main, spec: dict) -> dict:
    """One CLI call; the clock covers the call and nothing else.  The speed
    loop runs just before and after it, outside the clock."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    before = speed.loop_seconds()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = main(list(spec["argv"]))
        seconds = time.perf_counter() - start
    loop_s = (before + speed.loop_seconds()) / 2
    digest = hashlib.sha256(Path(spec["output"]).read_bytes()).hexdigest()
    # a commit the program reports on stderr by repo@hash counts as failed
    failed = sorted({m.rstrip(":") for m in _COMMIT_REF.findall(err.getvalue())} & set(spec["commit_ids"]))
    return {"seconds": seconds, "loop_s": loop_s, "rc": rc, "stdout": out.getvalue(), "failed": failed, "digest": digest}


def rewrite_dump(spec: dict) -> list[list[dict]]:
    """Inline statement changes the program reports, per commit."""
    from condenser.corpus import condense_commit, load_corpus

    dumps = []
    for sample in load_corpus(spec["corpus"]):
        result = condense_commit(sample.commit_input())
        changes = []
        for fd in result.diff.files:
            for ic in fd.inline_changes:
                changes.append({
                    "method": ic.method_name,
                    "removed": [s.text for s in ic.stmt_removed],
                    "added": [s.text for s in ic.stmt_added],
                    "modified": [[o.text, n.text] for o, n in ic.stmt_modified],
                    "moved": [[o.text, n.text] for o, n in ic.stmt_moved],
                })
        dumps.append(changes)
    return dumps


def meteor_sample(spec: dict) -> dict[str, float]:
    from condenser.metrics import meteor, tokenize_message

    return {str(i): meteor(tokenize_message(c), tokenize_message(r)) for i, (c, r) in spec["meteor_sample"]}


def main() -> int:
    spec_path, result_path, seconds, traced = sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4] == "1"
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    one_pass(cli.main, spec)  # warm-up
    passes: list[dict] = []
    result: dict = {}
    if not traced:
        spent = 0.0
        while spent < seconds or len(passes) < MIN_PASSES:
            p = one_pass(cli.main, spec)
            passes.append(p)
            spent += p["seconds"]
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        tracer = spans.Tracer()
        root = tracer.wrap(spans.ROOT_SPAN, cli.main)
        plain: list[float] = []
        timed: list[float] = []
        spent = 0.0
        while spent < seconds or len(timed) < MIN_PASSES:
            p = one_pass(cli.main, spec)
            plain.append(p["seconds"])
            passes.append(p)
            tracer.install()
            try:
                q = one_pass(root, spec)
            finally:
                tracer.uninstall()
            timed.append(q["seconds"])
            passes.append(q)
            spent += p["seconds"] + q["seconds"]
        overhead = (statistics.median(timed) / statistics.median(plain) - 1) * 100
        values, shares = spans.layer_metrics(tracer, len(timed), overhead)
        tracer.write(Path(result_path).with_name("trace.jsonl"))
        result["per_layer"] = values
        result["shares"] = shares
    result["passes"] = passes
    if spec["workload"] == "rewrite-heavy":
        result["rewrites"] = rewrite_dump(spec)
    if spec["workload"] == "eval-messages":
        result["meteor_sample"] = meteor_sample(spec)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
