"""The repository's benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload corpus-typical --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  It generates the workload's inputs from
--seed under perfbench/_work/<size>/<workload>-trace<0|1>/, runs the program
on them in a fresh interpreter (worker.py) for --seconds seconds, checks
every output apart from the program, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (items_per_s, setup_s,
peak_rss_mb); with --trace 1 they are the per-layer ones from a traced run.
--size small makes the small inputs the benchmark's own tests use.
Exits 2 without a result when the program's source is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 10  # before the inputs are built and again after the passes
RUN_LIMIT_S = 170  # a run ends within 180 s

# time from a fresh interpreter's first statement until `import condenser`
# and the default PipelineConfig are done
SETUP_SNIPPET = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import condenser
condenser.PipelineConfig()
print(repr(time.perf_counter() - start))
if not condenser.__file__.startswith(sys.argv[1]):
    sys.exit(3)
"""


def measure_setup(deadline: float) -> list[float]:
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        before = speed.loop_seconds()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC)], capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()), check=True)
        if k:  # the first interpreter may also compile the bytecode cache
            samples.append(speed.scale(float(proc.stdout.strip()), (before + speed.loop_seconds()) / 2))
    return samples


def worker_spec(built: dict) -> dict:
    spec = {key: built[key] for key in ("workload", "argv", "output")}
    spec["corpus"] = built["argv"][2] if built["argv"][0] == "export-sft" else None
    spec["commit_ids"] = [checks.commit_id(c["repo"], c["hash"]) for c in built.get("commits", [])]
    if built["workload"] == "eval-messages":
        spec["meteor_sample"] = [[i, built["pairs"][i]] for i in checks.exhaustive_sample(built["pairs"])]
    return spec


def check_run(built: dict, result: dict) -> list[str]:
    passes = result["passes"]
    output = Path(built["output"]).read_text(encoding="utf-8")
    errors = checks.check_identical([p["digest"] for p in passes])
    if built["workload"] == "eval-messages":
        errors += checks.check_exit(passes, built["items"], counts_on_stdout=False)
        sample = {int(i): v for i, v in result["meteor_sample"].items()}
        errors += checks.check_eval(built["pairs"], output, sample)
        return errors
    commits = built["commits"]
    errors += checks.check_exit(passes, built["items"], counts_on_stdout=True)
    errors += checks.check_failures(commits, [set(p["failed"]) for p in passes])
    errors += checks.check_sft(commits, output, set(passes[-1]["failed"]))
    if built["workload"] == "rewrite-heavy":
        errors += checks.check_rewrites(commits, result["rewrites"])
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "condenser" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2

    # setup_s is timed apart from input generation and at two moments of the run
    setup = measure_setup(deadline) if not args.trace else []
    work = WORK / args.size / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    built = workloads.build(args.workload, args.seed, args.size, work / "inputs")
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(worker_spec(built)), encoding="utf-8")

    subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path),
                    str(args.seconds), str(args.trace)],
                   timeout=max(1.0, deadline - time.monotonic()), check=True)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not args.trace:
        setup += measure_setup(deadline)

    errors = check_run(built, result)
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    passes = result["passes"]
    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit} for name, unit in spans.PER_LAYER}
        summary = {"shares": result["shares"], "per_layer": result["per_layer"], "stats": built["stats"]}
        (work / "trace_summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    else:
        rates = [built["items"] / speed.scale(p["seconds"], p["loop_s"]) for p in passes]
        metrics = {
            "items_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024, "unit": "MB"},
        }
    line = {
        "correct": not errors,
        "attempted": built["items"] * len(passes),
        "failed": sum(len(p["failed"]) for p in passes),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
