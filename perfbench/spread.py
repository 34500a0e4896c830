"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload eval-messages --seeds 1-10

Runs run.py once per seed for run_seconds of BENCHMARK.json, one run at a
time, and prints for each metric the median and the distance between the
first and the third quartile as a share of the median
(statistics.quantiles(values, n=4)), beside the metric's bound in
BENCHMARK.json, and the share of failed operations.  Each run's result line
and pass times go to perfbench/_work/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict[str, list[float]] = {}
    runs: list[dict] = []
    shares = set()
    for seed in seeds(args.seeds):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                              capture_output=True, text=True, check=True)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        result_path = HERE / "_work" / "full" / f"{args.workload}-trace0" / "result.json"
        result = json.loads(result_path.read_text(encoding="utf-8"))
        runs.append({"seed": seed, "line": line, "pass_seconds": [p["seconds"] for p in result["passes"]],
                     "loop_seconds": [p["loop_s"] for p in result["passes"]]})
        if not line["correct"]:
            print(f"seed {seed}: checks failed\n{proc.stderr}", file=sys.stderr)
            return 1
        shares.add(line["failed"] / line["attempted"])
        for name, m in line["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.4g}" for k, m in line["metrics"].items()), flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vals in values.items():
        q1, _q2, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        print(f"{args.workload} {name}: median {med:.4g} spread {(q3 - q1) / med:.3f} bound {bounds.get(name)}")
    print(f"{args.workload} failed share: {sorted(shares)}")
    log = HERE / "_work" / f"spread-{args.workload}.json"
    log.write_text(json.dumps(runs), encoding="utf-8")
    print(f"per-run results and pass times: {log}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
