"""Run a workload k times with successive seeds and summarize each metric.

    python3 perfbench/repeat.py --workload queries --runs 10 --seed 1 [--trace 1]

Each run is a separate `run.py` process; --seconds defaults to
BENCHMARK.json's run_seconds.  Prints one line per metric with the median,
the first and third quartiles (statistics.quantiles, n=4) and their
distance as a share of the median, then the whole summary as one JSON line.
The summary keeps, per run, its duration, the stamp's pass times, unscaled
figures and queries stream statistics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PER_RUN = ("seed", "run_s", "pass_walls_s", "raw_pass_walls_s", "raw_request_p50_ms",
           "raw_request_p99_ms", "traced_pass_walls_s", "queries_repeat_share",
           "queries_requests")


def repeat(workload: str, runs: int, seed: int, seconds: float, trace: int):
    results, stamps = [], []
    for i in range(runs):
        began = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed + i), "--seconds", str(seconds),
             "--trace", str(trace)],
            capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        stamps.append(json.loads(lines[-2])["stamp"])
        stamps[-1]["run_s"] = time.perf_counter() - began
        results.append(json.loads(lines[-1]))
        print(f"{workload} seed {seed + i}: correct={results[-1]['correct']}"
              f" failed={results[-1]['failed']}/{results[-1]['attempted']}",
              file=sys.stderr)
    summary = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "unit": first["unit"], "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values,
        }
    return {
        "workload": workload, "trace": trace, "seconds": seconds,
        "seeds": [seed, seed + runs - 1],
        "correct": all(r["correct"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "stamp": {k: v for k, v in stamps[0].items()
                  if k in ("python", "nproc", "cpu_model", "git_commit",
                           "source_sha256")},
        "runs": [{k: s[k] for k in PER_RUN if k in s} for s in stamps],
        "metrics": summary,
    }


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = repeat(args.workload, args.runs, args.seed, args.seconds, args.trace)
    for name, m in out["metrics"].items():
        print(f"{args.workload:14s} {name:40s} median {m['median']:<12.6g}"
              f" q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g}"
              f" spread {m['spread']:.4f} {m['unit']}", file=sys.stderr)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
