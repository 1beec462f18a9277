#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/collect.py --workloads saa gap --seeds 1-10 [--trace 1]
        [--output perfbench/BENCH_baseline.json]

Runs one ``run.py`` process at a time and prints, per workload and metric,
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the distance between the quartiles as a share of the median.
``--output`` also keeps the environment and, for traced runs, the simplex
tableau-shape histogram of the first seed.
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
OUT_DIR = HERE.parent / ".perfbench_out"


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=["saa", "two_stage", "gap", "validate"])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--output", type=Path)
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            result["run_s"] = time.perf_counter() - start
            runs.append(result)
            print(f"{workload} seed {seed}: {result['run_s']:.1f}s "
                  f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", file=sys.stderr, flush=True)
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        for name, stats in metrics.items():
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            print(f"{workload:<10} {name:<26} median {stats['median']:<12.6g} "
                  f"spread {stats['spread']:.3f}")
        record = json.loads((OUT_DIR / f"{workload}-seed{args.seeds[0]}"
                             f"-trace{args.trace}.json").read_text())
        summary[workload] = {
            "environment": record["environment"],
            "runs": len(runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "run_s": [round(r["run_s"], 2) for r in runs],
            "metrics": metrics,
        }
        if args.trace:
            summary[workload]["tableau_shapes"] = record["trace"]["tableau_shapes"]
    if args.output:
        args.output.write_text(json.dumps(
            {"seeds": args.seeds, "trace": args.trace, "run_seconds": seconds,
             "workloads": summary}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
