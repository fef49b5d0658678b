#!/usr/bin/env python3
"""Run each workload k times with different seeds and summarize.

Usage (from the repository root):

    python3 perfbench/repeat.py [-k 10] [--trace 0|1] [--first-seed 1]
                                [--workload NAME ...]

Runs the command of BENCHMARK.json once per (workload, seed) and prints,
per metric, the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread
(q3 - q1) / median next to the metric's bound. Raw result lines are
appended to .bench_build/perfbench-repeat.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-k", type=int, default=10, help="runs per workload")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="limit to these workloads")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    os.makedirs(".bench_build", exist_ok=True)
    log = open(os.path.join(".bench_build", "perfbench-repeat.jsonl"), "a")

    for workload in workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.k):
            cmd = bench["command"] + [
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                sys.exit(1)
            result = json.loads(lines[-1])
            log.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            log.flush()
            results.append(result)
        print(f"\n== {workload}: {len(results)} runs, "
              f"correct {all(r['correct'] for r in results)}, "
              f"failed/attempted {[(r['failed'], r['attempted']) for r in results]}")
        print(f"{'metric':28s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
        for metric in metrics:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            if any(v is None for v in values):
                print(f"{name:28s} missing in some runs")
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else float("nan")
            bound = metric.get("bound", "")
            print(f"{name:28s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} {bound!s:>6s}")


if __name__ == "__main__":
    main()
