#!/usr/bin/env python3
"""Run the benchmark several times per workload and report its spread.

    python3 perfbench/steadiness.py [--runs 10] [--seed 1000]
                                    [--workload NAME ...] [--trace 0|1]

Run from the repository root. Each run gets its own seed (seed, seed+1,
...). For every metric the script prints the median of the runs and the
distance between the first and third quartile as a share of the median
(Python's statistics.quantiles(values, n=4)), next to the metric's bound
from BENCHMARK.json. A spread above the bound fails the check; a spread
above a third of it is flagged. On paper-sweep, pages_per_stmt and every
storage.* count must read the same in every run (they are exact counts).
Exits nonzero when a run fails or a check does not hold.
"""

import argparse
import json
import statistics
import subprocess
import sys

EXACT_ON_PAPER = ("pages_per_stmt", "storage.")


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        raise SystemExit(f"{workload} seed {seed}: correct = false")
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1000)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in workloads:
        runs = [run_once(bench["command"], w, args.seed + i,
                         bench["run_seconds"], args.trace)
                for i in range(args.runs)]
        print(f"{w} ({args.runs} runs, seeds {args.seed}..{args.seed + args.runs - 1})")
        for name in sorted(runs[0]):
            vals = [r[name] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                if spread > bound:
                    mark, ok = "FAIL", False
                elif spread > bound / 3:
                    mark = "wide"
            if w == "paper-sweep" and name.startswith(EXACT_ON_PAPER):
                if len(set(vals)) != 1:
                    mark, ok = "NOT EXACT", False
            b = f"{bound:.2f}" if bound is not None else "  - "
            print(f"  {name:<28} median {med:>14.4f}  spread {spread:7.4f}  bound {b} {mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
