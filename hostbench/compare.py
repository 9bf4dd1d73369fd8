#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 hostbench/compare.py .bench_results/set-a .bench_results/set-b

Each set is a directory written by collect.py: <workload>/seed-<n>.json, one
result line per run. For every workload and end-to-end metric of
BENCHMARK.json it prints both medians, both quartile spreads ((Q3 - Q1) /
median, as statistics.quantiles(n=4) gives the quartiles), the relative
change of B's median against A's, and whether the spreads and the change
stay within the metric's bound. The change is tested in both directions:
two sets of the same code must agree, so a move the better way counts as
much as a move the worse way. The failed share of both sets must be equal.
setup_s's spread is printed but not gated: each run times a single cold
set-up of a few milliseconds, so only its median is compared. Exits 1 when
anything is out of bounds.
"""
import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory, workload):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, workload, "seed-*.json"))):
        with open(path) as f:
            runs.append(json.loads(f.read().strip().splitlines()[-1]))
    return runs


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE),
                                                            "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)

    ok = True
    header = "%-20s %-15s %12s %12s %8s %8s %8s %6s  %s" % (
        "workload", "metric", "median A", "median B", "sprd A", "sprd B", "change", "bound",
        "verdict")
    print(header)
    print("-" * len(header))
    for workload in (w["name"] for w in bench["workloads"]):
        runs_a, runs_b = load(args.a, workload), load(args.b, workload)
        if not runs_a or not runs_b:
            print("%-20s missing runs (A: %d, B: %d)" % (workload, len(runs_a), len(runs_b)))
            ok = False
            continue
        if not all(r["correct"] for r in runs_a + runs_b):
            print("%-20s a run reported correct=false" % workload)
            ok = False
        share_a = {r["failed"] / r["attempted"] for r in runs_a}
        share_b = {r["failed"] / r["attempted"] for r in runs_b}
        if len(share_a | share_b) != 1:
            print("%-20s failed share differs: A %s, B %s" % (workload, sorted(share_a),
                                                              sorted(share_b)))
            ok = False
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            med_a, q1a, q3a, spread_a = summary([r["metrics"][name]["value"] for r in runs_a])
            med_b, q1b, q3b, spread_b = summary([r["metrics"][name]["value"] for r in runs_b])
            change = (med_b - med_a) / med_a if med_a else float("inf")
            problems = []
            if name != "setup_s" and spread_a > bound:
                problems.append("spread A")
            if name != "setup_s" and spread_b > bound:
                problems.append("spread B")
            if abs(change) > bound:
                problems.append("change")
            ok = ok and not problems
            print("%-20s %-15s %12.6g %12.6g %8.3f %8.3f %+8.3f %6.2f  %s" % (
                workload, name, med_a, med_b, spread_a, spread_b, change, bound,
                ("OUT: " + ", ".join(problems)) if problems else
                "ok (spread not gated)" if name == "setup_s" else "ok"))
            print("%-20s %-15s   Q1..Q3 A %.6g..%.6g   B %.6g..%.6g" % (
                "", "", q1a, q3a, q1b, q3b))
    print("within bounds" if ok else "OUT OF BOUNDS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
