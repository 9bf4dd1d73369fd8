#!/usr/bin/env python3
"""Run workloads over several seeds and keep each run's result line.

    python3 hostbench/collect.py --out .bench_results/set-a --seeds 1-10
    python3 hostbench/collect.py --out DIR --workloads daemon-mix --seeds 1-5 --trace 1

Runs `run.py` once per (workload, seed), one after another, and writes the
result JSON to DIR/<workload>/seed-<n>.json and its stderr to seed-<n>.log.
Prints each metric's median and quartile spread per workload. `compare.py`
compares two such directories.
"""
import argparse
import json
import os
import subprocess
import sys
import time

from compare import summary

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for workload in args.workloads.split(","):
        out = os.path.join(args.out, workload)
        os.makedirs(out, exist_ok=True)
        values = {}
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            began = time.monotonic()
            with open(os.path.join(out, "seed-%d.log" % seed), "w") as log:
                done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=log,
                                      text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.exit("%s seed %d: exit %d, see %s" % (workload, seed, done.returncode, out))
            result = json.loads(lines[-1])
            with open(os.path.join(out, "seed-%d.json" % seed), "w") as f:
                f.write(lines[-1] + "\n")
            print("%s seed %d: correct=%s attempted=%d failed=%d (%.0f s)" % (
                workload, seed, result["correct"], result["attempted"], result["failed"],
                time.monotonic() - began), flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        if args.trace:
            continue
        for name, vals in values.items():
            med, _, _, spread = summary(vals)
            print("  %-16s median %-12.6g spread %.3f" % (name, med, spread))


if __name__ == "__main__":
    main()
