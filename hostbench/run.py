#!/usr/bin/env python3
"""Host-time benchmark for CIMFlow: build the harness, then run one workload.

    python3 hostbench/run.py --workload evaluate-timing --seed 1 --seconds 20 --trace 0
    python3 hostbench/run.py --self-test

--seconds defaults to BENCHMARK.json's run_seconds.

Builds the CIMFlow library, `cimflow_cli` and the `hostbench` harness from the
checkout's sources into .bench_build/hostbench (CMake, Release), then replaces
itself with the harness, which prints one JSON result as its last stdout line.
Build output goes to stderr. Exits non-zero without a result when the sources
or the toolchain are missing.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
WORKLOADS = ("evaluate-timing", "validate-functional", "daemon-mix")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src", "cimflow")):
        sys.exit("hostbench: no CIMFlow sources next to %s" % HERE)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "hostbench",
                  "cimflow_cli"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            sys.exit("hostbench: cannot run %s: %s" % (cmd[0], e))
        if done.returncode != 0:
            sys.exit("hostbench: build step failed: %s" % " ".join(cmd))


def run_seconds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)["run_seconds"]
    except (OSError, ValueError, KeyError) as e:
        sys.exit("hostbench: cannot read run_seconds from BENCHMARK.json: %s" % e)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the benchmark's own checks and smoke-run every workload")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if args.seconds is None:
        args.seconds = run_seconds()
    build()
    os.chdir(ROOT)
    harness = os.path.join(BUILD, "hostbench")
    cli = os.path.join(BUILD, "examples", "cimflow_cli")
    argv = [harness, "--cli", cli, "--out-dir", ".bench_results"]
    if args.self_test:
        argv.append("--self-test")
    else:
        argv += ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    sys.stderr.flush()
    # setup_s starts here: process start of the harness onwards.
    argv += ["--t0-ns", str(time.monotonic_ns())]
    os.execv(harness, argv)


if __name__ == "__main__":
    main()
