#!/usr/bin/env python3
"""Builds and runs the ESDB end-to-end benchmark.

Usage, from the root of a checkout:
  python3 perfbench/run.py --workload {ingest,query} --seed N \
      --seconds S --trace {0,1}

Configures and builds perfbench/ (the engine library from src/ plus the
driver in bench.cc) under .bench_build/perfbench on first use, runs the
driver, checks that it emitted exactly the metrics BENCHMARK.json names
for the mode, and prints the driver's JSON result as the last line of
stdout. Build output goes to stderr. Exits non-zero, printing no
result, if the build fails, the driver fails, or the metric names
disagree with BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
DRIVER_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j",
         str(min(4, os.cpu_count() or 1))],
        stdout=sys.stderr, check=True)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: driver timed out", file=sys.stderr)
        return 2
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print(f"run.py: driver exited {proc.returncode} without a result",
              file=sys.stderr)
        return 2
    result = json.loads(lines[-1])

    names = expected_metrics(args.trace == 1)
    if sorted(result["metrics"]) != sorted(names):
        missing = sorted(set(names) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(names))
        print(f"run.py: metrics disagree with BENCHMARK.json: "
              f"missing {missing}, extra {extra}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
