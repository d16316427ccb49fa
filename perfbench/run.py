#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Every call configures and builds the
benchmark (the library from the checkout's sources plus the driver) in
.bench_build/perfbench; after the first call that is an incremental
no-op. Build output goes to standard error, so the last line of standard
output is the driver's JSON result. A traced run also leaves its spans in
.bench_build/perfbench/spans-<workload>-<seed>.jsonl.

Exits non-zero, without a result, when the build or the driver fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_e2e")
# A run measures for --seconds, plus up to three set-ups and the audits.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "perfbench_e2e", "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--spans", os.path.join(
            BUILD, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: driver exceeded %d s" % RUN_TIMEOUT_S)
    if run.returncode != 0:
        sys.exit("perfbench: driver exited with %d" % run.returncode)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("perfbench: driver printed no result")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
