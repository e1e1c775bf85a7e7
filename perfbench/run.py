#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--corrupt bcast|allreduce|svc]

The build (CMake, Release) goes to .bench_build/perfbench; its output goes
to stderr, so the last line on stdout is the workload's JSON result. With
--trace 1 the benchmark's spans are written to
.bench_build/perfbench/spans/<workload>.json. The exit code is the
workload's: 0 when every operation passed.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# The workload measures for --seconds, then finishes its last round and runs
# its check pass (and, when traced, its probes); the fixed margin covers
# those. At 25 s the limit stays under the 180 s a run may take.
RUN_TIMEOUT_MARGIN_S = 140


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--corrupt", choices=["bcast", "allreduce", "svc"])
    args = ap.parse_args()

    build()
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    if args.trace == "1":
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans, args.workload + ".json")]
    sys.stdout.flush()
    timeout = args.seconds + RUN_TIMEOUT_MARGIN_S
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %g s" % timeout, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
