#!/usr/bin/env python3
"""Builds and runs the dynaplat repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload vehicle_steady --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and with it every library source under src/) into the
directory named by $CARGO_TARGET_DIR, default `.bench_build`, then runs the
benchmark binary. Build output goes to stderr; the binary's report goes to
stdout and its last line is the one-line JSON result. Exits nonzero, without
printing a result, when the build fails, a correctness check fails or the
binary misbehaves.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("vehicle_steady", "fleet_100k", "campaign_sweep")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    source_dir = os.path.join(root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=root, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {step[:2]} failed: {error}")
        if done.returncode != 0:
            fail(f"build step {step[:2]} exited {done.returncode}")
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(binary):
        fail("build produced no perfbench binary")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "perfbench")):
        fail("run from the repository root")
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(root, build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", out_dir]
    try:
        done = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        # A failed correctness check prints its result with "correct": false
        # and exits nonzero; the exit status is passed on.
        fail(f"benchmark exited {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no JSON result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has unexpected keys")
    return 0


if __name__ == "__main__":
    sys.exit(main())
