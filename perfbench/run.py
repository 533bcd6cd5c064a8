#!/usr/bin/env python3
"""Build the mvqoe host-time benchmark and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (a CMake package that compiles the
library from ../src) into .bench_build/ at the repository root as a
Release build, then runs the benchmark binary. Its standard output is
passed through; the last line is the JSON result. Before printing that
line, the metric names and units are checked against BENCHMARK.json.
Traced runs (--trace 1) also write a Chrome trace-event file to
.bench_build/traces/, which the Perfetto UI opens directly.
"""
import argparse
import ctypes
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# A run measures --seconds, or as long as its latency samples take
# (cc_contention: about 20 s), plus set-up and final checks; anything
# far beyond that is a hang.
RUN_SLACK_S = 150
BUILD_TIMEOUT_S = 840
# Linux personality flag (sys/personality.h).
ADDR_NO_RANDOMIZE = 0x0040000


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def no_aslr():
    """Turn off address-space randomisation for the benchmark binary.

    With it on, heap and stack placement, and so cache behaviour, change
    from process to process; with it off they depend only on the inputs
    and the environment.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in 1..3600")

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    timeout = args.seconds + RUN_SLACK_S
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, check=False, preexec_fn=no_aslr)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {timeout} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        print("\n".join(lines))
        fail(f"benchmark exited with code {done.returncode}")

    result = json.loads(lines[-1])
    expected = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != expected:
        print("\n".join(lines[:-1]))
        fail("result does not match the metrics BENCHMARK.json declares")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
