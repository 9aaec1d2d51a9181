#!/usr/bin/env python3
"""Builds and runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload we-local --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
benchmark (the wnw library plus perfbench/*.cc, Release) into .bench_build,
or into $CARGO_TARGET_DIR when that is set; later runs only check the build.
The benchmark binary prints a metric table; the last line of standard output
is the run's JSON result. Before that line is passed on, it is checked
against BENCHMARK.json: a run reports exactly the end_to_end metrics, or with
--trace 1 exactly the per_layer metrics. Build output goes to standard error.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        return 1
    try:
        expected = expected_metrics(args.trace == 1)
    except (OSError, ValueError, KeyError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(build_dir, "perfbench-out")]
    started = time.monotonic()
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    log(f"{args.workload} ran {time.monotonic() - started:.1f} s, "
        f"exit {done.returncode}")
    if done.returncode not in (0, 1):
        return 1
    try:
        result = json.loads(lines[-1])
        metrics = result["metrics"]
    except (ValueError, KeyError, TypeError):
        log("the benchmark printed no result line")
        return 1
    got = {name: m.get("unit") for name, m in metrics.items()}
    if got != expected:
        log(f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(expected) - set(got))}, unexpected "
            f"{sorted(set(got) - set(expected))}, or a unit differs")
        return 1
    print(lines[-1], flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
