#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload page_loads --seed 1 --seconds 30 --trace 0

Builds the simulator libraries and the perfbench binary from source with
CMake (RelWithDebInfo, the tier-1 flags) under the build root — the
CARGO_TARGET_DIR environment variable if set, else .bench_build — then runs
one workload in one process and passes its output through.  The last line
of stdout is the benchmark's JSON result.  Traced runs (--trace 1) write
their spans to <build root>/spans/<workload>-seed<seed>.tsv.

Exits non-zero without printing a result when the build or the run fails.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("page_loads", "config_sweep", "metro_sessions")
RUN_TIMEOUT_S = 170


def fail(message, log=None):
    if log and os.path.exists(log):
        with open(log, encoding="utf-8", errors="replace") as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(1)


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def build(out_dir):
    """Configures and builds incrementally; returns the binary path."""
    os.makedirs(out_dir, exist_ok=True)
    log = os.path.join(out_dir, "build.log")
    with open(os.path.join(out_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build per checkout at a time
        with open(log, "w") as out:
            jobs = str(min(4, os.cpu_count() or 1))
            steps = [["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                     ["cmake", "--build", out_dir, "--target", "perfbench",
                      "-j", jobs]]
            for step in steps:
                if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                                  cwd=ROOT).returncode != 0:
                    fail("build failed: " + " ".join(step), log)
    return os.path.join(out_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--preset", default="full", choices=("full", "tiny"),
                        help="tiny: a few operations per workload (self-tests)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    out_dir = os.path.join(build_root(), "perfbench")
    binary = build(out_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--preset", args.preset]
    if args.trace == "1":
        spans_dir = os.path.join(build_root(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.tsv" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail("perfbench exited with %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(run.stdout)
        fail("last line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has unexpected keys: %s" % sorted(result))
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
