#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 repobench/run.py --workload fs_churn|kv_commit|ld_restart \
        --seed N --seconds S --trace 0|1

Builds the benchmark (the program's libraries from src/ plus the runner
in repobench/src) with CMake into .bench_build/repobench under the
checkout root, then replaces itself with the runner, which runs the
workload and prints one JSON line as the last line of standard output.
Build output goes to standard error. Run from the checkout root.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "repobench")
BINARY = os.path.join(BUILD, "repobench")
WORKLOADS = ("fs_churn", "kv_commit", "ld_restart")


def build():
    """Configures (once) and builds the runner; exits 1 on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            print("repobench: build failed: " + " ".join(step),
                  file=sys.stderr)
            sys.exit(1)


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Self-test only: a fixed round count and a deliberate corruption.
    p.add_argument("--rounds", type=int, default=0)
    p.add_argument("--corrupt", default="")
    return p.parse_args(argv)


def runner_args(args):
    out = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.rounds:
        out += ["--rounds", str(args.rounds)]
    if args.corrupt:
        out += ["--corrupt", args.corrupt]
    return out


def main():
    args = parse(sys.argv[1:])
    build()
    sys.stdout.flush()
    sys.stderr.flush()
    argv = runner_args(args)
    os.execv(argv[0], argv)


if __name__ == "__main__":
    main()
