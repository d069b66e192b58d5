#!/usr/bin/env python3
"""Runs one workload of the Coign benchmark.

    python3 coignbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

On first use it configures and builds coignbench/ (which compiles the coign
libraries from src/) into .bench_build/ at the repository root; later runs
only re-check the build. It then runs the benchmark binary and passes its
standard output through: the last line is the JSON result. Build output
goes to standard error. Traced runs write their spans to
.bench_build/spans/<workload>-seed<n>.jsonl.

Exits non-zero without a result if the build or the run fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "coignbench"
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "coign_bench"
WORKLOADS = ("analyze-cli", "fleet-cold", "fleet-replan", "online-drift", "profile-log")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", "coign_bench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return BINARY.exists()


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not build():
        print("coignbench: build failed", file=sys.stderr)
        return 1
    command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = BUILD_DIR / "spans"
        spans_dir.mkdir(exist_ok=True)
        command += ["--spans-out", str(spans_dir / f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"coignbench: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
