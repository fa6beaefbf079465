#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the iccache library plus the perfbench
program into .bench_build/perfbench (build output goes to stderr); later runs
rebuild incrementally. The program's standard output is passed through
unchanged, so its last line is the result JSON. Workloads, metrics and
checks are described in perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_build_step(cmd):
    # Build chatter goes to stderr: stdout is reserved for the program.
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=BUILD_TIMEOUT_S, check=False)
    return result.returncode == 0


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_build_step(["cmake", "-S", HERE, "-B", BUILD_DIR,
                               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]):
            return None
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not run_build_step(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                           "-j", jobs]):
        return None
    binary = os.path.join(BUILD_DIR, "perfbench")
    return binary if os.path.exists(binary) else None


def main():
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(WORK_DIR, exist_ok=True)
    sys.stdout.flush()
    try:
        result = subprocess.run([binary, *sys.argv[1:], "--work-dir", WORK_DIR],
                                timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
