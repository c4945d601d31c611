#!/usr/bin/env python3
"""Builds the benchmark from the repository's sources and runs one workload.

    python3 perfbench/run.py --workload <road_cold|social_mpi|ba_churn|service_mix>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR when
set (relative paths are taken from the current directory), else to
.bench_build; build output goes to standard error. The last line of
standard output is the benchmark's JSON result.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no library sources under {ROOT}/src; run from a full checkout")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    # Every target: the benchmark and its reference tests (for ctest).
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main():
    binary = build()
    run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                         stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode:
        fail(f"benchmark exited with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no result line")


if __name__ == "__main__":
    main()
