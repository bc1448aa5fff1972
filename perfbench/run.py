#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve-churn --seed 1 --seconds 10 --trace 0

The first run configures and builds the library and the perfbench
program into .bench_build/perfbench (Release); later runs only re-check
the build.  Build output goes to stderr, so the last line of stdout is
the program's JSON result.  With --trace 1 the traced run's first round of
spans is written to .bench_build/perfbench/trace-<workload>.jsonl.

Exit status: the program's (0 ok, 1 a measurement check failed), or 2
when the library sources are missing or the build fails.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("serve-churn", "serve-exact", "sweep-kernel", "sweep-wide")


def build(root, build_dir):
    """Configures (once) and builds the perfbench target; True on success."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: library sources not found under " + root, file=sys.stderr)
        return 2
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(build_dir, "trace-" + args.workload + ".jsonl")]
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
