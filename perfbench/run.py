#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 10 \
        --trace 0

The first call configures and builds the repository's libraries plus the
benchmark binary into .bench_build/perfbench (Release, the repository's own
compile flags); later calls rebuild incrementally. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("train-wide-vocab", "train-many-topics", "serve-mix")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                     os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(root, required)):
            fail("missing %s: run from the root of a repository checkout"
                 % required)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                     build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", build_dir, "--target", "ct_perfbench",
                   "-j", "4"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "ct_perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    binary = build(root, build_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", os.path.join(root, ".bench_build", "scratch")]
    sys.stdout.flush()
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
