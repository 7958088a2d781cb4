#!/usr/bin/env python3
"""Builds and runs the gumbo end-to-end benchmark.

    python3 e2ebench/run.py --workload catalog --seed 1 --seconds 10 --trace 0

Run from the repository root. The benchmark program is configured and
built with CMake under .bench_build/e2ebench (a no-op when up to date), then
run once; its standard output is passed through, and its last line is the
JSON result. Traces of --trace 1 runs go to .bench_out/. Build output goes to
standard error. Exits non-zero, without a result, when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT = os.path.join(ROOT, ".bench_out")


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "e2ebench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    if not build():
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    binary = os.path.join(BUILD, "e2ebench")
    done = subprocess.run([binary] + sys.argv[1:] + ["--out-dir", OUT],
                          cwd=ROOT)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
