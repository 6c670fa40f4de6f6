#!/usr/bin/env python3
"""Build (if needed) and run the wall-clock bridge benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload sim-mixed --seed 1 --seconds 10 --trace 0

The build directory is $CARGO_TARGET_DIR when set, else .bench_build. The
first run configures a Release build of ../src plus the benchmark binary;
later runs only rebuild what changed. Build output goes to stderr so the last
line of stdout stays the benchmark's JSON result. Exits non-zero, printing no
result, when the build or the run fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return None
    if subprocess.call(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                       stdout=sys.stderr) != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.call([binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
