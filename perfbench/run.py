#!/usr/bin/env python3
"""Build and run the Nautilus benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds the
libraries under src/ and the benchmark program into the build directory
($CARGO_TARGET_DIR when set, else .bench_build); later calls only let the
build tool confirm it is up to date.  Build output goes to stderr so the
program's last stdout line stays the JSON result.  Scratch files go to
.bench_out/.  Exits 2 without a result when the sources are missing or
the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/CMakeLists.txt) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "nautilus_perfbench", "-j4"])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    binary = os.path.join(build_dir, "nautilus_perfbench")
    if not os.path.isfile(binary):
        fail("build produced no nautilus_perfbench binary")
    return binary


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)
    cmd = [binary, *sys.argv[1:], "--out", os.path.join(ROOT, ".bench_out")]
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
