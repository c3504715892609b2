#!/usr/bin/env python3
"""Build the supersym benchmark from source and run one workload.

Run from the root of a supersym checkout:

    python3 perfbench/run.py --workload paper-sweep --seed 1 \\
        --seconds 10 --trace 0

The first run configures and builds perfbench/ (a CMake project of its
own over ../src) in $CARGO_TARGET_DIR, default .bench_build; later runs
only check that the build is current.  Build output goes to stderr; the
last line of stdout is the result object of the perfbench binary.
"""

import argparse
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper-sweep", "retime", "whatif"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    bench_dir = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("run from the root of a supersym checkout (no src/ here)")

    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", bench_dir, "-B", build,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", build, "-j", "3"], BUILD_TIMEOUT_S)

    cmd = [os.path.join(build, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", os.path.join(bench_dir, "reference.tsv"),
           "--out", os.path.join(build, "out")]
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
