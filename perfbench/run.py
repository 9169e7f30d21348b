#!/usr/bin/env python3
"""Build and run one workload of the XMIT end-to-end benchmark.

    python3 perfbench/run.py --workload small_stream --seed 1 \
        --seconds 10 --trace 0

Run from the repository root (or anywhere: paths resolve against this
file). The first call configures and builds perfbench/ with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
rebuild only what changed. Build output goes to stderr; stdout carries
the benchmark's metric table and, as its last line, the JSON result.
Exits non-zero, without a result, when the repository sources are
missing or the build fails; exits with the benchmark's own code
otherwise (1 when an output check failed).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("small_stream", "bulk_convert", "cold_start", "durable_replay")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    log = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   check=True, stdout=log, stderr=log)
    return os.path.join(build_dir, "xmit_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "session", "session.hpp")):
        print("perfbench: repository sources not found under "
              + os.path.join(ROOT, "src"), file=sys.stderr)
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    try:
        binary = build(os.path.join(build_root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 2

    work_dir = os.path.join(build_root, "perfbench-work", args.workload)
    try:
        result = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--work-dir", work_dir],
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
