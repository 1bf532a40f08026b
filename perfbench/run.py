#!/usr/bin/env python3
"""Builds and runs the GeoTP benchmark (perfbench).

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The harness is compiled from source on first use (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset; later runs only re-check the build. Build output goes to stderr.
The last line of stdout is the harness's JSON result. The exit code is 0
only when the build succeeded and every correctness check passed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.abspath(build_root))
    if binary is None:
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                                text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1
    if result.returncode < 0:
        # A death by signal is reported, never retried or masked.
        log(f"harness died by {signal.Signals(-result.returncode).name}")
        return 1

    lines = result.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
        assert set(report) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        log(f"no result line (exit code {result.returncode})")
        return 1
    print(json.dumps(report), flush=True)
    if result.returncode != 0 or not report["correct"]:
        log("correctness check FAILED")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
