#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pr-inmem --seed 1 --seconds 12 --trace 0

The first run configures and compiles the library and the `nxbench` driver
under $CARGO_TARGET_DIR (default `.bench_build`); later runs only relink if
a source changed. The output of nxbench is relayed; its last line is the
result as one JSON object. Exits non-zero, without a result, if the build
or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("pr-inmem", "pr-ooc", "serve-mixed")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(bench_dir, build_dir):
    """Configures (once) and builds nxbench; returns its path."""
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = [cmake, "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configuring the benchmark failed")
    done = subprocess.run([cmake, "--build", build_dir, "--target", "nxbench",
                           "-j", BUILD_JOBS], stdout=sys.stderr)
    if done.returncode != 0:
        fail("building the benchmark failed")
    return os.path.join(build_dir, "nxbench")


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and
            set(result) == {"correct", "attempted", "failed", "metrics"})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out_dir = os.path.join(root, target, "perfbench")
    binary = build(bench_dir, os.path.join(out_dir, "build"))

    # Stores left behind by an interrupted run are stale; every run builds
    # its own.
    shutil.rmtree(os.path.join(out_dir, "work", "stores"), ignore_errors=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--work-dir", os.path.join(out_dir, "work")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        # subprocess.run kills the child and waits for it before raising.
        partial = e.stdout or ""
        if isinstance(partial, bytes):
            partial = partial.decode(errors="replace")
        sys.stderr.write(partial)
        fail("the run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not valid_result(lines[-1]):
        sys.stderr.write(done.stdout)
        fail("nxbench exited with %d without a result" % done.returncode)
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
