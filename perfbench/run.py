#!/usr/bin/env python3
"""Build and run OneSpec's end-to-end benchmark.

    python3 perfbench/run.py --workload timing_orgs --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  The first run configures and
builds the benchmark (and the OneSpec libraries it links) under
.bench_build/; later runs only re-check the build.  The benchmark's
stdout is passed through; its last line is the JSON result.  Build or
benchmark failures exit non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench-cmake")
# Relative to ROOT, the benchmark's working directory: it keeps the
# daemon's Unix socket path short whatever the checkout's path is.
WORK_DIR = os.path.join(".bench_build", "perfbench-work")
BUILD_LOG = os.path.join(BUILD_ROOT, "perfbench-build.log")
WORKLOADS = ("timing_orgs", "ckpt_sampling", "service_preempt")
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the perfbench target; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no OneSpec sources next to %s" % HERE,
              file=sys.stderr)
        return False
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DCMAKE_PROJECT_onespec_INCLUDE=" +
                      os.path.join(HERE, "perfbench.cmake")])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    with open(BUILD_LOG, "a") as log:
        for cmd in steps:
            log.write("$ %s\n" % " ".join(cmd))
            log.flush()
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                print("perfbench: build failed, see %s" % BUILD_LOG,
                      file=sys.stderr)
                return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not build():
        return 1
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print("perfbench: benchmark exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout.decode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
