#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the streaming Flock service.

Run from the repository root:

    python3 perfbench/run.py --workload passive_ingest --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (which compiles the library
from src/) into .bench_build/; later calls only rebuild what changed. The
benchmark program's output is passed through, so the last line of standard
output is its JSON result. Build output goes to standard error. Any failure
(no sources, build error, a run that cannot complete) exits non-zero without
printing a result.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "flock_perfbench")
WORKLOADS = ("passive_ingest", "fleet_incident", "wire_ingest")
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "pipeline", "pipeline.h")):
        print("perfbench: no flock sources under src/ in " + ROOT, file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    steps = ["cmake", "--build", BUILD, "--target", "flock_perfbench", "-j", BUILD_JOBS]
    if subprocess.run(steps, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return False
    return os.path.isfile(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--spans-dir", os.path.join(BUILD, "spans")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        print("perfbench: benchmark exited with %d" % proc.returncode, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
