#!/usr/bin/env python3
"""Build and run the malsched benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds
perfbench/ (and the malsched sources it pulls in) with CMake into
.bench_build/; later calls only rebuild what changed.  The benchmark's own
output is passed through: human-readable lines, then one JSON result line.
A traced run (--trace 1) also writes its spans to
.bench_build/traces/<workload>.spans.tsv.  Build output goes to stderr.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("exact", "zipf_repeat", "fleet_miss", "online_replay")
RUN_TIMEOUT_S = 170


def build(targets=("perfbench",)):
    """Configures and builds `targets`; raises CalledProcessError."""
    BUILD.mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # Configuring every time is cheap and recovers from a failed one.
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
        subprocess.run(
            ["cmake", "--build", str(BUILD), "-j", jobs, "--target", *targets],
            check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    command = [str(BUILD / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    if args.trace == "1":
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out", str(traces / f"{args.workload}.spans.tsv")]
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                                stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    if result.returncode != 0:
        print(f"perfbench: exited with {result.returncode}", file=sys.stderr)
        return result.returncode if result.returncode > 0 else 4
    sys.stdout.write(result.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
