#!/usr/bin/env python3
"""Builds the benchmark on first use and runs one workload.

Run from the root of a checkout:

  python3 cqbench/run.py --workload serve_hot|serve_churn|oneoff \\
      --seed N --seconds S --trace 0|1
  python3 cqbench/run.py --selftest

The library, hom_tool and the cqbench program are built in Release from the
repository's own CMake files into .bench_build/ (build output goes to
stderr). Scratch data (serve_churn's WAL directory, the protocol files of
the traced run) lives under .bench_scratch/ and is removed afterwards. The
last line on stdout is the program's JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SCRATCH = os.path.join(ROOT, ".bench_scratch")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4",
                    "--target", "cqbench", "hom_tool"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"cqbench: build failed: {err}", file=sys.stderr)
        return 2

    binary = os.path.join(BUILD, "cqbench")
    if args.selftest:
        return subprocess.run([binary, "--selftest"], cwd=BUILD).returncode

    scratch = os.path.join(SCRATCH, str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    cmd = [binary, "--workload", str(args.workload),
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", scratch,
           "--hom-tool", os.path.join(BUILD, "examples", "hom_tool")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("cqbench: run timed out", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)  # only when no other run is using it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
