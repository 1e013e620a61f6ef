#!/usr/bin/env python3
"""Build hostbench from source and run one workload.

    python3 hostbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root. The first run configures and builds
hostbench/ (which compiles the simulator from src/) into .bench_build/
at the root; later runs only bring that build up to date. Build output
goes to standard error. The benchmark binary then runs the workload
and prints its result as the last line of standard output; its
recorded spans land in .bench_build/spans/. The exit code is the
binary's: 0 when every output check passed.
"""

import argparse
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "hostbench"
BUILD = ROOT / ".bench_build"
BUILD_JOBS = "2"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"hostbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build the benchmark binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    make = ["cmake", "--build", str(BUILD), "--target", "hostbench",
            "-j", BUILD_JOBS]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD / "hostbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    spans = BUILD / "spans"
    spans.mkdir(exist_ok=True)
    spans_out = spans / (f"{args.workload}-seed{args.seed}"
                         f"-trace{args.trace}.json")
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spans-out", str(spans_out)]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"no result within {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
