#!/usr/bin/env python3
"""Builds the perfbench program from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The program is configured and built with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), with the repo's default build type
(RelWithDebInfo); a build that is up to date costs one
no-op `cmake --build`. Build output goes to stderr, so the program's JSON
result is the last line on stdout. A traced run (--trace 1) also writes its
spans to .bench_out/spans-<workload>-<seed>.json.
"""
import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("campaign_replay", "chaos_soak", "chaos_soak_scale", "topo_query")
RUN_TIMEOUT_S = 170


def build() -> Path:
    """Configures (once) and builds the program; returns its path."""
    if not (ROOT / "src" / "sim" / "simulator.h").is_file():
        sys.exit("perfbench: the library sources (src/) are not in this checkout")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir)],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace,
               "--plans", str(BENCH_DIR / "campaigns")]
    if args.trace == "1":
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        command += ["--spans-out",
                    str(out_dir / f"spans-{args.workload}-{args.seed}.json")]
    # The program times its cold set-up from this moment: the launch is part
    # of it. time.monotonic_ns() reads the clock the program's
    # std::chrono::steady_clock reads (CLOCK_MONOTONIC).
    command += ["--launched-at", str(time.monotonic_ns())]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
