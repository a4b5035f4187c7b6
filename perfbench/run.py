#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  The benchmark is compiled from source on
first use into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
build output goes to stderr, so the last line of stdout is the JSON result.
--selftest builds and runs the benchmark's own tests instead.
Exit status: 0 with a result; non-zero when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["replay-cori", "train-theta-mini", "serve-theta"]
DEFAULT_SEED = 1      # tuning and regression runs
HELD_OUT_SEED = 1001  # confirming a claim on inputs not used while tuning
RUN_TIMEOUT_S = 170


def build(build_dir, target):
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"{HELD_OUT_SEED} is held out for confirming "
                             "a claim)")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(base, "perfbench")
    try:
        build(build_dir, "perfbench_tests" if args.selftest else "perfbench")
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    if args.selftest:
        command = [os.path.join(build_dir, "perfbench_tests")]
    else:
        command = [os.path.join(build_dir, "perfbench"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--out-dir", os.path.join(base, "perfbench-out")]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
