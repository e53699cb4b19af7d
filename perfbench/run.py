#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload probe|skew|spill --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest [--seed N]

The benchmark package (perfbench/CMakeLists.txt) is configured and built
in $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), Release.
Build output goes to stderr. The last line of stdout is the result object;
the full run record (host, build, shape, per-repetition values) is written
to perfbench/results/, plus a Chrome trace of one traced repetition when
--trace 1.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def git_sha():
    """Short sha of the checkout, or "unknown" outside a git checkout."""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=True).stdout.strip()
        if os.path.realpath(top) != os.path.realpath(ROOT):
            return "unknown"
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["probe", "skew", "spill"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(os.path.join(build_root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    if args.selftest:
        return subprocess.run([binary, "--selftest", "--seed",
                               str(args.seed)]).returncode

    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", stem + ".json", "--git_sha", git_sha()]
    if args.trace:
        cmd += ["--chrome", stem + ".trace.json"]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
