#!/usr/bin/env python3
"""Build and run the federation benchmark.

Usage, from the repository root:

    python3 fedbench/run.py --workload <backup_steady|home_online|churn> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds fedbench/ (which compiles ../src) into
.bench_build/fedbench; later runs only check that the build is current.
Every run first executes the metric-math self-test, then the driver; a
traced run leaves its spans in .bench_build/fedbench/trace-<workload>.json.
Build and self-test output goes to stderr; the driver's stdout is passed
through, and its last line is the JSON result. The exit code is non-zero
when the build, the self-test or the driver's correctness check fails.
"""
import argparse
import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "fedbench")
JOBS = str(min(4, os.cpu_count() or 1))


def build():
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", os.path.join(ROOT, "fedbench"), "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD, "-j", JOBS], check=True, stdout=sys.stderr)


def git(*args):
    """Output of a read-only git query, or None outside a git checkout."""
    try:
        out = subprocess.run(["git", "--no-optional-locks", "-C", ROOT, *args],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    try:
        build()
        subprocess.run([os.path.join(BUILD, "fedbench_selftest")], check=True,
                       stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"fedbench: build or self-test failed: {error}", file=sys.stderr)
        return 1

    # Provenance is taken now, at run time, not when the binary was built.
    commit = git("rev-parse", "--short", "HEAD") or "unknown"
    status = git("status", "--porcelain", "--untracked-files=no")
    dirty = "unknown" if status is None else ("yes" if status else "no")

    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, "fedbench"),
                           "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", args.trace,
                           "--commit", commit, "--dirty", dirty,
                           "--trace-out", os.path.join(BUILD, f"trace-{args.workload}.json")]
                          ).returncode


if __name__ == "__main__":
    sys.exit(main())
