#!/usr/bin/env python3
"""End-to-end benchmark of fairshare's three user pipelines.

Builds the fairshare libraries and the benchmark driver from source
(Release), runs the benchmark's self-tests, then runs one workload and
relays its report.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload video|photos|fair_share \
        --seed N --seconds S --trace 0|1

Run it from the repository root.  Build outputs go to .bench_build/.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "perfbench-trace"
WORKLOADS = ("video", "photos", "fair_share")
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout=None):
    """Run a build or test step with its output on stderr."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout, check=False).returncode


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no fairshare sources under {ROOT / 'src'}; nothing to benchmark")
        return False
    cache = BUILD_DIR / "CMakeCache.txt"
    if not cache.is_file():
        if run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            log("configure failed")
            return False
    if "CMAKE_BUILD_TYPE:STRING=Release" not in cache.read_text():
        log("refusing a non-Release build; delete .bench_build/perfbench")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    if run_quiet(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target",
                  "perfbench_driver", "perfbench_selftest"]) != 0:
        log("build failed")
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    if run_quiet([str(BUILD_DIR / "perfbench_selftest"), "--gtest_brief=1"],
                 timeout=60) != 0:
        log("self-tests failed")
        return 1
    cmd = [str(BUILD_DIR / "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(TRACE_DIR)]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, stdout=sys.stdout, stderr=sys.stderr)
    try:
        return proc.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"driver exceeded {DRIVER_TIMEOUT_S} s")
        return 1


if __name__ == "__main__":
    sys.exit(main())
