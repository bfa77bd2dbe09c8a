#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload spec-barnes --seed 1 --seconds 10 --trace 0

Builds the slacksim library, the slacksim-serve daemon and the
perfbench harness from the sources in the checkout (Release, under
.bench_build/ or $CARGO_TARGET_DIR), then runs the harness in a
scratch directory under the build tree. The harness prints a
human-readable table, a provenance line, and as its last line one JSON
object with "correct", "attempted", "failed" and "metrics". Build or
run failures exit non-zero without printing a result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["spec-barnes", "serve-sweep"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure (once) and build; build output goes to stderr."""
    out = build_dir()
    cmake_dir = os.path.join(out, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", cmake_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", cmake_dir, "--target", "perfbench",
         "slacksim-serve", "-j", jobs],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return (os.path.join(cmake_dir, "perfbench"),
            os.path.join(cmake_dir, "slacksim", "src", "slacksim-serve"))


def reap_group(pgid):
    """Kill whatever is left in the harness's process group (a daemon
    or job child orphaned by a crash) and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    try:
        harness, daemon = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    # Every daemon socket and job directory lives in a per-run scratch
    # directory; relative paths keep socket names short.
    work = os.path.join(build_dir(), f"run-{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    trace_out = os.path.join(build_dir(), f"trace-{args.workload}.json")
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--serve-bin", daemon, "--trace-out", trace_out]
    proc = subprocess.Popen(cmd, cwd=work, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap_group(proc.pid)
        proc.communicate()
        print("perfbench: harness timed out", file=sys.stderr)
        return 3
    finally:
        reap_group(proc.pid)
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(stdout)
        print(f"perfbench: harness exited {proc.returncode} without a "
              "result", file=sys.stderr)
        return 4
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
