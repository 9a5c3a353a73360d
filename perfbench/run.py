#!/usr/bin/env python3
"""Builds the source-to-verdict benchmark and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig1_static --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The harness is configured and built (incrementally) under .bench_build/ in
the checkout, against the repository's own library sources; build output
goes to standard error, so the last line of standard output is the
harness's JSON result.

The harness runs pinned to one CPU of the allowed set. Its runs hand work
between up to five threads; spread over several virtual CPUs, each handoff
can wait for a CPU the host has descheduled, which made run times swing by
half between runs. On one CPU the times count the work and the handoffs.
"""
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: no library sources (CMakeLists.txt, src/) next to perfbench/")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def main():
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    cpu = max(os.sched_getaffinity(0))
    proc = subprocess.Popen([str(binary)] + sys.argv[1:], cwd=ROOT,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
