#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from a source checkout.

    python3 perfbench/run.py --workload durable_write --seed 1 \
        --seconds 10 --trace 0

Run it from the root of the checkout. It configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/,
runs the benchmark binary with its data directory under .bench_build/,
and relays the binary's output. The last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}; per-run
details (provenance, sample counts, spans) land in .bench_build/results/.

Exits nonzero, without a result line, when the build fails (for example
outside a full checkout), and with the binary's own nonzero code when an
output or durability check fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")
BINARY = os.path.join(CMAKE_DIR, "perfbench")
# The binary's own watchdog ends a wedged run at 170 s; this is the
# backstop if even that fails.
RUN_TIMEOUT_S = 178


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. Output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "txn", "database.h")):
        log("perfbench: no library sources under src/; cannot build")
        return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=True)
            return "git:" + sha.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 2

    work_dir = os.path.join(BUILD_DIR, "work")
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir,
           "--out-dir", os.path.join(BUILD_DIR, "results"),
           "--source-id", source_id()]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench: run exceeded %d s and was killed" % RUN_TIMEOUT_S)
        code = 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
