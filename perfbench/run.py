#!/usr/bin/env python3
"""Builds and runs the Crimson repository benchmark.

    python3 perfbench/run.py --workload serve|analyze|ingest --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library and the perfbench program (Release) under .bench_build/; later
runs rebuild incrementally. The program's output is passed through; its
last line is the JSON result. That line is checked against the metric
names BENCHMARK.json declares for the trace mode.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RUN_TIMEOUT_S = 170
# Compilers and the benchmark keep their temporary files under .bench_build/
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD_ROOT, "tmp"))


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench; returns its path or None."""
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=ENV).returncode != 0:
            return None
    cmd = ["cmake", "--build", BUILD_DIR, "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, env=ENV).returncode != 0:
        return None
    return os.path.join(BUILD_DIR, "perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["serve", "analyze", "ingest"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "crimson", "crimson.h")):
        log("perfbench: Crimson sources (src/) not found next to perfbench/")
        return 2
    started = time.monotonic()
    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1
    log("perfbench: build ready after %.1f s" % (time.monotonic() - started))

    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    work_dir = os.path.join(BUILD_ROOT, "work", tag)
    spans = os.path.join(BUILD_ROOT, "spans", "%s-%d.json" % (args.workload,
                                                             args.seed))
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=ENV,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        log("perfbench: program exited with %d" % proc.returncode)
        return 1

    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    got = set(result.get("metrics", {}))
    want = declared_metrics(args.trace)
    if got != want:
        log("perfbench: metrics differ from BENCHMARK.json: missing %s, extra %s"
            % (sorted(want - got), sorted(got - want)))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
