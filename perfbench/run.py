#!/usr/bin/env python3
# Copyright 2026 The ONEX Reproduction Authors.
"""Builds the ONEX benchmark from this checkout and runs one workload.

Usage, from the repository root:
  python3 perfbench/run.py --workload explore --seed 1 --seconds 30 --trace 0

The first run configures and compiles perfbench/ (the ONEX library from
src/ plus onex_perfbench) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs only re-check the build. The harness
self-tests run before the workload. Build output goes to stderr, so the
last line of stdout is the JSON result of onex_perfbench. Exits non-zero
without a result when the build, the self-tests, the workload, or the
metric set (checked against BENCHMARK.json) fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def run_quiet(cmd):
    """Runs cmd with its output on stderr; exits on failure."""
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: '{' '.join(cmd)}' failed ({done.returncode})")


def build():
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", out, "-j", jobs])
    run_quiet([os.path.join(out, "perfbench_selftest")])
    return os.path.join(out, "onex_perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    program = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    done = subprocess.run(
        [program, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", out_dir],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(done.stdout)
        sys.exit(f"perfbench: workload {args.workload} failed "
                 f"({done.returncode})")
    result = json.loads(lines[-1])
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        sys.stderr.write(done.stdout)
        sys.exit(f"perfbench: metric set differs from BENCHMARK.json: "
                 f"{sorted(missing)}")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
