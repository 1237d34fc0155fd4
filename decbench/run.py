#!/usr/bin/env python3
"""Builds and runs the decision benchmark.

Usage, from the root of a checkout:

    python3 decbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds decbench/ (the repository's libraries
from src/ plus the benchmark's sources) into .bench_build/decbench with
CMake; later calls rebuild incrementally. The benchmark binary then runs
the workload, checks its outputs and prints a result whose last line is one
JSON object. This script refuses (exit code != 0, no result line) a result
whose metric names or units differ from BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def log(msg):
    print(f"decbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if os.path.isabs(base) or ".." in base.split(os.sep):
        base = ".bench_build"
    return os.path.join(ROOT, base, "decbench")


def build(bdir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    configure = ["cmake", "-S", HERE, "-B", bdir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", bdir, "--target", "decbench",
                "--parallel", "4"]
    for attempt in range(2):
        ok = True
        # Once configured, the build tree re-runs CMake itself when a
        # CMakeLists.txt changes.
        configured = os.path.isfile(os.path.join(bdir, "CMakeCache.txt"))
        for cmd in ([compile_] if configured else [configure, compile_]):
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S, check=False)
            if r.returncode != 0:
                ok = False
                break
        if ok:
            return os.path.join(bdir, "decbench")
        if attempt == 0 and os.path.isdir(bdir):
            log("build failed; retrying from a clean build directory")
            shutil.rmtree(bdir)
    return None


def git_sha():
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.exists(git_dir):
        return "unknown"
    env = dict(os.environ, GIT_DIR=git_dir)
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], env=env, cwd=ROOT,
                           capture_output=True, text=True, timeout=10,
                           check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def check_result(line, trace):
    """Returns a problem description, or None when `line` is a valid result."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON ({e})"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        return f"metrics differ from BENCHMARK.json: missing {missing}, " \
               f"extra {extra}, unit mismatch {units}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        log("BENCHMARK.json not found at the checkout root")
        return 2
    try:
        binary = build(build_dir())
    except subprocess.TimeoutExpired:
        binary = None
    if binary is None:
        log("build failed")
        return 3

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--git-sha", git_sha(),
           "--out-dir", os.path.join(ROOT, ".bench_out")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 4
    sys.stderr.write(r.stderr)
    lines = r.stdout.rstrip("\n").split("\n")
    problem = check_result(lines[-1], args.trace == "1") if lines[-1] else \
        "no result line"
    if problem is not None:
        sys.stderr.write(r.stdout)
        log(problem)
        return r.returncode or 5
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
