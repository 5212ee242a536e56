#!/usr/bin/env python3
"""End-to-end benchmark of the AdaptiveTC runtime.

Usage (from the repository root):

    python3 perfbench/run.py --workload search-unbalanced --seed 1 \
        --seconds 45 --trace 0

Builds the harness (perfbench/CMakeLists.txt, which compiles the runtime
from ../src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, runs one workload and prints its metrics. The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}, holding the end-to-end metrics with --trace 0 and the
per-layer metrics with --trace 1. When a BENCHMARK.json sits in the current
directory, the metric names and units are checked against it. Workloads
and metrics are described in perfbench/WORKLOADS.md.

Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("search-unbalanced", "search-balanced", "serve-mixed")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(build_root):
    """Configures (once) and builds the harness; returns its path."""
    build_dir = os.path.join(build_root, "perfbench")
    tmp_dir = os.path.join(build_root, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, check=False)
        if done.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    """Name -> unit from ./BENCHMARK.json, or None when it is absent."""
    if not os.path.exists("BENCHMARK.json"):
        return None
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """Returns an error message for a malformed result line, else None."""
    try:
        result = json.loads(line)
    except ValueError as e:
        return "last line is not JSON: %s" % e
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "unexpected result keys %s" % sorted(result)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    want = expected_metrics(trace)
    if want is None:
        return None
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return "metrics differ from BENCHMARK.json: missing %s extra %s " \
               "unit mismatch %s" % (missing, extra, units)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)
    if binary is None:
        return 1
    out_dir = os.path.join(build_root, "runs")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        log("harness exited with %d" % done.returncode)
        return 1
    error = check_result(lines[-1], args.trace)
    if error:
        sys.stderr.write(done.stdout)
        log(error)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
