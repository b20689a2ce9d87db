#!/usr/bin/env python3
"""Builds and runs the service benchmark.

    python3 perfbench/run.py --workload pipelined --seed 1 --seconds 20 \
        --trace 0

Run it from the root of the repository. It builds perfbench/ (and the
sources under src/ it needs) with CMake into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that variable is unset, runs the
benchmark's self-tests, then runs the benchmark. The benchmark's stdout is
passed through; its last line is the JSON result. The exit status is the
benchmark's, or nonzero when the build, the self-tests or the metric names
fail. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "kv", "KvStore.h")):
        log(f"no source tree at {ROOT}/src; nothing to build")
        return False
    cmds = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    cmds.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def expected_names(trace):
    """The metric names BENCHMARK.json lists for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out_dir = os.path.join(ROOT, out_dir)
    build_dir = os.path.join(out_dir, "perfbench")
    if not build(build_dir):
        return 2
    exe = os.path.join(build_dir, "perfbench")
    if subprocess.run([exe, "--self-test"], stdout=sys.stderr,
                      timeout=60).returncode:
        log("self-test failed")
        return 1

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(out_dir, "perfbench-work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark ran over {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stdout, end="")
        log(f"benchmark exited with status {proc.returncode}")
        return proc.returncode or 1
    result = json.loads(lines[-1])
    want = expected_names(args.trace == 1)
    if list(result["metrics"]) != want:
        print("\n".join(lines[:-1]))
        log(f"metric names {list(result['metrics'])} differ from "
            f"BENCHMARK.json {want}")
        return 1
    print(proc.stdout, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
