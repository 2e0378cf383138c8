#!/usr/bin/env python3
"""Builds and runs the repo benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark program (perfbench/*.cc) and
the program sources it measures (src/) are compiled into $CARGO_TARGET_DIR
(default .bench_build); a traced run's span dump goes under .bench_run.
Build output goes to stderr, the program's report to stdout, whose last line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Exit status: 0 when the run passed every correctness gate; nonzero, with no
JSON line, when the build or the run failed; 1 with a JSON line reading
"correct": false when a correctness gate failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("tcp-saturate", "sim-commu", "sim-ordup-shard")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds the benchmark program; returns its path or None."""
    cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.access(binary, os.X_OK) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", ".bench_run"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        ok = False
    if not ok or proc.returncode not in (0, 1):
        sys.stderr.write(proc.stdout)
        print("perfbench: run failed (exit %d)" % proc.returncode, file=sys.stderr)
        return 5
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
