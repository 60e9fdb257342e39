#!/usr/bin/env python3
"""Runs one HeteroLLM benchmark workload and prints its result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The script builds perfbench/ (which compiles the library sources in src/)
into .bench_build/, runs the runner binary for one workload in its own
process, and prints, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics (the traced run also writes its spans
to .bench_build/traces/). The exit code is 0 only when every correctness
check passed. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUNNER = os.path.join(BUILD_DIR, "perfbench_runner")
RESULT_TAG = "PERFBENCH_RESULT "
# All runner processes of one run must finish well inside the 180 s a run
# may take.
RUNNER_TIMEOUT_S = 170
# setup_s is the median over this many processes: set-up time differs by up
# to 1.5x from one process to the next (heap and page placement), more than
# the many set-ups inside one process can average out.
SETUP_PROCESSES = 5


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the runner; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/ - run from a full checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                      "--target", "perfbench_runner"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("build failed: " + " ".join(cmd))


def declared_metrics(trace):
    """(name, unit) pairs the run must report, from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    return spec, [(m["name"], m["unit"])
                  for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    spec, wanted = declared_metrics(args.trace == 1)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    build()

    deadline = time.monotonic() + RUNNER_TIMEOUT_S

    def run_runner(extra):
        """Runs the runner once; returns (exit code, result, other lines)."""
        cmd = [RUNNER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        try:
            done = subprocess.run(cmd + extra, stdout=subprocess.PIPE,
                                  text=True,
                                  timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("runner did not finish within %d s" % RUNNER_TIMEOUT_S)
        result, lines = None, []
        for line in done.stdout.splitlines():
            if line.startswith(RESULT_TAG):
                result = json.loads(line[len(RESULT_TAG):])
            else:
                lines.append(line)
        if result is None:
            fail("runner exited %d without a result" % done.returncode)
        return done.returncode, result, lines

    setup_medians = []
    if not args.trace:
        for _ in range(SETUP_PROCESSES - 1):
            _, result, _ = run_runner(["--setup-only", "1"])
            setup_medians.append(result["metrics"]["setup_s"]["value"])
    extra = []
    if args.trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        extra = ["--trace-path", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    returncode, result, lines = run_runner(extra)
    for line in lines:
        print(line)
    if not args.trace:
        setup_medians.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup_medians)
        print("setup_s: median of %d processes' medians: %s" % (
            len(setup_medians), " ".join("%.6g" % v for v in setup_medians)))

    metrics = {}
    missing = []
    for name, unit in wanted:
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit:
            missing.append(name)
            continue
        metrics[name] = {"value": got["value"], "unit": unit}
    for name in missing:
        print("CHECK FAILED: metric %s missing or not in %s" %
              (name, dict(wanted)[name]))
    correct = (returncode == 0 and result["failed_checks"] == 0 and
               result["failed"] == 0 and not missing)
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
