#!/usr/bin/env python3
"""Builds the benchmark binary from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The build tree goes under $CARGO_TARGET_DIR
(default .bench_build)/perfbench. The binary's last stdout line, one JSON
object {correct, attempted, failed, metrics}, is checked against the metric
list in BENCHMARK.json (end_to_end for --trace 0, per_layer for --trace 1)
and printed as this script's last line. Exits non-zero, printing no result,
when the build fails, the binary fails or its report is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return False
    return done.returncode == 0


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources (src/) are missing from this checkout")
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_quiet(["cmake", "--build", build_dir, "-j", jobs],
                     BUILD_TIMEOUT_S)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, expected):
    """Returns a list of problems with the binary's report."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"report keys {sorted(result)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"metric set differs: missing {missing}, extra {extra}")
    for name, unit in expected.items():
        metric = metrics.get(name)
        if metric is None:
            continue
        if metric.get("unit") != unit:
            problems.append(f"{name}: unit {metric.get('unit')} != {unit}")
        if not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{name}: value is not a number")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve_hot", "serve_fresh", "offline_fit"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: small inputs for the self-test")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="self-test: feed the oracle's reference session "
                             "one extra observe, which must fail the run")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    if not build(build_dir):
        log("build failed")
        return 1
    expected = expected_metrics(args.trace)

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size]
    if args.corrupt_oracle:
        cmd.append("--corrupt-oracle")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        log(f"benchmark binary exceeded {RUN_TIMEOUT_S}s")
        return 1
    if done.returncode != 0:
        log(f"benchmark binary exited with code {done.returncode}")
        return 1
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("benchmark binary printed no JSON report")
        return 1
    problems = validate(result, expected)
    if problems:
        for problem in problems:
            log(problem)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
